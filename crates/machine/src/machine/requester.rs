//! The requester half of a coherence transaction, written once.
//!
//! The paper's §2 flows — and Tardis and DLS after it — put all of their
//! variety in what the *home* does. What the requesting cluster does is
//! the same under every backend: a miss goes out through the RAC (or
//! merges into the transaction already in flight), a reply finds its MSHR,
//! and completion wakes the waiters in a fixed order (install → observe →
//! value oracle → resume the initiator → retry the rest). A backend
//! supplies only the two things that differ: the request kind it sends
//! (`Backend::request_kind`) and what a reply installs in the cluster's
//! caches (`install`: a dirty or shared line, or — for the directoryless
//! LLC, which never caches remotely — nothing).

use scd_protocol::Mshr;

use super::*;

impl Machine {
    /// Issues processor `p`'s miss on `block` at cycle `t`: opens an MSHR
    /// and sends the backend's request to the home, or merges into the
    /// cluster's transaction already in flight for the block. Either way
    /// the processor blocks until a completion wakes it.
    pub(super) fn issue(&mut self, t: Cycle, p: usize, block: u64, kind: MshrKind) {
        let eng = &mut self.eng;
        let (cl, lp) = (eng.cluster_of(p), eng.local_of(p));
        match eng.clusters[cl].rac.start(block, kind, lp) {
            StartOutcome::IssueRequest => {
                let home = eng.cfg.home_of(block);
                let write = kind == MshrKind::Write;
                eng.telemetry.txn_begin(t, cl, block, write);
                let kind = self.backend.request_kind(cl, block, write);
                eng.send(t, cl, home, kind);
            }
            StartOutcome::Merged | StartOutcome::WaitAndReissue => {}
        }
        eng.block(t, p, false);
    }
}

impl Engine {
    /// A read reply for `block` reaches cluster `cl` and takes its MSHR.
    /// Under fault tolerance a duplicated request is serviced twice, one
    /// reply per service: only the first finds the MSHR, the stray is
    /// counted and dropped (`None`). Without it a stray is a protocol bug
    /// and panics in the RAC.
    pub(super) fn read_reply(&mut self, cl: usize, block: u64) -> Option<Mshr> {
        let rac = &mut self.clusters[cl].rac;
        if !self.fault_active {
            return Some(rac.read_reply(block));
        }
        let mshr = rac.try_read_reply(block);
        if mshr.is_none() {
            self.faults.strays_dropped += 1;
        }
        mshr
    }

    /// Completes a read transaction at its requester with data at
    /// `version`: every read waiter consumes it (and caches it as
    /// `install`, unless an invalidation crossed the reply and poisoned
    /// the MSHR); a write waiter that merged behind the read reissues for
    /// ownership.
    pub(super) fn complete_read(&mut self, t: Cycle, cl: usize, block: u64, version: u64, mshr: &Mshr, install: Option<LineState>) {
        self.telemetry.txn_end(t, cl, block);
        self.set_line_version(cl, block, version);
        let at = t + self.cfg.timing.l1_hit;
        let install = install.filter(|_| !mshr.poisoned);
        for &(lp, kind) in &mshr.waiters {
            let g = self.global_proc(cl, lp);
            if kind == MshrKind::Write {
                self.retry(at, g);
                continue;
            }
            if let Some(state) = install {
                self.fill(t, cl, lp, block, state);
            }
            self.observe(cl, block);
            self.oracle_read(g, block);
            self.resume(at, g);
        }
    }

    /// Completes a write transaction at its requester, creating version
    /// `mshr.version`: the initiating processor's copy becomes `install`
    /// (stale local shared copies vanish over the bus) and it resumes; the
    /// processors that merged behind it re-execute against the result.
    pub(super) fn complete_write(&mut self, t: Cycle, cl: usize, block: u64, mshr: &Mshr, install: Option<LineState>) {
        self.telemetry.txn_end(t, cl, block);
        let tm = self.cfg.timing;
        let (writer, _) = *mshr
            .waiters
            .first()
            .expect("write MSHR has its initiating processor");
        if let Some(state) = install {
            self.clusters[cl].caches.invalidate_others(writer, block);
            self.fill(t, cl, writer, block, state);
        }
        self.set_line_version(cl, block, mshr.version);
        self.observe(cl, block);
        let g = self.global_proc(cl, writer);
        self.oracle_write(g, block, mshr.version);
        self.resume(t + tm.l1_hit, g);
        for &(lp, _) in &mshr.waiters[1..] {
            let g = self.global_proc(cl, lp);
            self.retry(t + tm.bus_memory, g);
        }
    }
}
