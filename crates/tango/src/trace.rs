//! Trace capture and replay (Tango's trace mode).
//!
//! A [`Trace`] stores one operation stream per logical process in a compact
//! varint-coded binary format, so large runs can be captured once and
//! replayed against many memory-system configurations. (As the Tango paper
//! notes, a trace freezes one interleaving; the coupled mode — running the
//! generator against the simulator — is what the paper's experiments use.)

use std::sync::Arc;

use crate::op::{Op, Script};

/// A captured multiprocess reference trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    per_proc: Vec<Arc<[Op]>>,
}

impl Trace {
    /// Number of processes.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Operations of process `p`.
    pub fn ops(&self, p: usize) -> &[Op] {
        &self.per_proc[p]
    }

    /// Total operations across all processes.
    pub fn total_ops(&self) -> usize {
        self.per_proc.iter().map(|ops| ops.len()).sum()
    }

    /// Serializes to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SCDT\x01"); // magic + version
        write_varint(&mut out, self.per_proc.len() as u64);
        for ops in &self.per_proc {
            write_varint(&mut out, ops.len() as u64);
            for &op in ops.iter() {
                encode_op(&mut out, op);
            }
        }
        out
    }

    /// Deserializes from [`Trace::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(5)?;
        if magic != b"SCDT\x01" {
            return Err(TraceError::BadMagic);
        }
        let procs = cur.varint()? as usize;
        if procs > 1 << 20 {
            return Err(TraceError::Corrupt("absurd process count"));
        }
        let mut per_proc = Vec::with_capacity(procs);
        for _ in 0..procs {
            let n = cur.varint()? as usize;
            let mut ops = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                ops.push(decode_op(&mut cur)?);
            }
            per_proc.push(ops.into());
        }
        if cur.pos != bytes.len() {
            return Err(TraceError::Corrupt("trailing bytes"));
        }
        Ok(Trace { per_proc })
    }

    /// Writes the trace to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a trace from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        let bytes = std::fs::read(path)?;
        Trace::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    /// One [`Script`] per process, each a cursor over the trace's own
    /// stream (nothing is copied, however often a trace is replayed).
    pub fn replay(&self) -> Vec<Script> {
        self.per_proc.iter().cloned().map(Script::from).collect()
    }
}

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// Wrong magic/version header.
    BadMagic,
    /// Truncated input.
    Truncated,
    /// Structurally invalid content.
    Corrupt(&'static str),
}

/// Captures the op streams the machine actually issued.
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    per_proc: Vec<Vec<Op>>,
}

impl TraceRecorder {
    /// A recorder for `procs` processes.
    pub fn new(procs: usize) -> Self {
        TraceRecorder {
            per_proc: vec![Vec::new(); procs],
        }
    }

    /// Records that process `p` issued `op`.
    pub fn record(&mut self, p: usize, op: Op) {
        self.per_proc[p].push(op);
    }

    /// Finishes recording.
    pub fn finish(self) -> Trace {
        Trace {
            per_proc: self.per_proc.into_iter().map(Arc::from).collect(),
        }
    }
}

// ----- encoding helpers -----

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn encode_op(out: &mut Vec<u8>, op: Op) {
    match op {
        Op::Read(a) => {
            out.push(0);
            write_varint(out, a);
        }
        Op::Write(a) => {
            out.push(1);
            write_varint(out, a);
        }
        Op::Compute(c) => {
            out.push(2);
            write_varint(out, c);
        }
        Op::Lock(l) => {
            out.push(3);
            write_varint(out, l as u64);
        }
        Op::Unlock(l) => {
            out.push(4);
            write_varint(out, l as u64);
        }
        Op::Barrier(b) => {
            out.push(5);
            write_varint(out, b as u64);
        }
        Op::Done => out.push(6),
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(TraceError::Corrupt("varint overflow"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

fn decode_op(cur: &mut Cursor) -> Result<Op, TraceError> {
    Ok(match cur.byte()? {
        0 => Op::Read(cur.varint()?),
        1 => Op::Write(cur.varint()?),
        2 => Op::Compute(cur.varint()?),
        3 => Op::Lock(cur.varint()? as u32),
        4 => Op::Unlock(cur.varint()? as u32),
        5 => Op::Barrier(cur.varint()? as u32),
        6 => Op::Done,
        _ => return Err(TraceError::Corrupt("unknown op tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut rec = TraceRecorder::new(2);
        rec.record(0, Op::Read(0x1000));
        rec.record(0, Op::Compute(300));
        rec.record(0, Op::Write(0x1008));
        rec.record(0, Op::Done);
        rec.record(1, Op::Lock(7));
        rec.record(1, Op::Barrier(0));
        rec.record(1, Op::Unlock(7));
        rec.finish()
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.total_ops(), 7);
        assert_eq!(back.procs(), 2);
    }

    #[test]
    fn replay_streams_match() {
        let t = sample();
        let mut rp = t.replay();
        assert_eq!(rp[0].next_op(), Op::Read(0x1000));
        assert_eq!(rp[0].next_op(), Op::Compute(300));
        assert_eq!(rp[1].next_op(), Op::Lock(7));
        // Exhausted streams keep returning Done.
        assert_eq!(rp[1].next_op(), Op::Barrier(0));
        assert_eq!(rp[1].next_op(), Op::Unlock(7));
        assert_eq!(rp[1].next_op(), Op::Done);
        assert_eq!(rp[1].next_op(), Op::Done);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Trace::from_bytes(b"NOPE\x01xx"), Err(TraceError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 6, bytes.len() - 1] {
            assert!(
                Trace::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut cur = Cursor {
                bytes: &out,
                pos: 0,
            };
            assert_eq!(cur.varint().unwrap(), v);
        }
    }

    #[test]
    fn file_roundtrip() {
        let t = sample();
        let dir = std::env::temp_dir().join("scd_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.scdt");
        t.save(&path).unwrap();
        assert_eq!(Trace::load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }
}
