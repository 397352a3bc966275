//! Global events: the operations a logical process can issue, and the
//! [`Script`] cursor that hands them to the machine.

use std::sync::Arc;

/// One operation of a logical process.
///
/// Tango instruments "global events — references to shared data and
/// synchronization events such as lock and unlock"; everything between two
/// global events is private computation, summarized here as [`Op::Compute`]
/// cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Read the shared word at this byte address.
    Read(u64),
    /// Write the shared word at this byte address.
    Write(u64),
    /// Execute this many cycles of private work.
    Compute(u64),
    /// Acquire the given lock (blocks until granted).
    Lock(u32),
    /// Release the given lock.
    Unlock(u32),
    /// Wait at the given barrier until all participants arrive.
    Barrier(u32),
    /// The process has finished.
    Done,
}

impl Op {
    /// True for shared-memory references (reads and writes).
    pub fn is_reference(&self) -> bool {
        matches!(self, Op::Read(_) | Op::Write(_))
    }

    /// True for synchronization operations.
    pub fn is_sync(&self) -> bool {
        matches!(self, Op::Lock(_) | Op::Unlock(_) | Op::Barrier(_))
    }
}

/// One logical process's reference stream: an immutable op list and a
/// position in it.
///
/// The machine calls [`Script::next_op`] exactly once per completed
/// operation, so simulated memory timing still decides how the processes'
/// streams interleave. The ops sit behind an [`Arc`]: a clone is a second
/// cursor over the same stream, which is how one generated program feeds
/// any number of simulations (sweep workers, exploration branches)
/// without being copied.
#[derive(Clone, Debug)]
pub struct Script {
    ops: Arc<[Op]>,
    pos: usize,
}

impl Script {
    /// The next operation; [`Op::Done`] once the list is exhausted, and on
    /// every call after that.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.ops.get(self.pos) {
            Some(&op) => {
                self.pos += 1;
                op
            }
            None => Op::Done,
        }
    }

    /// How many ops have been handed out. Cursors over one stream produce
    /// identical op sequences from here on exactly when their positions are
    /// equal, which makes this the program's share of a state fingerprint.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl From<Arc<[Op]>> for Script {
    /// A cursor at the start of an already-shared stream; nothing is copied.
    fn from(ops: Arc<[Op]>) -> Self {
        Script { ops, pos: 0 }
    }
}

impl From<Vec<Op>> for Script {
    /// Wraps an explicit op list; `Done` is implicit at the end.
    fn from(ops: Vec<Op>) -> Self {
        Script::from(Arc::<[Op]>::from(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Op::Read(0).is_reference());
        assert!(Op::Write(8).is_reference());
        assert!(!Op::Compute(5).is_reference());
        assert!(Op::Lock(1).is_sync());
        assert!(Op::Barrier(0).is_sync());
        assert!(!Op::Done.is_sync());
    }

    #[test]
    fn script_yields_then_done_forever() {
        let mut p = Script::from(vec![Op::Read(16), Op::Compute(3)]);
        assert_eq!(p.next_op(), Op::Read(16));
        assert_eq!(p.next_op(), Op::Compute(3));
        assert_eq!(p.next_op(), Op::Done);
        assert_eq!(p.next_op(), Op::Done);
    }
}
