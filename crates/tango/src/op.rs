//! Global events: the operations a logical process can issue, the
//! [`Program`] that stores them one word each, and the [`Script`] cursor
//! that hands them to the machine.

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

/// One logical process's op stream, immutable and shared: a clone is a
/// second handle on the same words, never a copy.
///
/// An op is one 8-byte word, a 3-bit kind tag under a 61-bit payload, so a
/// program costs half of what 16-byte [`Op`]s would. A payload wider than
/// 61 bits (no generator makes one) takes an escape word carrying the kind,
/// then the raw payload word, so every `Op` stays storable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    words: Arc<[u64]>,
}

const TAG_BITS: u32 = 3;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const MAX_PAYLOAD: u64 = u64::MAX >> TAG_BITS;
const READ: u64 = 0;
const WRITE: u64 = 1;
const COMPUTE: u64 = 2;
const LOCK: u64 = 3;
const UNLOCK: u64 = 4;
const BARRIER: u64 = 5;
const DONE: u64 = 6;
const ESCAPE: u64 = 7;

/// `op` as its kind tag and payload.
fn split(op: Op) -> (u64, u64) {
    match op {
        Op::Read(a) => (READ, a),
        Op::Write(a) => (WRITE, a),
        Op::Compute(c) => (COMPUTE, c),
        Op::Lock(l) => (LOCK, l.into()),
        Op::Unlock(l) => (UNLOCK, l.into()),
        Op::Barrier(b) => (BARRIER, b.into()),
        Op::Done => (DONE, 0),
    }
}

/// The inverse of [`split`]; lock and barrier payloads came from `u32`s.
fn join(tag: u64, payload: u64) -> Op {
    match tag {
        READ => Op::Read(payload),
        WRITE => Op::Write(payload),
        COMPUTE => Op::Compute(payload),
        LOCK => Op::Lock(payload as u32),
        UNLOCK => Op::Unlock(payload as u32),
        BARRIER => Op::Barrier(payload as u32),
        _ => Op::Done,
    }
}

/// One word of a tag and a payload of at most `MAX_PAYLOAD`.
fn word((tag, payload): (u64, u64)) -> u64 {
    payload << TAG_BITS | tag
}

/// The op whose first word is `words[at]`, and how many words it takes.
#[inline]
fn decode(words: &[u64], at: usize) -> Option<(Op, usize)> {
    let w = *words.get(at)?;
    Some(match w & TAG_MASK {
        ESCAPE => (join(w >> TAG_BITS, words[at + 1]), 2),
        tag => (join(tag, w >> TAG_BITS), 1),
    })
}

impl Program {
    /// The ops, in order.
    pub fn iter(&self) -> impl Iterator<Item = Op> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let (op, len) = decode(&self.words, at)?;
            at += len;
            Some(op)
        })
    }
}

impl From<Vec<Op>> for Program {
    /// Encodes a finished op list. When every payload fits one word, as in
    /// every generated program, this is one exact-size allocation. Panics
    /// on more than `u32::MAX` words, which a [`Script`] cannot count.
    fn from(ops: Vec<Op>) -> Self {
        let words: Arc<[u64]> = if ops.iter().all(|&op| split(op).1 <= MAX_PAYLOAD) {
            ops.into_iter().map(|op| word(split(op))).collect()
        } else {
            let mut words = Vec::new();
            for (tag, payload) in ops.into_iter().map(split) {
                if payload <= MAX_PAYLOAD {
                    words.push(word((tag, payload)));
                } else {
                    words.extend([word((ESCAPE, tag)), payload]);
                }
            }
            words.into()
        };
        assert!(u32::try_from(words.len()).is_ok(), "{} words are more than a Script counts", words.len());
        Program { words }
    }
}

/// A cursor over one [`Program`]: the program and a position in it.
///
/// The machine calls [`Script::next_op`] exactly once per completed
/// operation, so simulated memory timing still decides how the processes'
/// streams interleave. A clone is a second cursor over the same program,
/// which is how one generated program feeds any number of simulations
/// (sweep workers, exploration branches) without being copied.
///
/// Its two cursors are `u32`s (`Program::from` bounds the words), which
/// keeps a `Script` at the 24 bytes of the `Op`-list cursor it replaced:
/// the machine's per-processor allocations keep their sizes, and with them
/// `telemetry_replay`'s peak-RSS mode (DESIGN.md §17).
#[derive(Clone, Debug)]
pub struct Script {
    program: Program,
    /// The next op's first word.
    word: u32,
    /// Ops handed out so far.
    pos: u32,
}

impl Script {
    /// The next operation; [`Op::Done`] once the program is exhausted, and
    /// on every call after that.
    #[inline]
    pub fn next_op(&mut self) -> Op {
        match decode(&self.program.words, self.word as usize) {
            Some((op, len)) => {
                self.word += len as u32;
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
        self.pos as usize
    }
}

impl From<Program> for Script {
    /// A cursor at the start of a shared program; nothing is copied.
    fn from(program: Program) -> Self {
        Script { program, word: 0, pos: 0 }
    }
}

impl From<Vec<Op>> for Script {
    /// Wraps an explicit op list; `Done` is implicit at the end.
    fn from(ops: Vec<Op>) -> Self {
        Script::from(Program::from(ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_yields_then_done_forever() {
        let mut p = Script::from(vec![Op::Read(16), Op::Compute(3)]);
        assert_eq!(p.next_op(), Op::Read(16));
        assert_eq!(p.next_op(), Op::Compute(3));
        assert_eq!(p.next_op(), Op::Done);
        assert_eq!(p.next_op(), Op::Done);
    }

    /// The machine's per-processor state holds a script; its size is the
    /// old `Op`-list cursor's (see `Script`).
    #[test]
    fn a_script_is_three_words() {
        assert_eq!(std::mem::size_of::<Script>(), 24);
    }

    /// Cloning a program (and taking a script of it) shares its words
    /// rather than copying them — the invariant the parallel sweep engine
    /// relies on to hand one generated program set to many workers.
    #[test]
    fn clones_and_scripts_share_one_program() {
        let program = Program::from(vec![Op::Read(0); 100]);
        let clone = program.clone();
        assert!(Arc::ptr_eq(&program.words, &clone.words));
        let _script = Script::from(program.clone());
        assert_eq!(Arc::strong_count(&program.words), 3, "clone + script share");
    }
}
