//! The op codec: a `Program` stores each `Op` in one 8-byte word (an
//! escape word plus the raw payload when the payload is wider than 61
//! bits), and a `Script` decodes it. Whatever goes in comes out, in order,
//! and a script's position counts ops, never words.

use scd::tango::{Op, Program, Script};

/// The payloads on either side of the 61-bit word boundary.
const EDGES: [u64; 4] = [0, (1 << 61) - 1, 1 << 61, u64::MAX];

/// Every op kind at every payload edge its type can hold, with a `Done` in
/// mid-stream.
fn every_kind() -> Vec<Op> {
    let mut ops = Vec::new();
    for p in EDGES {
        ops.extend([Op::Read(p), Op::Write(p), Op::Compute(p)]);
    }
    ops.push(Op::Done);
    for l in [0, u32::MAX] {
        ops.extend([Op::Lock(l), Op::Unlock(l), Op::Barrier(l)]);
    }
    ops
}

#[test]
fn a_script_yields_every_op_at_every_payload_edge_then_done_forever() {
    let ops = every_kind();
    let mut script = Script::from(ops.clone());
    let got: Vec<Op> = ops.iter().map(|_| script.next_op()).collect();
    assert_eq!(got, ops);
    for _ in 0..3 {
        assert_eq!(script.next_op(), Op::Done);
        assert_eq!(script.pos(), ops.len());
    }
    assert_eq!(Program::from(ops.clone()).iter().collect::<Vec<_>>(), ops);
}

#[test]
fn pos_counts_ops_not_words_across_escapes() {
    let ops = vec![Op::Read(u64::MAX), Op::Write(1), Op::Compute(1 << 61), Op::Done, Op::Read(8)];
    let mut script = Script::from(ops.clone());
    for (n, &op) in ops.iter().enumerate() {
        assert_eq!(script.pos(), n);
        // Two cursors at one position have one future.
        let mut twin = script.clone();
        assert_eq!(script.next_op(), op);
        assert_eq!(twin.next_op(), op);
        assert_eq!(twin.pos(), n + 1);
    }
    assert_eq!(script.pos(), ops.len());
}

/// FNV-1a over each op's kind index and payload, with a marker after each
/// processor's program.
fn digest(programs: &[Program]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut ops = 0;
    for program in programs {
        for op in program.iter() {
            let (kind, payload) = match op {
                Op::Read(a) => (0, a),
                Op::Write(a) => (1, a),
                Op::Compute(c) => (2, c),
                Op::Lock(l) => (3, l.into()),
                Op::Unlock(l) => (4, l.into()),
                Op::Barrier(b) => (5, b.into()),
                Op::Done => (6, 0),
            };
            eat(kind);
            eat(payload);
            ops += 1;
        }
        eat(u64::MAX);
    }
    (ops, hash)
}

/// The four applications at 32 clusters and scale 1.0 decode to the ops
/// their generators produced. The digests were taken over the generators'
/// `Op` lists as they were stored before the codec existed, one 16-byte
/// `Op` each; a `Script` over each program hands out the same ops.
#[test]
fn generated_programs_decode_to_what_the_generators_produced() {
    let expected = [
        ("lu", 499_556, 0xd7e9_ff82_0ace_222d),
        ("dwf", 308_224, 0x0003_9acb_3e9c_2597),
        ("mp3d", 307_468, 0xbc7d_ea70_870a_c89d),
        ("locusroute", 570_210, 0xece3_29ab_93b1_c8d5),
    ];
    for (app, ops, hash) in expected {
        let run = bench::generate_app(app, 32, bench::RUN_SEED, 1.0).expect("a known app");
        assert_eq!(digest(&run.programs), (ops, hash), "{app}");
        for (program, mut script) in run.programs.iter().zip(run.scripts()) {
            assert!(program.iter().all(|op| script.next_op() == op), "{app}");
            assert_eq!(script.next_op(), Op::Done, "{app}");
        }
    }
}
