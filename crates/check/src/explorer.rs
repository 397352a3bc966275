//! Explicit-state exploration over the machine's branching API.
//!
//! [`explore`] performs a depth-first search over every interleaving (and,
//! with a fault budget, every fault placement) a machine can exhibit,
//! deduplicating states by canonical digest and asserting the per-state
//! coherence invariants at each one. Leaves (drained machines) get the
//! full quiescent validation a production run ends with. A violation —
//! invariant failure, simulation error, or protocol panic — is returned
//! as a [`Counterexample`]: the exact choice sequence that reproduces it.
//!
//! [`minimize`] shortens a counterexample by iterative deepening;
//! [`random_walk`] drives a seeded random path through the same choice
//! space (the cross-check that the simulator's nondeterminism is a subset
//! of the model checker's); [`replay_trace`] re-runs a counterexample on
//! a trace-enabled machine and emits standard `scd-trace` JSONL.

use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scd_core::{FastMap, FastSet};
use scd_machine::machine::explore::{Choice, FaultEdges};
use scd_machine::{Machine, SimError};

/// Exploration bounds and fault options.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Which fault edges to enumerate.
    pub faults: FaultEdges,
    /// Maximum injected faults along any one path.
    pub fault_budget: u32,
    /// Maximum path length before a branch is truncated.
    pub max_depth: usize,
    /// Maximum distinct states to visit before giving up.
    pub max_states: u64,
    /// Assert the per-state invariants at every visited state (on by
    /// default; off leaves only the leaf-state quiescent checks).
    pub check_each_step: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            faults: FaultEdges::none(),
            fault_budget: 0,
            max_depth: 4096,
            max_states: 200_000,
            check_each_step: true,
        }
    }
}

/// A reproducible invariant violation: the choice path that reaches it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// What failed (invariant violation, simulation error, or panic).
    pub error: String,
    /// The choice sequence from the initial state to the failure.
    pub choices: Vec<Choice>,
}

/// Result of one exploration.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Distinct states visited (post-deduplication).
    pub visited: u64,
    /// Drained leaf states validated quiescently.
    pub leaves: u64,
    /// True if a depth or state bound cut the search short.
    pub truncated: bool,
    /// The first violation found, if any.
    pub violation: Option<Counterexample>,
    /// Digests of every state visited (for subset cross-checks).
    pub digests: FastSet<u64>,
}

impl Outcome {
    /// The row `scd-check` prints for an exploration that found no
    /// violation; `tests/corpus_states.txt` commits one per litmus ×
    /// scenario, so the state and leaf counts are reviewed when they move.
    pub fn row(&self, litmus: &str, scenario: &str) -> String {
        format!(
            "check {litmus:<28} {scenario:<18} {:>7} states {:>6} leaves  {}",
            self.visited,
            self.leaves,
            if self.truncated { "TRUNCATED" } else { "ok" }
        )
    }
}

/// Result of one random walk.
#[derive(Debug, Default)]
pub struct WalkOutcome {
    /// Steps actually taken.
    pub steps: usize,
    /// Digest of every state passed through, in order.
    pub digests: Vec<u64>,
    /// A violation hit along the walk, if any.
    pub violation: Option<Counterexample>,
}

/// Runs `f`, converting a panic into its message without letting the
/// default hook spam stderr (protocol `assert!`s double as invariant
/// checks during exploration, so panics here are *expected* findings).
fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::cell::Cell;
    use std::sync::Once;
    thread_local! {
        static CAPTURING: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(Cell::get) {
                prev(info);
            }
        }));
    });
    CAPTURING.with(|c| c.set(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    r.map_err(|p| {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// One edge of the search tree: the choice taken and the edge it was
/// taken after (`None` at the root). A frame names its path by its last
/// edge, and only a counterexample walks the links back into a `Vec`.
type Edge = (Option<u32>, Choice);

struct Frame {
    /// Boxed: a machine is some 3 KB, and frames move on and off the stack.
    machine: Box<Machine>,
    /// Last edge of the path to `machine`, an index into the edge arena.
    path: Option<u32>,
    depth: usize,
    faults_used: u32,
}

fn counterexample(edges: &[Edge], mut at: Option<u32>, error: String) -> Counterexample {
    let mut choices = Vec::new();
    while let Some(i) = at {
        let (parent, choice) = edges[i as usize];
        choices.push(choice);
        at = parent;
    }
    choices.reverse();
    Counterexample { error, choices }
}

/// `run` under [`quiet_catch`], with a simulation error or a protocol
/// panic rendered as the violation message.
fn checked<T>(run: impl FnOnce() -> Result<T, SimError>) -> Result<T, String> {
    match quiet_catch(run) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(msg) => Err(format!("panic: {msg}")),
    }
}

/// Exhaustively explores every interleaving of the machine `build`
/// produces, within the configured bounds.
///
/// `build` is a constructor rather than a machine so counterexamples can
/// later be replayed against fresh instances (exploration consumes its
/// machines).
pub fn explore(build: &dyn Fn() -> Machine, cfg: &ExploreConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut root = build();
    if cfg.faults.any() {
        root.tolerate_faults();
    }
    root.begin_exploration();
    // Digest -> shallowest depth seen. Re-expanding a known state reached
    // by a *shorter* path keeps depth-limited searches complete, which
    // `minimize`'s iterative deepening relies on.
    let mut seen: FastMap<u64, usize> = FastMap::default();
    let mut edges: Vec<Edge> = Vec::new();
    let mut stack = vec![Frame {
        machine: Box::new(root),
        path: None,
        depth: 0,
        faults_used: 0,
    }];
    // Boxes of frames the search is done with: a clone is written into one
    // of them rather than into a fresh 3 KB allocation.
    let mut spare: Vec<Box<Machine>> = Vec::new();
    'search: while let Some(frame) = stack.pop() {
        let Frame {
            mut machine,
            path,
            depth,
            faults_used,
        } = frame;
        match seen.entry(machine.state_digest()) {
            Entry::Occupied(mut e) => {
                if *e.get() <= depth {
                    spare.push(machine);
                    continue;
                }
                e.insert(depth);
            }
            Entry::Vacant(e) => {
                // The bound is on states counted, and a counted state is a
                // checked one: stop before taking one more.
                if out.visited >= cfg.max_states {
                    out.truncated = true;
                    break;
                }
                e.insert(depth);
                out.visited += 1;
            }
        }
        if cfg.check_each_step {
            if let Err(v) = machine.check_step_invariants() {
                out.violation = Some(counterexample(&edges, path, v.to_string()));
                break;
            }
        }
        let choices = machine.exploration_choices(&cfg.faults);
        if choices.is_empty() {
            out.leaves += 1;
            if let Err(error) = checked(|| machine.finalize_exploration()) {
                out.violation = Some(counterexample(&edges, path, error));
                break;
            }
            spare.push(machine);
            continue;
        }
        if depth >= cfg.max_depth {
            out.truncated = true;
            spare.push(machine);
            continue;
        }
        // Reverse push so choice 0 is explored first: counterexamples come
        // out in a stable, reproducible DFS order. Every child but the one
        // stepped last is a clone; that one is the parent itself.
        let affordable = |ch: &&Choice| !ch.is_fault() || faults_used < cfg.fault_budget;
        let mut parent = Some(machine);
        let mut todo = choices.iter().filter(affordable).rev().peekable();
        while let Some(&ch) = todo.next() {
            let mut child = match (todo.peek(), &parent) {
                (Some(_), Some(parent)) => match spare.pop() {
                    Some(mut child) => {
                        child.clone_from(parent);
                        child
                    }
                    None => parent.clone(),
                },
                _ => parent.take().expect("the parent is moved out for the last child only"),
            };
            edges.push((path, ch));
            let path = Some(u32::try_from(edges.len() - 1).expect("edge arena outgrew u32"));
            if let Err(error) = checked(|| child.step_explore(ch)) {
                out.violation = Some(counterexample(&edges, path, error));
                break 'search;
            }
            stack.push(Frame {
                machine: child,
                path,
                depth: depth + 1,
                faults_used: faults_used + u32::from(ch.is_fault()),
            });
        }
        // Still here when the fault budget left no child to step.
        spare.extend(parent);
    }
    out.digests = seen.into_keys().collect();
    out
}

/// Shrinks a counterexample to minimal depth by iterative deepening: the
/// first depth limit at which *any* violation appears is, by construction,
/// the length of a shortest violating path.
pub fn minimize(
    build: &dyn Fn() -> Machine,
    cfg: &ExploreConfig,
    upper: usize,
) -> Option<Counterexample> {
    for limit in 1..=upper {
        let mut bounded = cfg.clone();
        bounded.max_depth = limit;
        let o = explore(build, &bounded);
        if o.violation.is_some() {
            return o.violation;
        }
    }
    None
}

/// Drives one seeded random path through the exploration choice space.
///
/// Uses an inline xorshift64* generator so walks are reproducible from the
/// seed alone. The visited digests let tests assert the walk stays inside
/// the exhaustively-explored state set.
pub fn random_walk(
    build: &dyn Fn() -> Machine,
    cfg: &ExploreConfig,
    seed: u64,
    max_steps: usize,
) -> WalkOutcome {
    let mut out = WalkOutcome::default();
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut m = build();
    if cfg.faults.any() {
        m.tolerate_faults();
    }
    m.begin_exploration();
    out.digests.push(m.state_digest());
    let mut faults_used = 0u32;
    for _ in 0..max_steps {
        let choices: Vec<Choice> = m
            .exploration_choices(&cfg.faults)
            .into_iter()
            .filter(|c| !c.is_fault() || faults_used < cfg.fault_budget)
            .collect();
        if choices.is_empty() {
            if let Err(error) = checked(|| m.finalize_exploration()) {
                out.violation = Some(Counterexample {
                    error,
                    choices: Vec::new(),
                });
            }
            break;
        }
        let ch = choices[(next() % choices.len() as u64) as usize];
        faults_used += u32::from(ch.is_fault());
        if let Err(error) = checked(|| m.step_explore(ch)) {
            out.violation = Some(Counterexample {
                error,
                choices: Vec::new(),
            });
            break;
        }
        out.steps += 1;
        out.digests.push(m.state_digest());
    }
    out
}

/// Replays a counterexample on a freshly built (ideally trace-enabled)
/// machine, returning the `scd-trace` JSONL of everything up to the
/// failure plus a human-readable step listing.
///
/// The JSONL is the standard envelope (`seq`, `cycle`, `cluster`,
/// `type`), so `scd-telemetry validate` and the Perfetto exporter consume
/// it directly.
pub fn replay_trace(
    build: &dyn Fn() -> Machine,
    cfg: &ExploreConfig,
    choices: &[Choice],
) -> (String, Vec<String>) {
    let mut m = build();
    if cfg.faults.any() {
        m.tolerate_faults();
    }
    m.begin_exploration();
    let mut steps = Vec::with_capacity(choices.len());
    for &ch in choices {
        steps.push(m.describe_choice(ch));
        if let Err(error) = checked(|| m.step_explore(ch)) {
            steps.push(format!("=> {error}"));
            break;
        }
    }
    let mut jsonl = Vec::new();
    for ev in m.trace_events() {
        ev.write_jsonl(&mut jsonl);
        jsonl.push(b'\n');
    }
    let jsonl = String::from_utf8(jsonl).expect("the line writer emits UTF-8");
    (jsonl, steps)
}
