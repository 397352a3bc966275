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

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scd_core::{FastMap, FastSet};
use scd_machine::machine::explore::{Choice, FaultEdges};
use scd_machine::{Machine, SimError};
use scd_sim::SimRng;

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
    /// The frame's machine, an index into the search's [`Machines`].
    machine: usize,
    /// Its `state_digest()`, taken when the frame was made.
    digest: u64,
    /// Last edge of the path to `machine`, an index into the edge arena.
    path: Option<u32>,
    depth: usize,
    faults_used: u32,
}

thread_local! {
    /// The machines the last search on this thread ended with. The next
    /// search takes them all as spares and puts back what it ends with, so
    /// the pool holds at most the peak frontier of the largest search the
    /// thread has run.
    static POOL: Cell<Vec<Machine>> = const { Cell::new(Vec::new()) };
}

/// Every machine a search owns, named by index: a frame holds one, and
/// the spares are those no frame holds. Machines never move between
/// frames; a branch is a refill of a spare in place.
struct Machines {
    all: Vec<Machine>,
    spare: Vec<usize>,
}

impl Machines {
    /// The thread's pool, every machine in it a spare.
    fn take() -> Machines {
        let all = POOL.take();
        Machines {
            spare: (0..all.len()).collect(),
            all,
        }
    }

    /// Puts `m` in place of a spare (dropping the spare's machine) or in
    /// a new slot, and returns its index.
    fn put(&mut self, m: Machine) -> usize {
        match self.spare.pop() {
            Some(at) => {
                self.all[at] = m;
                at
            }
            None => {
                self.all.push(m);
                self.all.len() - 1
            }
        }
    }

    /// A copy of machine `from`: `clone_from` into a spare when there is
    /// one, a `clone` in a new slot when there is not.
    fn copy(&mut self, from: usize) -> usize {
        let Some(to) = self.spare.pop() else {
            let m = self.all[from].clone();
            self.all.push(m);
            return self.all.len() - 1;
        };
        let (low, high) = self.all.split_at_mut(to.max(from));
        if to < from {
            low[to].clone_from(&high[0]);
        } else {
            high[0].clone_from(&low[from]);
        }
        to
    }

    /// Returns the machines to the thread's pool, less `broken`: one a
    /// caught panic may have left half-updated is dropped, never reused.
    fn give_back(mut self, broken: Option<usize>) {
        if let Some(at) = broken {
            self.all.swap_remove(at);
        }
        POOL.set(self.all);
    }
}

/// Appends `edge` to the arena and returns its index, the path it ends.
fn add_edge(edges: &mut Vec<Edge>, edge: Edge) -> Option<u32> {
    edges.push(edge);
    Some(u32::try_from(edges.len() - 1).expect("edge arena outgrew u32"))
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
///
/// A branch is made without the allocator: every child but a parent's
/// last is written with `clone_from` into a spare machine — one a frame
/// of this search is done with, or one an earlier search on this thread
/// left behind — whose buffers it refills in place. (A `clone` of a
/// 2-cluster litmus machine a few steps in makes 23 to 33 allocations,
/// the wheel's 8 KB link table among them; a `clone_from` into a spare of
/// the same shape makes none.) A child whose digest
/// `seen` already holds at a depth no greater than its own goes straight
/// back to the spares: the pop would drop it anyway, since `seen` only
/// gains entries and lowers depths, so visited states, leaves and
/// truncation are those of a search that checked at the pop only.
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
    let mut machines = Machines::take();
    let mut stack = vec![Frame {
        digest: root.state_digest(),
        machine: machines.put(root),
        path: None,
        depth: 0,
        faults_used: 0,
    }];
    let mut choices = Vec::new();
    let mut broken = None;
    'search: while let Some(frame) = stack.pop() {
        let Frame {
            machine,
            digest,
            path,
            depth,
            faults_used,
        } = frame;
        match seen.entry(digest) {
            Entry::Occupied(mut e) => {
                if *e.get() <= depth {
                    machines.spare.push(machine);
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
        let m = &mut machines.all[machine];
        if cfg.check_each_step {
            if let Err(v) = m.check_step_invariants() {
                out.violation = Some(counterexample(&edges, path, v.to_string()));
                break;
            }
        }
        m.exploration_choices(&cfg.faults, &mut choices);
        if choices.is_empty() {
            out.leaves += 1;
            if let Err(error) = checked(|| m.finalize_exploration()) {
                out.violation = Some(counterexample(&edges, path, error));
                broken = Some(machine);
                break;
            }
            machines.spare.push(machine);
            continue;
        }
        if depth >= cfg.max_depth {
            out.truncated = true;
            machines.spare.push(machine);
            continue;
        }
        // Reverse push so choice 0 is explored first: counterexamples come
        // out in a stable, reproducible DFS order. Every child but the one
        // stepped last is a copy; that one is the parent itself.
        let affordable = |ch: &&Choice| !ch.is_fault() || faults_used < cfg.fault_budget;
        let mut todo = choices.iter().filter(affordable).rev().peekable();
        let mut parent_free = true;
        while let Some(&ch) = todo.next() {
            let child = if todo.peek().is_some() {
                machines.copy(machine)
            } else {
                parent_free = false;
                machine
            };
            let m = &mut machines.all[child];
            let digest = match checked(|| m.step_explore(ch)) {
                Ok(()) => m.state_digest(),
                Err(error) => {
                    let path = add_edge(&mut edges, (path, ch));
                    out.violation = Some(counterexample(&edges, path, error));
                    broken = Some(child);
                    break 'search;
                }
            };
            if seen.get(&digest).is_some_and(|&d| d <= depth + 1) {
                machines.spare.push(child);
                continue;
            }
            stack.push(Frame {
                machine: child,
                digest,
                path: add_edge(&mut edges, (path, ch)),
                depth: depth + 1,
                faults_used: faults_used + u32::from(ch.is_fault()),
            });
        }
        // Still free when the fault budget left no child to step.
        if parent_free {
            machines.spare.push(machine);
        }
    }
    machines.give_back(broken);
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
/// Draws each choice from a [`SimRng`] seeded with `seed`, so walks are
/// reproducible from the seed alone. The visited digests let tests assert
/// the walk stays inside the exhaustively-explored state set.
pub fn random_walk(
    build: &dyn Fn() -> Machine,
    cfg: &ExploreConfig,
    seed: u64,
    max_steps: usize,
) -> WalkOutcome {
    let mut out = WalkOutcome::default();
    let mut rng = SimRng::new(seed);
    let mut m = build();
    if cfg.faults.any() {
        m.tolerate_faults();
    }
    m.begin_exploration();
    out.digests.push(m.state_digest());
    let mut faults_used = 0u32;
    let mut choices = Vec::new();
    for _ in 0..max_steps {
        m.exploration_choices(&cfg.faults, &mut choices);
        choices.retain(|c| !c.is_fault() || faults_used < cfg.fault_budget);
        if choices.is_empty() {
            if let Err(error) = checked(|| m.finalize_exploration()) {
                out.violation = Some(Counterexample {
                    error,
                    choices: Vec::new(),
                });
            }
            break;
        }
        let ch = choices[rng.index(choices.len())];
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
