//! Deterministic parallel sweep engine.
//!
//! The paper's evaluation is a grid — apps × directory schemes × sparse
//! configurations × seeds (§5–§6) — and every point is an independent,
//! fully deterministic simulation. This module fans that grid out over a
//! hand-rolled `std::thread` + channel job pool (the workspace builds
//! offline, so no rayon/crossbeam):
//!
//! * the **reference programs** are generated once per (app, seed) pair and
//!   shared immutably across workers (`AppRun` streams are `Arc`-backed, so
//!   handing one to a worker is pointer-cheap);
//! * each worker owns its `Machine` outright — no shared mutable state —
//!   so a run's statistics are bit-identical to a serial run of the same
//!   descriptor;
//! * results are merged **in descriptor order**, never completion order,
//!   so the aggregated `scd-sweep/v1` document is byte-identical for
//!   `--jobs 1` and `--jobs N` (modulo the explicitly non-deterministic
//!   wall-clock `timing` section, which can be omitted).
//!
//! `src/bin/scd-sweep.rs` is the CLI front end; the `repro` driver
//! ([`crate::repro`]) runs its artifact points on the same pool
//! (`fan_out`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use scd_apps::{dwf, locusroute, lu, mp3d, AppRun, DwfParams, LocusRouteParams, LuParams,
    Mp3dParams};
use scd_core::{Replacement, Scheme};
use scd_machine::{MachineConfig, ProtocolKind, RunStats};
use scd_trace::Json;

use crate::runner::{run_app_attributed, slug, sparse_config_with};

// The whole point of the engine is moving configs and reference programs
// across worker threads; keep that property machine-checked.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<MachineConfig>();
    shareable::<AppRun>();
    shareable::<SweepSpec>();
    shareable::<RunDescriptor>();
};

/// Generator keys accepted in sweep grids, in canonical order.
pub const APP_NAMES: [&str; 4] = ["lu", "dwf", "mp3d", "locusroute"];

/// Generates the reference program for one generator key, or `None` for an
/// unknown key.
pub fn generate_app(name: &str, procs: usize, seed: u64, scale: f64) -> Option<AppRun> {
    Some(match name {
        "lu" => lu(&LuParams::scaled(scale), procs, seed),
        "dwf" => dwf(&DwfParams::scaled(scale), procs, seed),
        "mp3d" => mp3d(&Mp3dParams::scaled(scale), procs, seed),
        "locusroute" => locusroute(&LocusRouteParams::scaled(scale), procs, seed),
        _ => return None,
    })
}

/// One sparse-directory axis value: the full (complete) directory, or a
/// §6.3 sparse directory described by size factor × associativity ×
/// replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseVariant {
    /// Complete directory (no sparse organization).
    Full,
    /// Sparse directory: `size_factor`× the total cache blocks, `ways`-way
    /// associative, using `policy`.
    Sparse {
        /// Directory size as a multiple of total cache blocks.
        size_factor: usize,
        /// Set associativity.
        ways: usize,
        /// Replacement policy.
        policy: Replacement,
    },
}

/// The canonical trajectory sparse point: size factor 2, 4-way, random
/// replacement (what `BENCH_*_dir4cv4_sparse.json` tracks).
pub const CANONICAL_SPARSE: SparseVariant = SparseVariant::Sparse {
    size_factor: 2,
    ways: 4,
    policy: Replacement::Random,
};

fn policy_spec(policy: Replacement) -> &'static str {
    match policy {
        Replacement::Lru => "lru",
        Replacement::Random => "rand",
        Replacement::Lra => "lra",
    }
}

impl SparseVariant {
    /// Parses `full` or `<size_factor>:<ways>:<lru|rand|lra>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "full" {
            return Ok(SparseVariant::Full);
        }
        let parts: Vec<&str> = spec.split(':').collect();
        let [factor, ways, policy] = parts.as_slice() else {
            return Err(format!(
                "bad sparse spec `{spec}` (want `full` or `<factor>:<ways>:<lru|rand|lra>`)"
            ));
        };
        let size_factor: usize = factor
            .parse()
            .map_err(|_| format!("bad sparse size factor `{factor}`"))?;
        if size_factor == 0 {
            return Err("sparse size factor must be >= 1 (use `full` for no sparse)".into());
        }
        let ways: usize = ways.parse().map_err(|_| format!("bad sparse ways `{ways}`"))?;
        if ways == 0 {
            return Err("sparse ways must be >= 1".into());
        }
        let policy = Replacement::parse(policy)?;
        Ok(SparseVariant::Sparse {
            size_factor,
            ways,
            policy,
        })
    }

    /// Round-trips to the spec syntax accepted by [`SparseVariant::parse`].
    pub fn spec(&self) -> String {
        match *self {
            SparseVariant::Full => "full".into(),
            SparseVariant::Sparse {
                size_factor,
                ways,
                policy,
            } => format!("{size_factor}:{ways}:{}", policy_spec(policy)),
        }
    }

    /// Human/file-name suffix appended to the scheme label. The canonical
    /// trajectory point keeps the short ` Sparse` suffix so its bench file
    /// names (`BENCH_*_dir4cv4_sparse.json`) stay stable; other variants
    /// spell their parameters out.
    pub fn label_suffix(&self) -> String {
        match *self {
            SparseVariant::Full => String::new(),
            v if v == CANONICAL_SPARSE => " Sparse".into(),
            SparseVariant::Sparse {
                size_factor,
                ways,
                policy,
            } => format!(" Sparse {size_factor}x {ways}w {}", policy_spec(policy)),
        }
    }
}

/// Parses a workload seed as `scdsim --seed` and `scd-sweep --seeds` take
/// it: decimal, or hex behind `0x` (both help texts quote the default
/// `0xD45B`).
pub fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad seed `{s}`"))
}

/// Parses a problem scale as `scdsim --scale` and `scd-sweep --scale` take
/// it: a fraction of the full-size run in (0, 1].
pub fn parse_scale(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(f) if f > 0.0 && f <= 1.0 => Ok(f),
        _ => Err(format!("bad --scale `{s}` (want 0 < f <= 1)")),
    }
}

/// A sweep grid: the cross product of apps × schemes × sparse variants ×
/// seeds at one problem scale and machine size.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Generator keys (see [`APP_NAMES`]).
    pub apps: Vec<String>,
    /// Directory schemes.
    pub schemes: Vec<Scheme>,
    /// Sparse-directory variants ([`SparseVariant::Full`] = complete).
    pub sparse: Vec<SparseVariant>,
    /// Workload seeds.
    pub seeds: Vec<u64>,
    /// Coherence protocol backends (`[Dash]` by default everywhere);
    /// adding `Tardis`/`Dls` multiplies the grid so one sweep compares the
    /// protocol families on identical reference streams.
    pub protocols: Vec<ProtocolKind>,
    /// Problem scale ∈ (0, 1].
    pub scale: f64,
    /// Cluster count (one processor per cluster, as in the paper's runs).
    pub clusters: usize,
    /// Read by nothing: kept only because the frozen `benchmark/` crate
    /// builds this struct by literal; it goes with ROADMAP.md item 1(a).
    #[doc(hidden)]
    pub shards: usize,
}

impl SweepSpec {
    /// The perf-trajectory grid: all four apps under `Dir4CV4`, full and
    /// canonical sparse, the standard workload seed, 32 clusters.
    pub fn trajectory(scale: f64) -> Self {
        SweepSpec {
            apps: APP_NAMES.iter().map(|s| s.to_string()).collect(),
            schemes: vec![Scheme::dir_cv(4, 4)],
            sparse: vec![SparseVariant::Full, CANONICAL_SPARSE],
            seeds: vec![0xD45B],
            protocols: vec![ProtocolKind::Dash],
            scale,
            clusters: 32,
            shards: 1,
        }
    }

    /// The descriptor list in canonical (deterministic) order: apps outer,
    /// then protocols, then schemes, then sparse variants, then seeds.
    /// Only DASH reads the directory organization, so the other protocols
    /// run the [`SparseVariant::Full`] points alone (a sparse twin would
    /// repeat its cycles and traffic).
    pub fn descriptors(&self) -> Vec<RunDescriptor> {
        let mut descs = Vec::new();
        for (a, app) in self.apps.iter().enumerate() {
            for &protocol in &self.protocols {
                for scheme in &self.schemes {
                    let sparse = self.sparse.iter().filter(|&&v| {
                        protocol == ProtocolKind::Dash || v == SparseVariant::Full
                    });
                    for sparse in sparse {
                        for (s, &seed) in self.seeds.iter().enumerate() {
                            let scheme_label =
                                format!("{}{}", scheme.name(self.clusters), sparse.label_suffix());
                            // Dash ids have three segments (the names the
                            // committed BENCH_*.json points carry); the
                            // other protocols gain their own segment so
                            // grid points stay unambiguous.
                            let id = if protocol == ProtocolKind::Dash {
                                format!("{app}/{}/s{seed}", slug(&scheme_label))
                            } else {
                                format!(
                                    "{app}/{}/{}/s{seed}",
                                    protocol.name(),
                                    slug(&scheme_label)
                                )
                            };
                            descs.push(RunDescriptor {
                                index: descs.len(),
                                app_idx: a * self.seeds.len() + s,
                                app: app.clone(),
                                scheme: *scheme,
                                sparse: *sparse,
                                seed,
                                protocol,
                                scheme_label,
                                id,
                            });
                        }
                    }
                }
            }
        }
        descs
    }

    /// Generates the shared reference-program table: one entry per
    /// (app, seed) pair, indexed by [`RunDescriptor::app_idx`]. Programs
    /// are generated **once** here and shared immutably by every worker.
    ///
    /// # Panics
    /// On unknown generator keys — validate CLI input with
    /// [`generate_app`] first.
    pub fn generate_apps(&self) -> Vec<AppRun> {
        let mut table = Vec::with_capacity(self.apps.len() * self.seeds.len());
        for app in &self.apps {
            for &seed in &self.seeds {
                table.push(
                    generate_app(app, self.clusters, seed, self.scale)
                        .unwrap_or_else(|| panic!("unknown app `{app}`")),
                );
            }
        }
        table
    }
}

/// One point of the grid: everything a worker needs to build and run the
/// machine, plus a stable identifier for reports.
#[derive(Clone, Debug)]
pub struct RunDescriptor {
    /// Position in the canonical descriptor order (merge key).
    pub index: usize,
    /// Index into the [`SweepSpec::generate_apps`] table.
    pub app_idx: usize,
    /// Generator key (`lu`, `dwf`, ...).
    pub app: String,
    /// Directory scheme.
    pub scheme: Scheme,
    /// Sparse-directory variant.
    pub sparse: SparseVariant,
    /// Workload seed.
    pub seed: u64,
    /// Coherence protocol backend.
    pub protocol: ProtocolKind,
    /// Display label, e.g. `Dir4CV4 Sparse` (drives bench file names).
    pub scheme_label: String,
    /// Stable run id, e.g. `lu/dir4cv4_sparse/s54363`.
    pub id: String,
}

/// The machine configuration for one descriptor (pure function of the
/// descriptor, the app and the grid — workers call it independently).
pub fn build_config(desc: &RunDescriptor, app: &AppRun, spec: &SweepSpec) -> MachineConfig {
    let mut base = MachineConfig::paper_32()
        .with_scheme(desc.scheme)
        .with_protocol(desc.protocol);
    base.clusters = spec.clusters;
    match desc.sparse {
        SparseVariant::Full => base,
        SparseVariant::Sparse {
            size_factor,
            ways,
            policy,
        } => sparse_config_with(base, app, size_factor, ways, policy),
    }
}

/// One finished grid point.
pub struct SweepRun {
    /// The descriptor this run executed.
    pub desc: RunDescriptor,
    /// Simulation results (bit-identical to a serial run).
    pub stats: RunStats,
    /// The `scd-attrib/v1` section (traffic attribution is always on for
    /// sweep points, as in the trajectory baselines).
    pub attribution: Option<Json>,
    /// The machine's trace bookkeeping (`recorded` / `dropped_events`),
    /// surfaced per run so telemetry truncation is never silent.
    pub trace: Option<Json>,
    /// Wall-clock seconds this point took on its worker.
    pub wall_seconds: f64,
}

/// A finished sweep: every grid point in descriptor order, plus timing.
pub struct SweepOutcome {
    /// Runs, merged in descriptor order regardless of completion order.
    pub runs: Vec<SweepRun>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep (including app generation).
    pub wall_seconds: f64,
    /// The shared reference-program table (indexed by `app_idx`).
    pub apps: Vec<AppRun>,
}

impl SweepOutcome {
    /// Sum of per-run wall-clock seconds — what a serial sweep would have
    /// cost; `serial_seconds / wall_seconds` is the measured speedup.
    pub fn serial_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_seconds).sum()
    }
}

fn execute(desc: RunDescriptor, apps: &[AppRun], spec: &SweepSpec) -> SweepRun {
    let app = &apps[desc.app_idx];
    let cfg = build_config(&desc, app, spec);
    let t0 = Instant::now();
    let (stats, attribution, trace) = run_app_attributed(app, cfg);
    SweepRun {
        desc,
        stats,
        attribution,
        trace,
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// One completed grid point, reported live from the merge loop while the
/// sweep is still running. `completed` counts arrivals (1-based), so with
/// multiple workers the `index`/`id` sequence follows completion order —
/// non-deterministic, which is why progress lives beside the (always
/// deterministic) document, never inside it.
#[derive(Clone, Debug)]
pub struct SweepProgress {
    /// Descriptor index of the run that just finished.
    pub index: usize,
    /// Its human-readable id (`app/scheme[/sparse]/seed`).
    pub id: String,
    /// Final simulated cycle of the run.
    pub cycles: u64,
    /// Wall-clock seconds the run took on its worker.
    pub run_seconds: f64,
    /// Runs finished so far (this one included).
    pub completed: usize,
    /// Total runs in the grid.
    pub total: usize,
    /// Wall-clock seconds since the sweep started.
    pub elapsed: f64,
    /// Naive remaining-time estimate: `elapsed / completed` per
    /// outstanding run.
    pub eta: f64,
}

impl SweepProgress {
    /// The streamed `sweep_run` record (JSONL, shared transport with the
    /// machine's trace stream; see `scd_trace::sink`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("type", Json::Str("sweep_run".into()))
            .with("index", Json::U64(self.index as u64))
            .with("id", Json::Str(self.id.clone()))
            .with("cycles", Json::U64(self.cycles))
            .with("run_seconds", Json::F64(self.run_seconds))
            .with("completed", Json::U64(self.completed as u64))
            .with("total", Json::U64(self.total as u64))
            .with("elapsed", Json::F64(self.elapsed))
            .with("eta", Json::F64(self.eta))
    }

    /// One-line progress rendering for a terminal.
    pub fn render(&self) -> String {
        format!(
            "{:>3}/{} {:<44} {:>7.1}s elapsed, eta {:>6.1}s",
            self.completed, self.total, self.id, self.elapsed, self.eta
        )
    }
}

/// The streamed `sweep_begin` record: grid size and worker count.
pub fn sweep_begin_record(spec: &SweepSpec, jobs: usize) -> Json {
    Json::obj()
        .with("type", Json::Str("sweep_begin".into()))
        .with("total", Json::U64(spec.descriptors().len() as u64))
        .with("jobs", Json::U64(jobs as u64))
        .with(
            "apps",
            Json::Arr(
                spec.apps
                    .iter()
                    .map(|a| Json::Str(a.clone()))
                    .collect(),
            ),
        )
}

/// The streamed `sweep_end` record: aggregate wall-clock accounting.
pub fn sweep_end_record(outcome: &SweepOutcome) -> Json {
    Json::obj()
        .with("type", Json::Str("sweep_end".into()))
        .with("runs", Json::U64(outcome.runs.len() as u64))
        .with("jobs", Json::U64(outcome.jobs as u64))
        .with("wall_seconds", Json::F64(outcome.wall_seconds))
        .with("serial_seconds", Json::F64(outcome.serial_seconds()))
}

/// Runs the grid on `jobs` worker threads (clamped to the grid size;
/// `<= 1` runs inline on the caller's thread).
///
/// Determinism: each worker constructs its own `Machine` from the shared,
/// immutable spec/app table, so per-run statistics cannot depend on
/// scheduling; the merge below is by descriptor index, so the output order
/// cannot either.
pub fn run_sweep(spec: &SweepSpec, jobs: usize) -> SweepOutcome {
    run_sweep_with(spec, jobs, &mut |_| {})
}

/// [`run_sweep`] with a progress callback, invoked once per completed
/// run — always from the caller's thread (the merge loop), never from a
/// worker, so the callback needs no synchronization and arrives in
/// completion order.
pub fn run_sweep_with(
    spec: &SweepSpec,
    jobs: usize,
    on_run: &mut dyn FnMut(SweepProgress),
) -> SweepOutcome {
    let t0 = Instant::now();
    let apps = spec.generate_apps();
    let descs = spec.descriptors();
    let n = descs.len();
    let mut slots: Vec<Option<SweepRun>> = (0..n).map(|_| None).collect();
    let mut completed = 0usize;
    let workers = fan_out(
        n,
        jobs,
        |i| execute(descs[i].clone(), &apps, spec),
        |i, run| {
            completed += 1;
            let elapsed = t0.elapsed().as_secs_f64();
            on_run(SweepProgress {
                index: i,
                id: run.desc.id.clone(),
                cycles: run.stats.cycles,
                run_seconds: run.wall_seconds,
                completed,
                total: n,
                elapsed,
                eta: elapsed / completed as f64 * (n - completed) as f64,
            });
            slots[i] = Some(run);
        },
    );

    SweepOutcome {
        runs: slots
            .into_iter()
            .map(|slot| slot.expect("worker dropped a sweep job"))
            .collect(),
        jobs: workers,
        wall_seconds: t0.elapsed().as_secs_f64(),
        apps,
    }
}

/// The job pool under [`run_sweep_with`] and the `repro` driver: computes
/// `work(i)` for every `i < n` on `jobs` threads (clamped to `n`) and
/// hands each result to `done(i, result)` on the caller's thread, in
/// completion order. `jobs <= 1` spawns nothing and runs `0..n` inline.
/// Returns the worker count used.
///
/// `work` only borrows what the caller set up before the call, so a
/// result cannot depend on which worker computed it or when.
pub(crate) fn fan_out<T: Send>(
    n: usize,
    jobs: usize,
    work: impl Fn(usize) -> T + Sync,
    mut done: impl FnMut(usize, T),
) -> usize {
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        for i in 0..n {
            done(i, work(i));
        }
        return workers;
    }
    // Relaxed: the counter only hands out indices; everything `work`
    // reads was published by spawning the scope's threads.
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (tx, next, work) = (tx.clone(), &next, &work);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, work(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, result) in rx {
            done(i, result);
        }
    });
    workers
}

/// Builds the aggregated `scd-sweep/v1` document.
///
/// Everything except the `timing` section is a pure function of the grid,
/// so two sweeps of the same spec produce byte-identical text whatever
/// `--jobs` was. `include_timing` adds the wall-clock section (total,
/// serial-equivalent, speedup, per-run seconds) — inherently
/// non-deterministic, so determinism checks pass `false` (the CLI flag is
/// `--no-timing`).
pub fn sweep_document(outcome: &SweepOutcome, spec: &SweepSpec, include_timing: bool) -> Json {
    let grid = Json::obj()
        .with(
            "apps",
            Json::Arr(spec.apps.iter().map(|a| Json::Str(a.clone())).collect()),
        )
        .with(
            "schemes",
            Json::Arr(
                spec.schemes
                    .iter()
                    .map(|s| Json::Str(s.name(spec.clusters)))
                    .collect(),
            ),
        )
        .with(
            "sparse",
            Json::Arr(spec.sparse.iter().map(|v| Json::Str(v.spec())).collect()),
        )
        .with(
            "seeds",
            Json::Arr(spec.seeds.iter().map(|&s| Json::U64(s)).collect()),
        )
        .with("scale", Json::F64(spec.scale))
        .with("clusters", Json::U64(spec.clusters as u64))
        .with("runs", Json::U64(outcome.runs.len() as u64))
        .with(
            "protocols",
            Json::Arr(
                spec.protocols
                    .iter()
                    .map(|p| Json::Str(p.name().into()))
                    .collect(),
            ),
        );

    let runs = outcome
        .runs
        .iter()
        .map(|run| {
            let app = &outcome.apps[run.desc.app_idx];
            let meta = Json::obj()
                .with("id", Json::Str(run.desc.id.clone()))
                .with("app", Json::Str(app.name.into()))
                .with("scheme", Json::Str(run.desc.scheme_label.clone()))
                .with("sparse", Json::Str(run.desc.sparse.spec()))
                .with("protocol", Json::Str(run.desc.protocol.name().into()))
                .with("seed", Json::U64(run.desc.seed))
                .with("shared_refs", Json::U64(app.shared_refs()))
                .with("shared_bytes", Json::U64(app.shared_bytes));
            run.stats
                .to_json_document(Some(meta), None, run.attribution.clone(), run.trace.clone(), None)
        })
        .collect();

    let timing = if include_timing {
        // Host-side throughput: simulated work (shared references issued,
        // simulator events processed) per second of worker wall-clock.
        // These live in the timing section — not in the per-run stats
        // documents — precisely because they are host-dependent; the rest
        // of the document stays a pure function of the grid.
        let rate = |count: u64, secs: f64| {
            Json::F64(if secs > 0.0 { count as f64 / secs } else { 0.0 })
        };
        let per_run = outcome
            .runs
            .iter()
            .map(|run| {
                let refs = outcome.apps[run.desc.app_idx].shared_refs();
                let events = run.stats.events_delivered;
                Json::obj()
                    .with("id", Json::Str(run.desc.id.clone()))
                    .with("seconds", Json::F64(run.wall_seconds))
                    .with("refs_per_sec", rate(refs, run.wall_seconds))
                    .with("events_per_sec", rate(events, run.wall_seconds))
            })
            .collect();
        let serial = outcome.serial_seconds();
        let total_refs: u64 = outcome
            .runs
            .iter()
            .map(|run| outcome.apps[run.desc.app_idx].shared_refs())
            .sum();
        let total_events: u64 = outcome.runs.iter().map(|run| run.stats.events_delivered).sum();
        Json::obj()
            .with("jobs", Json::U64(outcome.jobs as u64))
            .with("wall_seconds", Json::F64(outcome.wall_seconds))
            .with("serial_seconds", Json::F64(serial))
            .with(
                "speedup",
                Json::F64(if outcome.wall_seconds > 0.0 {
                    serial / outcome.wall_seconds
                } else {
                    1.0
                }),
            )
            .with("refs_per_sec", rate(total_refs, serial))
            .with("events_per_sec", rate(total_events, serial))
            .with("runs", Json::Arr(per_run))
    } else {
        Json::Null
    };

    Json::obj()
        .with("schema", Json::Str(scd_trace::SWEEP_SCHEMA.into()))
        .with("grid", grid)
        .with("runs", Json::Arr(runs))
        .with("timing", timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_spec() -> SweepSpec {
        SweepSpec {
            apps: vec!["lu".into(), "mp3d".into()],
            schemes: vec![Scheme::dir_cv(2, 2), Scheme::dir_nb(2)],
            sparse: vec![
                SparseVariant::Full,
                SparseVariant::Sparse {
                    size_factor: 2,
                    ways: 2,
                    policy: Replacement::Lru,
                },
            ],
            seeds: vec![7],
            protocols: vec![ProtocolKind::Dash],
            scale: 0.02,
            clusters: 4,
            shards: 1,
        }
    }

    #[test]
    fn sparse_variant_spec_round_trips() {
        for spec in ["full", "2:4:rand", "1:8:lru", "4:2:lra"] {
            let v = SparseVariant::parse(spec).unwrap();
            assert_eq!(v.spec(), spec);
            assert_eq!(SparseVariant::parse(&v.spec()).unwrap(), v);
        }
        assert!(SparseVariant::parse("0:4:rand").is_err(), "factor 0");
        assert!(SparseVariant::parse("2:0:rand").is_err(), "ways 0");
        assert!(SparseVariant::parse("2:4:fifo").is_err(), "bad policy");
        assert!(SparseVariant::parse("2:4").is_err(), "missing field");
    }

    #[test]
    fn canonical_sparse_keeps_trajectory_file_names() {
        let label = format!(
            "{}{}",
            Scheme::dir_cv(4, 4).name(32),
            CANONICAL_SPARSE.label_suffix()
        );
        assert_eq!(
            crate::runner::bench_json_name("mp3d", &label),
            "BENCH_mp3d_dir4cv4_sparse.json"
        );
        // Non-canonical variants must not collide with the canonical name.
        let other = SparseVariant::Sparse {
            size_factor: 4,
            ways: 8,
            policy: Replacement::Lru,
        };
        assert_eq!(other.label_suffix(), " Sparse 4x 8w lru");
    }

    #[test]
    fn descriptor_order_is_canonical_and_complete() {
        let spec = micro_spec();
        let descs = spec.descriptors();
        assert_eq!(
            descs.len(),
            spec.apps.len() * spec.schemes.len() * spec.sparse.len() * spec.seeds.len()
        );
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(d.index, i);
        }
        // Apps-outer ordering: the first half is all-LU.
        assert!(descs[..4].iter().all(|d| d.app == "lu"));
        assert!(descs[4..].iter().all(|d| d.app == "mp3d"));
        assert_eq!(descs[0].id, "lu/dir2cv2/s7");
        assert_eq!(descs[1].id, "lu/dir2cv2_sparse_2x_2w_lru/s7");
    }

    /// Multi-protocol grids multiply the descriptor list per protocol,
    /// give non-DASH points their own id segment, and stamp the grid and
    /// per-run meta with the protocol.
    #[test]
    fn protocol_axis_multiplies_the_grid_and_stamps_the_document() {
        let mut spec = micro_spec();
        spec.apps = vec!["lu".into()];
        spec.schemes = vec![Scheme::dir_cv(2, 2)];
        spec.sparse = vec![SparseVariant::Full];
        spec.protocols = vec![ProtocolKind::Dash, ProtocolKind::Tardis, ProtocolKind::Dls];
        let descs = spec.descriptors();
        assert_eq!(descs.len(), 3);
        assert_eq!(descs[0].id, "lu/dir2cv2/s7");
        assert_eq!(descs[1].id, "lu/tardis/dir2cv2/s7");
        assert_eq!(descs[2].id, "lu/dls/dir2cv2/s7");
        let outcome = run_sweep(&spec, 1);
        let doc = sweep_document(&outcome, &spec, false);
        let grid_protocols = doc.get("grid").unwrap().get("protocols").unwrap();
        assert_eq!(
            grid_protocols.as_arr().unwrap().len(),
            3,
            "grid must list the protocol axis"
        );
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        for (run, expect) in runs.iter().zip(["dash", "tardis", "dls"]) {
            assert_eq!(
                run.get("run").unwrap().get("protocol").and_then(Json::as_str),
                Some(expect)
            );
        }
        // All three ran the same reference stream: identical shared-ref
        // totals, protocol-specific traffic.
        let refs: Vec<u64> = outcome
            .runs
            .iter()
            .map(|r| r.stats.shared_reads + r.stats.shared_writes)
            .collect();
        assert_eq!(refs[0], refs[1]);
        assert_eq!(refs[0], refs[2]);
        assert!(outcome.runs[1].stats.tardis.is_some(), "tardis counters");
        assert!(outcome.runs[2].stats.dls.is_some(), "dls counters");
    }

    /// Only DASH reads the directory organization: Tardis and DLS run the
    /// full-directory points alone, and a grid of nothing else is empty.
    #[test]
    fn sparse_points_are_dash_only() {
        let mut spec = micro_spec();
        spec.protocols = vec![ProtocolKind::Dash, ProtocolKind::Tardis, ProtocolKind::Dls];
        let descs = spec.descriptors();
        // 2 apps x 2 schemes x (2 DASH variants + the full point of each other protocol).
        assert_eq!(descs.len(), 2 * 2 * 4);
        assert!(descs
            .iter()
            .all(|d| d.protocol == ProtocolKind::Dash || d.sparse == SparseVariant::Full));
        spec.protocols = vec![ProtocolKind::Tardis, ProtocolKind::Dls];
        spec.sparse.retain(|&v| v != SparseVariant::Full);
        assert!(spec.descriptors().is_empty());
    }

    /// The engine's core promise: the aggregated document (timing aside)
    /// is byte-identical however many workers ran the grid.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let spec = micro_spec();
        let serial = run_sweep(&spec, 1);
        let parallel = run_sweep(&spec, 3);
        assert_eq!(serial.jobs, 1);
        assert!(parallel.jobs > 1);
        let a = sweep_document(&serial, &spec, false).to_string();
        let b = sweep_document(&parallel, &spec, false).to_string();
        assert_eq!(a, b);
    }

    /// Progress callbacks arrive once per run with a monotone `completed`
    /// count, cover every descriptor index exactly once, and leave the
    /// deterministic document untouched.
    #[test]
    fn progress_callbacks_cover_the_grid_without_perturbing_the_document() {
        let spec = micro_spec();
        let baseline = sweep_document(&run_sweep(&spec, 1), &spec, false).to_string();
        for jobs in [1usize, 3] {
            let mut events: Vec<SweepProgress> = Vec::new();
            let outcome = run_sweep_with(&spec, jobs, &mut |p| events.push(p));
            let n = outcome.runs.len();
            assert_eq!(events.len(), n, "one callback per run (jobs={jobs})");
            let mut indices: Vec<usize> = events.iter().map(|p| p.index).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..n).collect::<Vec<_>>(), "jobs={jobs}");
            for (i, p) in events.iter().enumerate() {
                assert_eq!(p.completed, i + 1, "completion count is 1..=n");
                assert_eq!(p.total, n);
                assert_eq!(p.id, outcome.runs[p.index].desc.id);
                assert_eq!(p.cycles, outcome.runs[p.index].stats.cycles);
                assert!(p.elapsed >= 0.0 && p.eta >= 0.0);
                let j = p.to_json();
                assert_eq!(j.get("type").and_then(Json::as_str), Some("sweep_run"));
                assert_eq!(
                    j.get("completed").and_then(Json::as_u64),
                    Some((i + 1) as u64)
                );
                assert!(p.render().contains(&p.id));
            }
            // The last callback always reports a zero remaining estimate.
            assert_eq!(events.last().unwrap().eta, 0.0);
            assert_eq!(
                sweep_document(&outcome, &spec, false).to_string(),
                baseline,
                "progress observation must not perturb the document (jobs={jobs})"
            );
        }
    }

    #[test]
    fn sweep_stream_records_carry_grid_shape() {
        let spec = micro_spec();
        let begin = sweep_begin_record(&spec, 2);
        assert_eq!(begin.get("type").and_then(Json::as_str), Some("sweep_begin"));
        assert_eq!(
            begin.get("total").and_then(Json::as_u64),
            Some(spec.descriptors().len() as u64)
        );
        assert_eq!(begin.get("jobs").and_then(Json::as_u64), Some(2));
        let outcome = run_sweep(&spec, 2);
        let end = sweep_end_record(&outcome);
        assert_eq!(end.get("type").and_then(Json::as_str), Some("sweep_end"));
        assert_eq!(
            end.get("runs").and_then(Json::as_u64),
            Some(outcome.runs.len() as u64)
        );
        assert!(end.get("wall_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn timing_section_reports_speedup_inputs() {
        let spec = micro_spec();
        let outcome = run_sweep(&spec, 2);
        let doc = sweep_document(&outcome, &spec, true);
        let timing = doc.get("timing").unwrap();
        assert_eq!(timing.get("jobs").and_then(Json::as_u64), Some(2));
        assert!(timing.get("wall_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            timing.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(outcome.runs.len())
        );
        // Throughput rates: present in aggregate and per run, and positive
        // (every grid point issues shared references and pops events).
        assert!(timing.get("refs_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(timing.get("events_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        for run in timing.get("runs").and_then(Json::as_arr).unwrap() {
            assert!(run.get("refs_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(run.get("events_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        }
        // And the deterministic variant nulls the whole section out.
        let bare = sweep_document(&outcome, &spec, false);
        assert_eq!(bare.get("timing"), Some(&Json::Null));
    }
}
