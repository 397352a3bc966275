//! The paper's headline qualitative claims, twice: simulated end-to-end at
//! reduced scale (the fast shadow), and read off the committed full-scale
//! `results/*.csv`, which `tests/gates.rs` holds equal to what the code
//! generates at scale 1.0 (the `full_scale_*` tests; no simulation). And
//! the parts of those CSVs tier-1 can hold without simulating: Table 1
//! regenerated, the replacement policies' victim rules, Figure 2's stream.

use std::path::Path;

use bench::repro::{check, regenerate, ARTIFACTS};
use scd::apps::{dwf, locusroute, lu, mp3d, DwfParams, LocusRouteParams, LuParams, Mp3dParams};
use scd::core::analysis::{average_invalidations, dir_b_exact, extraneous_area, invalidation_curve};
use scd::core::sparse::Allocation;
use scd::core::{
    overhead, AddSharer, DirectoryChoice, MachineSpec, Replacement, Scheme, SparseDirectory,
};
use scd::machine::{Machine, MachineConfig, RunStats};
use scd::sim::SimRng;

const PROCS: usize = 32;
const SEED: u64 = bench::RUN_SEED;

fn run(app: &scd::apps::AppRun, scheme: Scheme) -> RunStats {
    let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
    cfg.check_invariants = true;
    Machine::new(cfg, app.scripts()).run()
}

#[test]
fn claim_fig2_coarse_vector_beats_broadcast_and_superset() {
    // "the proposed scheme is at least as good as the limited pointer
    // scheme with broadcast" and Dir3X "is only marginally better than the
    // broadcast scheme".
    let p = 32;
    let ev = 2_000;
    let cv = extraneous_area(&invalidation_curve(Scheme::dir_cv(3, 2), p, ev, 1));
    let x = extraneous_area(&invalidation_curve(Scheme::dir_x(3), p, ev, 1));
    let b = extraneous_area(&invalidation_curve(Scheme::dir_b(3), p, ev, 1));
    assert!(cv < x && x < b);
    assert!(b - x < 0.2 * b, "X is only marginally better than B");
    assert!(cv < 0.5 * b, "CV has a much smaller extraneous area");
    // Broadcast goes straight to P-2 past the pointer count.
    assert_eq!(average_invalidations(Scheme::dir_b(3), p, 4, 500, 2), 30.0);
}

/// Figure 2's Monte Carlo draws from `SimRng::seeded`, and tier-1 does
/// not regenerate `fig2*.csv`: these are the first eight outputs of the
/// stream that generated them, so a drift in the seed scramble or the
/// generator fails here.
#[test]
fn the_figure_2_stream_is_pinned() {
    let pinned: [(u64, [u64; 8]); 3] = [
        (0, [
            0x7BBC_B40D_5506_82D0, 0xDE7F_E413_D00C_C9FD, 0xB3C6_3835_3C66_8C91, 0xE073_AFC0_9491_95FC,
            0x7F2F_9E2E_B349_37F6, 0x6EF8_6054_C473_1F4F, 0x4109_26D7_BB41_0255, 0x0CF7_5540_849D_9C3B,
        ]),
        (1, [
            0x4B46_A55D_F361_1B9B, 0xD7E1_F141_0E76_3EF4, 0x5F14_EC66_975F_9B06, 0x3B2C_74FA_D44D_6CDB,
            0xDBEA_40D6_0760_F050, 0x0086_45CA_872E_0CD2, 0x203E_7E0C_16E8_A44F, 0x966D_F4A8_11C5_3476,
        ]),
        (SEED, [
            0x4F2D_8D4E_ADA7_6487, 0x2E4C_D05F_0ACF_055E, 0x57F6_25C4_CC7F_5AE4, 0xCC0B_F245_4592_6E38,
            0x965D_EBAD_6F05_1024, 0xE0C0_340C_DD33_0FC2, 0xFF69_25B9_624B_2FC8, 0x5CFD_2CFB_FFD4_7EFD,
        ]),
    ];
    for (seed, outputs) in pinned {
        let mut rng = SimRng::seeded(seed);
        assert_eq!(outputs.map(|_| rng.next_u64()), outputs, "seed {seed:#x}");
    }
}

/// Mean and variance of the invalidations a `Dir_i CV_r` write sends once
/// its `s > i` sharers have overflowed into region bits, on `p` clusters,
/// over the Figure 2 model's placement (`crates/core/src/analysis.rs`):
/// home `h` and writer `w != h` uniform, the sharers a uniform `s`-subset
/// of the other `p - 2`. A region `g` with `m_g` members other than `w`
/// and `h` sends `m_g` invalidations exactly when it holds a sharer, and
/// holds none with probability `C(p-2-m_g, s) / C(p-2, s)`; so the mean is
/// `Σ_c [1 - C(p-2-m_c, s) / C(p-2, s)]` over the clusters `c ∉ {w, h}`.
fn coarse_vector_moments(p: usize, r: usize, s: usize) -> (f64, f64) {
    let n = p - 2;
    // P(none of k given eligible clusters is a sharer) = C(n-k, s) / C(n, s).
    let miss = |k: usize| -> f64 {
        (0..s).map(|j| (n - k).saturating_sub(j) as f64 / (n - j) as f64).product()
    };
    let moments = |m: &[usize]| -> (f64, f64) {
        let (mut mean, mut square) = (0.0, 0.0);
        for (g, &a) in m.iter().enumerate() {
            mean += a as f64 * (1.0 - miss(a));
            for (h, &b) in m.iter().enumerate() {
                let both = if g == h { 1.0 - miss(a) } else { 1.0 - miss(a) - miss(b) + miss(a + b) };
                square += (a * b) as f64 * both;
            }
        }
        (mean, square)
    };
    // Writer and home share a region with probability (r-1)/(p-1).
    let same = (r - 1) as f64 / (p - 1) as f64;
    let mut one = vec![r; p / r];
    one[0] = r - 2;
    let mut two = vec![r; p / r];
    two[0] = r - 1;
    two[1] = r - 1;
    let (m1, q1) = moments(&one);
    let (m2, q2) = moments(&two);
    let mean = same * m1 + (1.0 - same) * m2;
    (mean, same * q1 + (1.0 - same) * q2 - mean * mean)
}

/// Figure 2's committed points against the closed form, row by row:
/// `Dir` is `s` and `Dir3B` is `dir_b_exact` exactly, and each coarse
/// vector point lies within 4 standard errors of its exact expectation
/// (over `MODEL_EVENTS` events) plus the CSV's 5e-5 rounding. `Dir3X` has
/// no closed form; the ordering claims above hold it.
#[test]
fn fig2_points_match_the_closed_form() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for (file, p, cv, r) in [("fig2a.csv", 32, "Dir3CV2", 2), ("fig2b.csv", 64, "Dir3CV4", 4)] {
        let text = std::fs::read_to_string(root.join(file)).expect("a committed CSV");
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().expect("a header").split(',').collect();
        let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
        let rows: Vec<Vec<f64>> = lines
            .map(|l| l.split(',').map(|c| c.parse().expect("a number")).collect())
            .collect();
        assert_eq!(rows.len(), p - 1, "{file}: one row per sharer count 0..=p-2");
        for row in &rows {
            let s = row[col("sharers")] as usize;
            assert_eq!(row[col("Dir")], s as f64, "{file} s={s}: Dir");
            assert_eq!(row[col("Dir3B")], dir_b_exact(3, p, s), "{file} s={s}: Dir3B");
            let (mean, var) = if s <= 3 { (s as f64, 0.0) } else { coarse_vector_moments(p, r, s) };
            let band = 4.0 * (var / bench::repro::MODEL_EVENTS as f64).sqrt() + 5e-5;
            let got = row[col(cv)];
            assert!((got - mean).abs() <= band, "{file} s={s}: {cv} {got} vs {mean:.4} ± {band:.4}");
        }
    }
}

#[test]
fn claim_lu_punishes_non_broadcast() {
    // "In LU each matrix column is read by all processors just after the
    // pivot step... Dir NB does very poorly": greatly increased requests,
    // replies, invalidations and acknowledgements.
    let app = lu(&LuParams { n: 32, update_cost: 4 }, PROCS, SEED);
    let full = run(&app, Scheme::FullVector);
    let nb = run(&app, Scheme::dir_nb(3));
    let b = run(&app, Scheme::dir_b(3));
    assert!(
        nb.traffic.total() as f64 > 1.4 * full.traffic.total() as f64,
        "nb={} full={}",
        nb.traffic.total(),
        full.traffic.total()
    );
    assert!(nb.cycles > full.cycles);
    // Broadcast and full vector are nearly indistinguishable for LU.
    assert!(
        (b.traffic.total() as f64 - full.traffic.total() as f64).abs()
            < 0.05 * full.traffic.total() as f64
    );
}

#[test]
fn claim_mp3d_is_easy_for_every_scheme() {
    // "This sharing pattern causes an invalidation distribution that all
    // schemes can handle well... even the non-broadcast scheme takes only
    // .4% longer to run."
    let app = mp3d(&Mp3dParams::scaled(0.3), PROCS, SEED);
    let full = run(&app, Scheme::FullVector);
    for scheme in [Scheme::dir_cv(3, 2), Scheme::dir_b(3), Scheme::dir_nb(3)] {
        let s = run(&app, scheme);
        let ratio = s.cycles as f64 / full.cycles as f64;
        assert!(
            (0.99..1.02).contains(&ratio),
            "{scheme:?}: {ratio} should be within 2% of full vector"
        );
    }
}

#[test]
fn claim_locusroute_broadcast_blowup_and_nb_over_b() {
    // "LocusRoute is interesting in that it is the only application in
    // which the Dir NB scheme outperforms Dir B."
    let app = locusroute(&LocusRouteParams::scaled(0.4), PROCS, SEED);
    let full = run(&app, Scheme::FullVector);
    let cv = run(&app, Scheme::dir_cv(3, 2));
    let b = run(&app, Scheme::dir_b(3));
    let nb = run(&app, Scheme::dir_nb(3));
    assert!(
        b.traffic.total() as f64 > 1.8 * full.traffic.total() as f64,
        "broadcast must blow up traffic"
    );
    assert!(nb.traffic.total() < b.traffic.total(), "NB beats B here");
    // CV stays close to full vector in traffic (paper: ~12% worst case).
    let cv_ratio = cv.traffic.total() as f64 / full.traffic.total() as f64;
    assert!(cv_ratio < 1.25, "cv_ratio={cv_ratio}");
    // And CV is the best limited scheme by execution time.
    assert!(cv.cycles <= b.cycles && cv.cycles <= nb.cycles);
}

#[test]
fn claim_broadcast_sends_the_most_on_locusroute_at_eight_clusters() {
    // The same ordering on a machine a quarter the size: one workload,
    // three memory systems, and broadcast still sends the most messages.
    let app = locusroute(&LocusRouteParams::scaled(0.15), 8, 5);
    let totals: Vec<u64> = [Scheme::FullVector, Scheme::dir_b(2), Scheme::dir_cv(2, 2)]
        .map(|scheme| {
            let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
            cfg.clusters = 8;
            Machine::new(cfg, app.scripts()).run().traffic.total()
        })
        .into();
    assert!(totals[1] > totals[0]);
    assert!(totals[1] > totals[2]);
}

#[test]
fn claim_coarse_vector_is_robust_across_all_apps() {
    // "the coarse vector scheme always does at least as well as all other
    // limited-pointer schemes and is much more robust... its performance is
    // always closest to the full bit vector scheme."
    let apps = [
        lu(&LuParams { n: 32, update_cost: 4 }, PROCS, SEED),
        dwf(&DwfParams::scaled(0.3), PROCS, SEED),
        mp3d(&Mp3dParams::scaled(0.25), PROCS, SEED),
        locusroute(&LocusRouteParams::scaled(0.3), PROCS, SEED),
    ];
    for app in &apps {
        let full = run(app, Scheme::FullVector);
        let cv = run(app, Scheme::dir_cv(3, 2));
        let b = run(app, Scheme::dir_b(3));
        let nb = run(app, Scheme::dir_nb(3));
        let time = |s: &RunStats| s.cycles as f64 / full.cycles as f64;
        assert!(
            time(&cv) <= time(&b) + 0.01 && time(&cv) <= time(&nb) + 0.01,
            "{}: cv={} b={} nb={}",
            app.name,
            cv.cycles,
            b.cycles,
            nb.cycles
        );
        assert!(
            time(&cv) < 1.10,
            "{}: coarse vector within 10% of full vector",
            app.name
        );
    }
}

#[test]
fn claim_sparse_directories_cost_little_time() {
    // "even directories with the same size as the processor caches perform
    // well. The worst case application (LU) shows only a 1.4% increase...";
    // we allow a few percent at our scale.
    let app = lu(&LuParams { n: 48, update_cost: 4 }, PROCS, SEED);
    let dataset_blocks = (app.shared_bytes / 16) as usize;
    let base = MachineConfig::paper_32().with_scaled_caches((dataset_blocks / 8).max(256));
    let baseline = Machine::new(base.clone(), app.scripts()).run();
    for factor in [1usize, 2, 4] {
        let per_home = (base.total_cache_blocks() * factor / base.clusters)
            .div_ceil(4)
            * 4;
        let mut cfg = base
            .clone()
            .with_sparse(per_home.max(4), 4, Replacement::Random);
        cfg.check_invariants = true;
        let stats = Machine::new(cfg, app.scripts()).run();
        let ratio = stats.cycles as f64 / baseline.cycles as f64;
        assert!(
            ratio < 1.06,
            "size factor {factor}: exec time ratio {ratio} too high"
        );
        assert!(stats.sparse.unwrap().replacements > 0 || factor > 1);
    }
}

#[test]
fn claim_sparse_storage_savings_one_to_two_orders() {
    // "sparse directories coupled with coarse vectors can save one to two
    // orders of magnitude in storage."
    let spec = MachineSpec::paper_defaults(64); // 256 processors
    let complete_full = overhead(
        &spec,
        &DirectoryChoice {
            scheme: Scheme::FullVector,
            sparsity: 1,
        },
    );
    let sparse_cv = overhead(
        &spec,
        &DirectoryChoice {
            scheme: Scheme::dir_cv_auto(3, 64),
            sparsity: 16,
        },
    );
    let ratio = complete_full.total_bits as f64 / sparse_cv.total_bits as f64;
    assert!(
        (10.0..200.0).contains(&ratio),
        "storage savings {ratio} should be 1-2 orders of magnitude"
    );
}

#[test]
fn claim_dash_prototype_overhead() {
    // "the corresponding directory memory overhead is 17 bits per 16 byte
    // main memory block, i.e., 13.3%."
    let r = overhead(
        &MachineSpec::paper_defaults(16),
        &DirectoryChoice {
            scheme: Scheme::FullVector,
            sparsity: 1,
        },
    );
    assert_eq!(r.entry_bits, 17);
    assert!((r.overhead * 100.0 - 13.3).abs() < 0.05);
}

/// Table 1 is arithmetic, so tier-1 regenerates it: a lost state bit
/// (the coarse vector's mode bit, say) changes its `entry_bits` column.
#[test]
fn table1_is_what_this_build_generates() {
    let table1 = ARTIFACTS.iter().find(|a| a.name == "table1").expect("a table1 artifact");
    let out = regenerate(&[table1], 1.0, 1);
    assert_eq!(out.simulated, 0, "Table 1 needs no simulation");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let differences = check(&results, &out.sheets);
    assert!(differences.is_empty(), "{}", differences.join("\n"));
}

/// A two-way, one-set sparse directory holding keys 1 and 2, allocated at
/// `times`, each with a sharer so that neither slot counts as free.
fn full_set(policy: Replacement, times: [u64; 2]) -> SparseDirectory {
    let mut d = SparseDirectory::new(Scheme::dir_n(), PROCS, 2, 2, policy, 1);
    for (key, now) in [1, 2].into_iter().zip(times) {
        match d.allocate(key, now) {
            Allocation::Inserted(e) => assert_eq!(e.add_sharer(0), AddSharer::Recorded),
            _ => panic!("an empty set takes key {key}"),
        }
    }
    d
}

fn victim(d: &mut SparseDirectory, key: u64, now: u64) -> u64 {
    match d.allocate(key, now) {
        Allocation::Replaced { victim_key, .. } => victim_key,
        _ => panic!("a full set replaces"),
    }
}

/// §6.3.2's LRA is replacement by age of allocation, not of use: the
/// entry allocated first goes even when it was used last.
#[test]
fn lra_evicts_the_oldest_allocation_even_when_just_used() {
    for (policy, evicted) in [(Replacement::Lra, 1), (Replacement::Lru, 2)] {
        let mut d = full_set(policy, [0, 1]);
        assert!(d.lookup(1, 2).is_some());
        assert_eq!(victim(&mut d, 3, 3), evicted, "{policy:?}");
    }
}

/// Equal recency leaves the choice to way order, and Figure 14 was
/// generated with ties going to the lowest way.
#[test]
fn lru_and_lra_ties_go_to_the_lowest_way() {
    for policy in [Replacement::Lru, Replacement::Lra] {
        let mut d = full_set(policy, [5, 5]);
        assert_eq!(victim(&mut d, 3, 6), 1, "{policy:?}");
    }
}

#[test]
fn claim_associativity_helps_and_lra_is_worst() {
    // §6.3.2: higher associativity (weakly) reduces traffic; LRU and random
    // beat LRA.
    let app = lu(&LuParams { n: 48, update_cost: 4 }, PROCS, SEED);
    let dataset_blocks = (app.shared_bytes / 16) as usize;
    let base = MachineConfig::paper_32().with_scaled_caches((dataset_blocks / 8).max(256));
    let per_home = (base.total_cache_blocks() / base.clusters).div_ceil(4) * 4;

    let run_with = |ways: usize, policy: Replacement| {
        let entries = per_home.div_ceil(ways) * ways;
        let cfg = base.clone().with_sparse(entries.max(ways), ways, policy);
        Machine::new(cfg, app.scripts()).run().traffic.total()
    };
    let a1 = run_with(1, Replacement::Random);
    let a4 = run_with(4, Replacement::Random);
    assert!(
        a4 as f64 <= a1 as f64 * 1.02,
        "assoc 4 ({a4}) should not lose to direct-mapped ({a1})"
    );
    let lru = run_with(4, Replacement::Lru);
    let lra = run_with(4, Replacement::Lra);
    assert!(
        lru as f64 <= lra as f64 * 1.03,
        "LRU ({lru}) should not lose to LRA ({lra})"
    );
}

/// One committed `results/` file: header names and rows of cells.
struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    fn load(name: &str) -> Csv {
        let path = format!("{}/results/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(String::from).collect());
        Csv {
            header: lines.next().expect("a header line"),
            rows: lines.collect(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    }

    /// `column` of the one row whose leading cells are `key`.
    fn num(&self, key: &[&str], column: &str) -> f64 {
        let mut hits = self
            .rows
            .iter()
            .filter(|r| r.iter().zip(key).all(|(c, k)| c == k));
        let row = hits.next().unwrap_or_else(|| panic!("no row {key:?}"));
        assert!(hits.next().is_none(), "{key:?} names several rows");
        row[self.col(column)].parse().unwrap()
    }
}

const APPS: [&str; 4] = ["LU", "DWF", "MP3D", "LocusRoute"];

#[test]
fn full_scale_figures_7_to_10_have_the_papers_shape() {
    let fig = Csv::load("fig7_10.csv");
    let time = |app, scheme| fig.num(&[app, scheme], "norm_time");
    let msgs = |app, scheme| fig.num(&[app, scheme], "norm_traffic");
    for app in APPS {
        // "the coarse vector scheme ... is always within a fraction of a
        // percent of the full vector", and never loses to broadcast.
        assert!((time(app, "Coarse Vector") - 1.0).abs() <= 0.005, "{app}");
        assert!(
            time(app, "Coarse Vector") <= time(app, "Broadcast"),
            "{app}"
        );
        assert!(
            msgs(app, "Coarse Vector") <= msgs(app, "Broadcast"),
            "{app}"
        );
    }
    // LU: every processor reads the pivot column, so Dir3NB thrashes.
    assert!(time("LU", "Non Broadcast") >= 1.3);
    assert!(msgs("LU", "Non Broadcast") >= 2.5);
    // LocusRoute: broadcasts blow the traffic up, and it is the one
    // application where NB sends fewer messages than B.
    assert!(msgs("LocusRoute", "Broadcast") >= 2.0);
    assert!(msgs("LocusRoute", "Non Broadcast") < msgs("LocusRoute", "Broadcast"));
    // MP3D: mostly pairwise sharing, which every scheme handles.
    for scheme in ["Coarse Vector", "Broadcast", "Non Broadcast"] {
        assert!((time("MP3D", scheme) - 1.0).abs() <= 0.005, "{scheme}");
        assert!((msgs("MP3D", scheme) - 1.0).abs() <= 0.005, "{scheme}");
    }
}

#[test]
fn full_scale_sparse_directories_cost_little_and_degrade_gracefully() {
    let fig = Csv::load("fig11_12.csv");
    for figure in ["Figure 11 (LU)", "Figure 12 (DWF)"] {
        for scheme in ["full bit vector", "coarse vector", "broadcast"] {
            let time = |factor| fig.num(&[figure, scheme, factor], "norm_time");
            // Size factor 4 is within 2% of a complete directory of the
            // same scheme, and time only grows as the directory shrinks.
            assert!(time("4") <= time("0") * 1.02, "{figure} {scheme}");
            assert!(time("0") <= time("4"), "{figure} {scheme}");
            assert!(
                time("4") <= time("2") && time("2") <= time("1"),
                "{figure} {scheme}"
            );
        }
    }
}

#[test]
fn full_scale_associativity_helps_and_lra_is_worst_when_tight() {
    let fig13 = Csv::load("fig13.csv");
    for factor in ["1", "2", "4"] {
        let traffic = |ways| fig13.num(&[factor, ways], "norm_traffic");
        assert!(
            traffic("1") >= traffic("2") && traffic("2") >= traffic("4"),
            "factor {factor}"
        );
    }
    let fig14 = Csv::load("fig14.csv");
    let traffic = |policy| fig14.num(&["1", policy], "norm_traffic");
    assert!(traffic("LRA") > traffic("LRU") && traffic("LRA") > traffic("Rand"));
}
