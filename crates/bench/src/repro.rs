//! The `repro` driver: one table of every artifact under `results/`.
//!
//! Each [`Artifact`] names its CSV file(s), lists the `(app, machine)`
//! points it needs, and turns the finished runs into [`Sheet`]s — rows
//! that render both as the CSV text and as the aligned table `repro`
//! prints. [`regenerate`] plans every requested artifact first, so a point
//! several artifacts share (the four applications under [`scheme_suite`]
//! on `paper_32` feed Table 2, Figures 3–10, the anatomy table and four
//! ablations) is simulated once, and runs the unique points on the sweep
//! engine's pool. [`check`] compares regenerated sheets with the files
//! committed under `results/`; `repro --check` and `tests/gates.rs` are
//! that comparison, which is what holds the reproduction.

use std::path::Path;

use scd_apps::{synth, AppRun, LuParams, SharingPattern, SynthParams};
use scd_core::analysis::{average_invalidations, invalidation_curve};
use scd_core::overhead::table1_rows;
use scd_core::{overhead, DirectoryChoice, MachineSpec, Replacement, Scheme};
use scd_machine::{MachineConfig, RunStats};
use scd_stats::MessageClass::{Acknowledgement, Invalidation, Reply, Request};
use scd_stats::{render_table, Align};
use scd_tango::Op;

use crate::runner::{run_app_with, scheme_suite, sparse_config};
use crate::sweep::{fan_out, generate_app, RUN_SEED};

/// Seed of the Figure 2 Monte-Carlo model (and, offset by the sharer
/// count, of the synthetic workloads that cross-check it).
const MODEL_SEED: u64 = 0xF162;
/// Monte-Carlo events per Figure 2 point.
pub const MODEL_EVENTS: usize = 20_000;

/// A row, or the leading cells of one, from anything that prints.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// The rows of one `results/*.csv` file.
pub struct Sheet {
    /// File name under `results/`.
    pub file: &'static str,
    /// What the rows are (printed above the table).
    pub title: String,
    /// Column names: the CSV header line.
    pub header: Vec<&'static str>,
    /// One vector of cells per row, as wide as `header`.
    pub rows: Vec<Vec<String>>,
}

impl Sheet {
    /// The file's bytes: header line, then one comma-joined line per row.
    pub fn csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// The same rows as an aligned table under the title; columns holding
    /// anything but numbers are left-justified.
    pub fn table(&self) -> String {
        let aligns: Vec<Align> = (0..self.header.len())
            .map(|c| {
                if self.rows.iter().all(|r| r[c].parse::<f64>().is_ok()) {
                    Align::Right
                } else {
                    Align::Left
                }
            })
            .collect();
        format!(
            "{} [{}]\n\n{}",
            self.title,
            self.file,
            render_table(&self.header, &aligns, &self.rows)
        )
    }
}

/// Which reference program a point runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AppKey {
    /// LU on an `n x n` matrix for `procs` processors.
    Lu { n: usize, procs: usize },
    /// DWF, MP3D or LocusRoute (a [`crate::APP_NAMES`] key) at the run's
    /// scale, 32 processors.
    Paper(&'static str),
    /// 512 blocks each read by exactly `sharers` processors, then
    /// written once: the event Figure 2's model counts.
    WideRead { sharers: usize },
    /// 32 processors each taking one lock 40 times.
    ContendedLock,
}

/// Lock acquisitions per processor in [`AppKey::ContendedLock`].
const LOCK_ITERS: usize = 40;

fn generate(key: AppKey, scale: f64) -> AppRun {
    match key {
        AppKey::Lu { n, procs } => scd_apps::lu(
            &LuParams {
                n,
                ..LuParams::default()
            },
            procs,
            RUN_SEED,
        ),
        AppKey::Paper(name) => generate_app(name, 32, RUN_SEED, scale).expect("a key from APP_NAMES"),
        AppKey::WideRead { sharers } => synth(
            &SynthParams {
                pattern: SharingPattern::WideRead { sharers },
                // One round over many fresh blocks: every block is written
                // exactly once, with its sharer set exactly as constructed
                // (a second round would leave the previous owner as an
                // extra recorded sharer).
                blocks: 512,
                rounds: 1,
            },
            32,
            MODEL_SEED + sharers as u64,
        ),
        AppKey::ContendedLock => {
            let critical_section = [
                Op::Lock(0),
                Op::Read(0),
                Op::Compute(20),
                Op::Write(0),
                Op::Unlock(0),
            ];
            let ops: Vec<Op> = (0..LOCK_ITERS).flat_map(|_| critical_section).collect();
            AppRun::new("queue-lock", vec![ops; 32], 16)
        }
    }
}

/// The points of every requested artifact, each app and each
/// `(app, machine)` pair held once.
struct Plan {
    scale: f64,
    apps: Vec<(AppKey, AppRun)>,
    points: Vec<(usize, MachineConfig)>,
}

/// One run an artifact asked for: the cells that name it in the
/// artifact's rows, and an index into [`Plan::points`].
struct Want {
    labels: Vec<String>,
    point: usize,
}

impl Plan {
    /// The app for `key`, generated on first use.
    fn app(&mut self, key: AppKey) -> usize {
        if let Some(i) = self.apps.iter().position(|(k, _)| *k == key) {
            return i;
        }
        self.apps.push((key, generate(key, self.scale)));
        self.apps.len() - 1
    }

    fn run(&self, app: usize) -> &AppRun {
        &self.apps[app].1
    }

    /// Asks for `app` on `cfg`; an identical earlier request is reused.
    fn want(&mut self, labels: Vec<String>, app: usize, cfg: MachineConfig) -> Want {
        let point = self
            .points
            .iter()
            .position(|(a, c)| *a == app && *c == cfg)
            .unwrap_or_else(|| {
                self.points.push((app, cfg));
                self.points.len() - 1
            });
        Want { labels, point }
    }

    /// LU, DWF, MP3D, LocusRoute at the run's scale: Table 2's order, and
    /// Figures 7, 8, 9, 10.
    fn paper_apps(&mut self) -> [usize; 4] {
        let n = LuParams::scaled(self.scale).n;
        [
            self.app(AppKey::Lu { n, procs: 32 }),
            self.app(AppKey::Paper("dwf")),
            self.app(AppKey::Paper("mp3d")),
            self.app(AppKey::Paper("locusroute")),
        ]
    }

    /// The larger LU of the sparse-directory experiments (§6.3), sized so
    /// replacements matter.
    fn sparse_lu(&mut self) -> usize {
        let n = (96.0 * self.scale).round().max(16.0) as usize;
        self.app(AppKey::Lu { n, procs: 32 })
    }

    /// `app` under each of `schemes` on the otherwise-`paper_32` machine,
    /// labelled with the app's and the scheme's name.
    fn per_scheme<L: ToString>(
        &mut self,
        app: usize,
        schemes: impl IntoIterator<Item = (L, Scheme)>,
    ) -> Vec<Want> {
        schemes
            .into_iter()
            .map(|(scheme_name, scheme)| {
                let labels = cells![self.run(app).name, scheme_name];
                self.want(labels, app, MachineConfig::paper_32().with_scheme(scheme))
            })
            .collect()
    }

    /// The paper's four applications, each under [`scheme_suite`].
    fn suite_points(&mut self) -> Vec<Want> {
        self.paper_apps()
            .into_iter()
            .flat_map(|app| self.per_scheme(app, scheme_suite()))
            .collect()
    }
}

/// One finished run, as an artifact's `sheets` function sees it.
struct Run<'a> {
    labels: &'a [String],
    app: &'a AppRun,
    cfg: &'a MachineConfig,
    stats: &'a RunStats,
}

impl Run<'_> {
    /// The run's labels followed by `measured`.
    fn row(&self, measured: Vec<String>) -> Vec<String> {
        [self.labels, measured.as_slice()].concat()
    }
}

/// One entry of the artifact table.
pub struct Artifact {
    /// Name on the `repro` command line.
    pub name: &'static str,
    /// The files it writes under `results/`.
    pub files: &'static [&'static str],
    /// What it reproduces.
    pub about: &'static str,
    /// The runs it needs, in the order `sheets` receives them.
    points: fn(&mut Plan) -> Vec<Want>,
    /// The finished runs as rows: one sheet per name in `files`, which it
    /// is handed.
    sheets: fn(&'static [&'static str], &[Run]) -> Vec<Sheet>,
}

/// Every artifact, in the order `repro` runs and prints them.
pub const ARTIFACTS: [Artifact; 19] = [
    Artifact {
        name: "fig2",
        files: &["fig2a.csv", "fig2b.csv"],
        about: "Figure 2a/2b: average invalidations vs sharers per scheme (Monte-Carlo model)",
        points: |_| Vec::new(),
        sheets: fig2,
    },
    Artifact {
        name: "table1",
        files: &["table1.csv"],
        about: "Table 1: sample machine configurations and directory memory overhead",
        points: |_| Vec::new(),
        sheets: table1,
    },
    Artifact {
        name: "table2",
        files: &["table2.csv"],
        about: "Table 2: application characteristics (full caches, non-sparse Dir32)",
        points: |plan| {
            plan.paper_apps()
                .into_iter()
                .map(|app| plan.want(cells![plan.run(app).name], app, MachineConfig::paper_32()))
                .collect()
        },
        sheets: table2,
    },
    Artifact {
        name: "fig3_6",
        files: &["figure3.csv", "figure4.csv", "figure5.csv", "figure6.csv"],
        about: "Figures 3-6: LocusRoute invalidation distributions under Dir32, Dir3NB, Dir3B, Dir3CV2",
        points: |plan| {
            let locusroute = plan.paper_apps()[3];
            plan.per_scheme(
                locusroute,
                [
                    ("Dir32 (full bit vector)", Scheme::dir_n()),
                    ("Dir3NB", Scheme::dir_nb(3)),
                    ("Dir3B", Scheme::dir_b(3)),
                    ("Dir3CV2", Scheme::dir_cv(3, 2)),
                ],
            )
        },
        sheets: fig3_6,
    },
    Artifact {
        name: "fig7_10",
        files: &["fig7_10.csv"],
        about: "Figures 7-10: execution time and message traffic per scheme, LU/DWF/MP3D/LocusRoute",
        points: Plan::suite_points,
        sheets: fig7_10,
    },
    Artifact {
        name: "fig11_12",
        files: &["fig11_12.csv"],
        about: "Figures 11/12: sparse directory size factors 4, 2, 1 vs non-sparse, LU and DWF (4-way, random)",
        points: |plan| {
            let apps = [plan.sparse_lu(), plan.app(AppKey::Paper("dwf"))];
            let mut wants = Vec::new();
            for (fig, app) in ["Figure 11 (LU)", "Figure 12 (DWF)"].into_iter().zip(apps) {
                // Each figure's first point, non-sparse full vector, is
                // what its times are normalized to.
                for (name, scheme) in [
                    ("full bit vector", Scheme::FullVector),
                    ("coarse vector", Scheme::dir_cv(3, 2)),
                    ("broadcast", Scheme::dir_b(3)),
                ] {
                    for factor in [0, 4, 2, 1] {
                        let cfg =
                            sparse_config(plan.run(app), scheme, factor, 4, Replacement::Random);
                        wants.push(plan.want(cells![fig, name, factor], app, cfg));
                    }
                }
            }
            wants
        },
        sheets: fig11_12,
    },
    Artifact {
        name: "fig13",
        files: &["fig13.csv"],
        about: "Figure 13: sparse directory associativity 1, 2, 4 vs traffic (LU, Dir32, random)",
        points: |plan| {
            let lu = plan.sparse_lu();
            let mut wants = vec![sparse_base(plan, lu)];
            for factor in [1, 2, 4] {
                for ways in [1, 2, 4] {
                    let (scheme, policy) = (Scheme::FullVector, Replacement::Random);
                    let cfg = sparse_config(plan.run(lu), scheme, factor, ways, policy);
                    wants.push(plan.want(cells![factor, ways], lu, cfg));
                }
            }
            wants
        },
        sheets: |files, runs| {
            vec![sparse_traffic(
                files[0],
                "Figure 13: effect of associativity in sparse directory (LU, Dir32)",
                "assoc",
                runs,
            )]
        },
    },
    Artifact {
        name: "fig14",
        files: &["fig14.csv"],
        about: "Figure 14: sparse directory replacement policy LRU/Rand/LRA vs traffic (LU, Dir32, 4-way)",
        points: |plan| {
            let lu = plan.sparse_lu();
            let mut wants = vec![sparse_base(plan, lu)];
            for factor in [1, 2, 4] {
                for (name, policy) in [
                    ("LRU", Replacement::Lru),
                    ("Rand", Replacement::Random),
                    ("LRA", Replacement::Lra),
                ] {
                    let cfg = sparse_config(plan.run(lu), Scheme::FullVector, factor, 4, policy);
                    wants.push(plan.want(cells![factor, name], lu, cfg));
                }
            }
            wants
        },
        sheets: |files, runs| {
            vec![sparse_traffic(
                files[0],
                "Figure 14: effect of replacement policies in sparse directory (LU, Dir32, 4-way)",
                "policy",
                runs,
            )]
        },
    },
    Artifact {
        name: "fig2_machine",
        files: &["fig2_machine.csv"],
        about: "Figure 2 cross-check: the Monte-Carlo model vs the full machine on exact-sharer-count writes",
        points: |plan| {
            let mut wants = Vec::new();
            for sharers in [1, 2, 3, 4, 6, 8, 12, 16, 24, 30] {
                let app = plan.app(AppKey::WideRead { sharers });
                for (name, scheme) in [
                    ("Dir32", Scheme::FullVector),
                    ("Dir3B", Scheme::dir_b(3)),
                    ("Dir3CV2", Scheme::dir_cv(3, 2)),
                ] {
                    let cfg = MachineConfig::paper_32().with_scheme(scheme);
                    wants.push(plan.want(cells![sharers, name], app, cfg));
                }
            }
            wants
        },
        sheets: fig2_machine,
    },
    Artifact {
        name: "anatomy",
        files: &["anatomy.csv"],
        about: "Where processor time goes per app and scheme: busy, memory stall, synchronization stall",
        points: Plan::suite_points,
        sheets: anatomy,
    },
    Artifact {
        name: "ablation_blocksize",
        files: &["ablation_blocksize.csv"],
        about: "Section 3.1: larger blocks shrink the directory but false sharing grows (MP3D, LocusRoute, Dir32)",
        points: |plan| {
            let apps = [
                plan.app(AppKey::Paper("mp3d")),
                plan.app(AppKey::Paper("locusroute")),
            ];
            let mut wants = Vec::new();
            for app in apps {
                for block in [16u64, 32, 64, 128] {
                    let mut cfg = MachineConfig::paper_32();
                    cfg.block_bytes = block;
                    // Same cache capacities in bytes.
                    cfg.l1_blocks = (64 << 10) / block as usize;
                    cfg.l2_blocks = (256 << 10) / block as usize;
                    wants.push(plan.want(cells![plan.run(app).name, block], app, cfg));
                }
            }
            wants
        },
        sheets: ablation_blocksize,
    },
    Artifact {
        name: "ablation_contention",
        files: &["ablation_contention.csv"],
        about: "Section 6.2's caveat: the scheme comparison with mesh link contention (4 cycles per link)",
        points: |plan| {
            // Each suite point, then the same machine with every link of
            // a route held 4 cycles per message.
            plan.suite_points()
                .into_iter()
                .flat_map(|free| {
                    let (app, mut cfg) = plan.points[free.point].clone();
                    cfg.link_occupancy = Some(4);
                    let contended = plan.want(free.labels.clone(), app, cfg);
                    [free, contended]
                })
                .collect()
        },
        sheets: ablation_contention,
    },
    Artifact {
        name: "ablation_hints",
        files: &["ablation_hints.csv"],
        about: "Replacement hints on scaled caches: fewer stale invalidations, one message per clean eviction",
        points: |plan| {
            let apps = [plan.sparse_lu(), plan.app(AppKey::Paper("locusroute"))];
            let mut wants = Vec::new();
            for app in apps {
                for hints in [false, true] {
                    // Scaled caches (size factor 0 = complete directory) so
                    // clean evictions actually occur.
                    let mut cfg =
                        sparse_config(plan.run(app), Scheme::FullVector, 0, 4, Replacement::Random);
                    cfg.replacement_hints = hints;
                    wants.push(plan.want(cells![plan.run(app).name, hints], app, cfg));
                }
            }
            wants
        },
        sheets: ablation_hints,
    },
    Artifact {
        name: "ablation_locks",
        files: &["ablation_locks.csv"],
        about: "Section 7: queue-lock grants under coarse and broadcast waiter vectors (32 clusters, one lock)",
        points: |plan| {
            let app = plan.app(AppKey::ContendedLock);
            [
                ("full vector", Scheme::FullVector),
                ("Dir4CV8", Scheme::dir_cv(4, 8)),
                ("Dir4CV4", Scheme::dir_cv(4, 4)),
                ("Dir4CV2", Scheme::dir_cv(4, 2)),
                ("Dir1B (broadcast)", Scheme::dir_b(1)),
            ]
            .into_iter()
            .map(|(name, scheme)| {
                let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
                cfg.check_invariants = true;
                plan.want(cells![name], app, cfg)
            })
            .collect()
        },
        sheets: ablation_locks,
    },
    Artifact {
        name: "ablation_overflow",
        files: &["ablation_overflow.csv"],
        about: "Section 7: three-pointer entries overflowing into a small cache of wide entries, LU and LocusRoute",
        points: |plan| {
            let apps = plan.paper_apps();
            let mut wants = Vec::new();
            for app in [apps[0], apps[3]] {
                wants.extend(plan.per_scheme(
                    app,
                    [
                        ("Dir32 (full)", Scheme::FullVector),
                        ("Dir3CV2", Scheme::dir_cv(3, 2)),
                        ("Dir3NB", Scheme::dir_nb(3)),
                    ],
                ));
                for wide in [8, 32, 128] {
                    let cfg =
                        MachineConfig::paper_32().with_overflow(3, wide, 4, Replacement::Lru);
                    let labels =
                        cells![plan.run(app).name, format!("Dir3 + {wide}-wide overflow")];
                    wants.push(plan.want(labels, app, cfg));
                }
            }
            wants
        },
        sheets: ablation_overflow,
    },
    Artifact {
        name: "ablation_pending",
        files: &["ablation_pending.csv"],
        about: "How often requests queue at the home in place of DASH's NAK/retry (DESIGN.md section 7)",
        points: Plan::suite_points,
        sheets: ablation_pending,
    },
    Artifact {
        name: "ablation_region",
        files: &["ablation_region.csv"],
        about: "Coarse-vector region size 2..16 at three pointers, LU and LocusRoute",
        points: |plan| {
            let apps = plan.paper_apps();
            [apps[0], apps[3]]
                .into_iter()
                .flat_map(|app| {
                    plan.per_scheme(
                        app,
                        [
                            ("Dir32 (full)", Scheme::FullVector),
                            ("Dir3CV2", Scheme::dir_cv(3, 2)),
                            ("Dir3CV4", Scheme::dir_cv(3, 4)),
                            ("Dir3CV8", Scheme::dir_cv(3, 8)),
                            ("Dir3CV16", Scheme::dir_cv(3, 16)),
                            ("Dir3B (r=P)", Scheme::dir_b(3)),
                        ],
                    )
                })
                .collect()
        },
        sheets: |files, runs| {
            vec![traffic_by_scheme(
                files[0],
                "Region-size sweep",
                ["app", "scheme", "cycles", "invalidations", "total_traffic"],
                runs,
            )]
        },
    },
    Artifact {
        name: "ablation_scale",
        files: &["ablation_scale.csv"],
        about: "LU at 32 and 64 processors under budget-equivalent schemes (Dir3CV2 at 32, Dir3CV4 at 64)",
        points: |plan| {
            let mut wants = Vec::new();
            for procs in [32usize, 64] {
                let n = ((72.0 * plan.scale).round() as usize).max(16) * procs / 32;
                let app = plan.app(AppKey::Lu { n, procs });
                // The coarse-vector region that fits the ~17-bit budget.
                let r = procs / 16;
                for (name, scheme) in [
                    ("full vector".to_string(), Scheme::FullVector),
                    (format!("Dir3CV{r}"), Scheme::dir_cv(3, r)),
                    ("Dir3B".to_string(), Scheme::dir_b(3)),
                    ("Dir3NB".to_string(), Scheme::dir_nb(3)),
                ] {
                    let mut cfg = MachineConfig::paper_32().with_scheme(scheme);
                    cfg.clusters = procs;
                    wants.push(plan.want(cells![procs, name], app, cfg));
                }
            }
            wants
        },
        sheets: |files, runs| {
            vec![traffic_by_scheme(
                files[0],
                "LU beyond 32 processors",
                ["procs", "scheme", "cycles", "invalidations", "total"],
                runs,
            )]
        },
    },
    Artifact {
        name: "ablation_sci",
        files: &["ablation_sci.csv"],
        about: "Section 3.3: invalidations sent in parallel vs one at a time down an SCI-style list (Dir32)",
        points: |plan| {
            let mut wants = Vec::new();
            for app in plan.paper_apps() {
                let mut serial = MachineConfig::paper_32();
                serial.serial_invalidations = true;
                for cfg in [MachineConfig::paper_32(), serial] {
                    wants.push(plan.want(cells![plan.run(app).name], app, cfg));
                }
            }
            wants
        },
        sheets: ablation_sci,
    },
];

/// Figures 13/14 normalize to LU on scaled caches with a complete
/// full-vector directory.
fn sparse_base(plan: &mut Plan, lu: usize) -> Want {
    let cfg = sparse_config(plan.run(lu), Scheme::FullVector, 0, 4, Replacement::Random);
    plan.want(Vec::new(), lu, cfg)
}

/// `x / base` to four places.
fn ratio(x: u64, base: u64) -> String {
    format!("{:.4}", x as f64 / base as f64)
}

fn fig2(files: &[&'static str], _: &[Run]) -> Vec<Sheet> {
    let panel = |file, procs: usize, schemes: &[(&'static str, Scheme)]| {
        let curves: Vec<Vec<f64>> = schemes
            .iter()
            .map(|&(_, s)| invalidation_curve(s, procs, MODEL_EVENTS, MODEL_SEED))
            .collect();
        Sheet {
            file,
            title: format!(
                "Figure 2: average invalidations vs sharers, {procs} processors, {MODEL_EVENTS} events/point"
            ),
            header: std::iter::once("sharers")
                .chain(schemes.iter().map(|&(name, _)| name))
                .collect(),
            rows: (0..=procs - 2)
                .map(|s| {
                    std::iter::once(s.to_string())
                        .chain(curves.iter().map(|c| format!("{:.4}", c[s])))
                        .collect()
                })
                .collect(),
        }
    };
    vec![
        // 2a: 32 processors (the paper's panel a legend).
        panel(
            files[0],
            32,
            &[
                ("Dir3B", Scheme::dir_b(3)),
                ("Dir3CV2", Scheme::dir_cv(3, 2)),
                ("Dir", Scheme::dir_n()),
            ],
        ),
        // 2b: 64 processors adds Dir3X and uses region size 4.
        panel(
            files[1],
            64,
            &[
                ("Dir3B", Scheme::dir_b(3)),
                ("Dir3X", Scheme::dir_x(3)),
                ("Dir3CV4", Scheme::dir_cv(3, 4)),
                ("Dir", Scheme::dir_n()),
            ],
        ),
    ]
}

fn table1(files: &[&'static str], _: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Table 1: sample machine configurations".into(),
        header: vec![
            "clusters",
            "processors",
            "main_memory_mb",
            "cache_mb",
            "block_bytes",
            "scheme",
            "entry_bits",
            "entries",
            "overhead",
        ],
        rows: table1_rows()
            .iter()
            .map(|r| {
                cells![
                    r.spec.clusters,
                    r.spec.processors(),
                    r.spec.total_memory() >> 20,
                    r.spec.total_cache() >> 20,
                    r.spec.block_bytes,
                    r.label,
                    r.report.entry_bits,
                    r.report.entries,
                    format!("{:.4}", r.report.overhead),
                ]
            })
            .collect(),
    }]
}

fn table2(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Table 2: general application characteristics (32 processors, 16-byte blocks; \
                problem sizes are scaled down from the paper's, identical in structure)"
            .into(),
        header: vec![
            "app",
            "shared_refs",
            "shared_reads",
            "shared_writes",
            "sync_ops",
            "shared_kb",
        ],
        rows: runs
            .iter()
            .map(|r| {
                // The machine must retire exactly what the generator issued.
                assert_eq!(r.stats.shared_reads, r.app.reads());
                assert_eq!(r.stats.shared_writes, r.app.writes());
                r.row(cells![
                    r.app.shared_refs(),
                    r.app.reads(),
                    r.app.writes(),
                    r.app.sync_ops(),
                    r.app.shared_bytes / 1024,
                ])
            })
            .collect(),
    }]
}

/// Each write transaction at a directory is an invalidation event
/// weighted by the invalidations it sent; `Dir_i NB` also turns
/// read-caused pointer evictions into size-1 events (§6.1).
fn fig3_6(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    files
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (&file, r))| {
            let h = &r.stats.invalidations;
            Sheet {
                file,
                title: format!(
                    "Figure {}: invalidation distribution, {}, {} ({} invalidations in {} events, avg {:.2})",
                    i + 3,
                    r.labels[0],
                    r.labels[1],
                    h.weight(),
                    h.events(),
                    h.mean()
                ),
                header: vec!["value", "count", "fraction"],
                rows: (0..=h.max_value())
                    .map(|v| cells![v, h.count(v), format!("{:.6}", h.fraction(v))])
                    .collect(),
            }
        })
        .collect()
}

fn fig7_10(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    let mut rows = Vec::new();
    for per_app in runs.chunks(scheme_suite().len()) {
        let base = per_app[0].stats;
        for r in per_app {
            let t = &r.stats.traffic;
            rows.push(r.row(cells![
                r.stats.cycles,
                ratio(r.stats.cycles, base.cycles),
                t.get(Request),
                t.get(Reply),
                t.get(Invalidation),
                t.get(Acknowledgement),
                t.total(),
                ratio(t.total(), base.traffic.total()),
            ]));
        }
    }
    vec![Sheet {
        file: files[0],
        title: "Figures 7-10: execution time and message traffic, normalized to Full Vector".into(),
        header: vec![
            "app",
            "scheme",
            "cycles",
            "norm_time",
            "requests",
            "replies",
            "invalidations",
            "acks",
            "total",
            "norm_traffic",
        ],
        rows,
    }]
}

fn fig11_12(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    let mut rows = Vec::new();
    // Three schemes x four size factors per figure.
    for per_figure in runs.chunks(12) {
        let base = per_figure[0].stats.cycles;
        for r in per_figure {
            rows.push(r.row(cells![
                r.stats.cycles,
                ratio(r.stats.cycles, base),
                r.stats.sparse.map_or(0, |s| s.replacements),
                r.stats.traffic.total(),
            ]));
        }
    }
    vec![Sheet {
        file: files[0],
        title: "Figures 11/12: sparse directory performance, 4-way, random replacement; \
                time normalized to non-sparse (size factor 0) full bit vector"
            .into(),
        header: vec![
            "figure",
            "scheme",
            "size_factor",
            "cycles",
            "norm_time",
            "replacements",
            "traffic",
        ],
        rows,
    }]
}

/// Figures 13 and 14: `runs[0]` is the non-sparse base the traffic is
/// normalized to, the rest are labelled size factor and `parameter`.
fn sparse_traffic(file: &'static str, title: &str, parameter: &'static str, runs: &[Run]) -> Sheet {
    let base = runs[0].stats.traffic.total();
    Sheet {
        file,
        title: format!("{title}: message traffic normalized to non-sparse"),
        header: vec![
            "size_factor",
            parameter,
            "traffic",
            "norm_traffic",
            "replacements",
        ],
        rows: runs[1..]
            .iter()
            .map(|r| {
                let traffic = r.stats.traffic.total();
                r.row(cells![
                    traffic,
                    ratio(traffic, base),
                    r.stats.sparse.map_or(0, |s| s.replacements),
                ])
            })
            .collect(),
    }
}

/// Model and machine implement one event definition (sharers drawn
/// outside {home, writer}; home-cluster copies invalidated over the bus,
/// not the network), so the measured invalidations per write must land
/// on the model's curve.
fn fig2_machine(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Figure 2 cross-validation: Monte-Carlo model vs full-machine measurement \
                (32 processors, 512 blocks per point)"
            .into(),
        header: vec!["sharers", "scheme", "model", "machine"],
        rows: runs
            .iter()
            .map(|r| {
                let sharers = r.labels[0].parse().expect("the sharer count");
                let model =
                    average_invalidations(r.cfg.scheme, 32, sharers, MODEL_EVENTS, MODEL_SEED);
                // Every write is one event; reads and barriers cause none
                // under these schemes (no NB, caches hold everything).
                let machine = r.stats.invalidations.mean();
                r.row(cells![format!("{model:.4}"), format!("{machine:.4}")])
            })
            .collect(),
    }]
}

fn anatomy(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Execution-time anatomy (fraction of total processor-time)".into(),
        header: vec!["app", "scheme", "busy", "mem_stall", "sync_stall", "cycles"],
        rows: runs
            .iter()
            .map(|r| {
                let (busy, mem, sync) = r.stats.stalls.fractions();
                r.row(cells![
                    format!("{busy:.4}"),
                    format!("{mem:.4}"),
                    format!("{sync:.4}"),
                    r.stats.cycles,
                ])
            })
            .collect(),
    }]
}

fn ablation_blocksize(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Block-size sweep (Dir32): directory overhead falls, false sharing drives \
                invalidations up"
            .into(),
        header: vec![
            "app",
            "block_bytes",
            "cycles",
            "invalidations",
            "total_traffic",
            "dir_overhead",
        ],
        rows: runs
            .iter()
            .map(|r| {
                let mut spec = MachineSpec::paper_defaults(32);
                spec.procs_per_cluster = 1;
                spec.block_bytes = r.cfg.block_bytes;
                let dir = overhead(
                    &spec,
                    &DirectoryChoice {
                        scheme: Scheme::FullVector,
                        sparsity: 1,
                    },
                );
                r.row(cells![
                    r.stats.cycles,
                    r.stats.traffic.get(Invalidation),
                    r.stats.traffic.total(),
                    format!("{:.4}", dir.overhead),
                ])
            })
            .collect(),
    }]
}

fn ablation_contention(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    let mut rows = Vec::new();
    // Per app: (latency-only, contended) for each scheme, Full Vector first.
    for per_app in runs.chunks(2 * scheme_suite().len()) {
        let (base_free, base_contended) = (per_app[0].stats.cycles, per_app[1].stats.cycles);
        for pair in per_app.chunks(2) {
            let (free, contended) = (pair[0].stats.cycles, pair[1].stats.cycles);
            rows.push(pair[0].row(cells![
                free,
                contended,
                format!("{:.4}", free as f64 / base_free as f64 * 100.0),
                format!("{:.4}", contended as f64 / base_contended as f64 * 100.0),
            ]));
        }
    }
    vec![Sheet {
        file: files[0],
        title: "Scheme comparison without and with mesh link contention (4 cycles/link), \
                execution time in percent of Full Vector"
            .into(),
        header: vec![
            "app",
            "scheme",
            "free_cycles",
            "contended_cycles",
            "free_norm",
            "cont_norm",
        ],
        rows,
    }]
}

fn ablation_hints(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Replacement hints (Dir32, scaled caches)".into(),
        header: vec![
            "app",
            "hints",
            "cycles",
            "requests",
            "invalidations",
            "acks",
            "total",
        ],
        rows: runs
            .iter()
            .map(|r| {
                let t = &r.stats.traffic;
                r.row(cells![
                    r.stats.cycles,
                    t.get(Request),
                    t.get(Invalidation),
                    t.get(Acknowledgement),
                    t.total(),
                ])
            })
            .collect(),
    }]
}

fn ablation_locks(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: format!(
            "Queue-lock ablation: 32 clusters each acquiring a single lock {LOCK_ITERS}x, \
             by waiter representation"
        ),
        header: vec![
            "scheme", "cycles", "grants", "retries", "requests", "replies",
        ],
        rows: runs
            .iter()
            .map(|r| {
                let (grants, retries) = r.stats.lock_metrics;
                r.row(cells![
                    r.stats.cycles,
                    grants,
                    retries,
                    r.stats.traffic.get(Request),
                    r.stats.traffic.get(Reply),
                ])
            })
            .collect(),
    }]
}

fn ablation_overflow(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Overflow directory vs. published schemes at the same ~17-bit budget".into(),
        header: vec![
            "app",
            "config",
            "cycles",
            "invalidations",
            "total",
            "promotions",
            "displacements",
        ],
        rows: runs
            .iter()
            .map(|r| {
                let o = r.stats.overflow.unwrap_or_default();
                r.row(cells![
                    r.stats.cycles,
                    r.stats.traffic.get(Invalidation),
                    r.stats.traffic.total(),
                    o.promotions,
                    o.displacements,
                ])
            })
            .collect(),
    }]
}

fn ablation_pending(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Home pending-queue ablation (conflicting-transaction serialization)".into(),
        header: vec![
            "app",
            "scheme",
            "requests",
            "queued",
            "max_depth",
            "races",
            "forwards",
        ],
        rows: runs
            .iter()
            .map(|r| {
                let (depth, queued) = r.stats.queue_metrics;
                r.row(cells![
                    r.stats.traffic.get(Request),
                    queued,
                    depth,
                    r.stats.protocol.races,
                    r.stats.protocol.forwards,
                ])
            })
            .collect(),
    }]
}

/// `ablation_region` and `ablation_scale`: cycles, invalidations and
/// total messages of each labelled run.
fn traffic_by_scheme(
    file: &'static str,
    title: &str,
    header: [&'static str; 5],
    runs: &[Run],
) -> Sheet {
    Sheet {
        file,
        title: title.into(),
        header: header.to_vec(),
        rows: runs
            .iter()
            .map(|r| {
                r.row(cells![
                    r.stats.cycles,
                    r.stats.traffic.get(Invalidation),
                    r.stats.traffic.total(),
                ])
            })
            .collect(),
    }
}

fn ablation_sci(files: &[&'static str], runs: &[Run]) -> Vec<Sheet> {
    vec![Sheet {
        file: files[0],
        title: "Serial (SCI-style) vs parallel invalidation delivery, Dir32: the slowdown \
                tracks the fan-out"
            .into(),
        header: vec![
            "app",
            "parallel_cycles",
            "serial_cycles",
            "slowdown",
            "avg_invals",
        ],
        rows: runs
            .chunks(2)
            .map(|pair| {
                let (parallel, serial) = (pair[0].stats, pair[1].stats);
                pair[0].row(cells![
                    parallel.cycles,
                    serial.cycles,
                    format!("{:.4}", serial.cycles as f64 / parallel.cycles as f64),
                    format!("{:.3}", parallel.invalidations.mean()),
                ])
            })
            .collect(),
    }]
}

/// What one [`regenerate`] call did.
pub struct Regenerated {
    /// Every sheet of the requested artifacts, in table order.
    pub sheets: Vec<Sheet>,
    /// Machine runs the artifacts asked for.
    pub wanted: usize,
    /// Distinct `(app, machine)` points actually simulated.
    pub simulated: usize,
    /// Worker threads used.
    pub jobs: usize,
}

/// Regenerates `artifacts` at `scale`: plans every point, simulates each
/// distinct one once on `jobs` workers, then builds the sheets. The
/// result is a pure function of `(artifacts, scale)`.
pub fn regenerate(artifacts: &[&Artifact], scale: f64, jobs: usize) -> Regenerated {
    let mut plan = Plan {
        scale,
        apps: Vec::new(),
        points: Vec::new(),
    };
    let wants: Vec<Vec<Want>> = artifacts.iter().map(|a| (a.points)(&mut plan)).collect();
    let mut stats: Vec<Option<RunStats>> = vec![None; plan.points.len()];
    let jobs = fan_out(
        plan.points.len(),
        jobs,
        |i| {
            let (app, cfg) = &plan.points[i];
            run_app_with(plan.run(*app), cfg.clone())
        },
        |i, run| stats[i] = Some(run),
    );
    let sheets = artifacts
        .iter()
        .zip(&wants)
        .flat_map(|(artifact, wants)| {
            let runs: Vec<Run> = wants
                .iter()
                .map(|w| {
                    let (app, cfg) = &plan.points[w.point];
                    Run {
                        labels: &w.labels,
                        app: plan.run(*app),
                        cfg,
                        stats: stats[w.point].as_ref().expect("every point ran"),
                    }
                })
                .collect();
            let sheets = (artifact.sheets)(artifact.files, &runs);
            assert_eq!(sheets.len(), artifact.files.len(), "{}", artifact.name);
            sheets
        })
        .collect();
    Regenerated {
        sheets,
        wanted: wants.iter().map(Vec::len).sum(),
        simulated: plan.points.len(),
        jobs,
    }
}

/// Writes every sheet under `dir` (created if missing).
pub fn write(dir: &Path, sheets: &[Sheet]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for sheet in sheets {
        std::fs::write(dir.join(sheet.file), sheet.csv())?;
    }
    Ok(())
}

/// Compares every sheet with the file of its name under `dir`, byte for
/// byte. One message per file that is missing or differs, naming the
/// first line that does.
pub fn check(dir: &Path, sheets: &[Sheet]) -> Vec<String> {
    sheets
        .iter()
        .filter_map(|sheet| {
            let path = dir.join(sheet.file);
            let committed = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => return Some(format!("{}: {e}", path.display())),
            };
            let fresh = sheet.csv();
            if committed == fresh {
                return None;
            }
            // `split`, not `lines`: a missing final newline is a difference.
            let (mut old, mut new) = (committed.split('\n'), fresh.split('\n'));
            let mut line = 1;
            loop {
                match (old.next(), new.next()) {
                    (a, b) if a == b => line += 1,
                    (a, b) => {
                        let show = |l: Option<&str>| {
                            l.map_or("<end of file>".into(), |l| format!("`{l}`"))
                        };
                        return Some(format!(
                            "{}:{line}: committed {}, regenerated {}",
                            path.display(),
                            show(a),
                            show(b)
                        ));
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(name: &str) -> &'static Artifact {
        ARTIFACTS.iter().find(|a| a.name == name).unwrap()
    }

    /// The suite points feed five artifacts and are simulated once.
    #[test]
    fn a_point_several_artifacts_share_runs_once() {
        let sharing = ["table2", "fig3_6", "fig7_10", "anatomy", "ablation_pending"].map(artifact);
        let out = regenerate(&sharing, 0.05, 2);
        assert_eq!((out.wanted, out.simulated), (4 + 4 + 3 * 16, 16));
        assert_eq!(out.sheets.len(), 8);
        for sheet in &out.sheets {
            assert!(!sheet.rows.is_empty(), "{}", sheet.file);
            assert!(sheet.rows.iter().all(|r| r.len() == sheet.header.len()));
        }
    }

    #[test]
    fn worker_count_does_not_change_a_byte() {
        let some = [
            artifact("fig7_10"),
            artifact("fig13"),
            artifact("ablation_locks"),
        ];
        let csvs = |jobs| -> Vec<String> {
            regenerate(&some, 0.05, jobs)
                .sheets
                .iter()
                .map(Sheet::csv)
                .collect()
        };
        assert_eq!(csvs(1), csvs(3));
    }

    #[test]
    fn check_names_the_file_and_line_of_a_one_byte_edit() {
        let dir = std::env::temp_dir().join(format!("scd-repro-check-{}", std::process::id()));
        let sheets = regenerate(&[artifact("table1")], 1.0, 1).sheets;
        write(&dir, &sheets).unwrap();
        assert_eq!(check(&dir, &sheets), Vec::<String>::new());

        let path = dir.join("table1.csv");
        let text = std::fs::read_to_string(&path).unwrap();
        let third_line = text.match_indices('\n').nth(1).unwrap().0 + 1;
        let mut bytes = text.clone().into_bytes();
        bytes[third_line] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let found = check(&dir, &sheets);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with(&format!("{}:3: ", path.display())),
            "{found:?}"
        );

        // A dropped final newline and a missing file are differences too.
        std::fs::write(&path, text.trim_end()).unwrap();
        let lines = text.lines().count();
        assert!(check(&dir, &sheets)[0].contains(&format!("table1.csv:{}: ", lines + 1)));
        std::fs::remove_file(&path).unwrap();
        assert!(check(&dir, &sheets)[0].contains("table1.csv: "));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
