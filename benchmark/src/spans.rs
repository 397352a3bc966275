//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps every public call it makes into the simulator in
//! [`Spans::time`]. With the recorder off (every timed, untraced pass)
//! that is a branch and a direct call: no clock is read. With it on, each
//! call becomes a [`Span`] — id, parent, name, label, start, end — kept in
//! memory until the run ends and then written as one JSON object per line.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover. All spans come from one thread and nest
//! properly, so the covered part is the sum of the direct children's
//! durations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use scd_trace::Json;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Position in recording order.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Layer-qualified call name, e.g. `machine.run`.
    pub name: &'static str,
    /// What the call worked on, e.g. the grid point's run id.
    pub label: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// `end_ns - start_ns`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The recorder. Interior mutability lets nested closures share it by
/// `&Spans`, including the `Fn` constructor `scd_check::explore` takes.
pub struct Spans {
    t0: Instant,
    recording: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Spans {
    /// A recorder that is switched off: it records nothing and never reads
    /// the clock until [`Spans::record`] turns it on.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            recording: Cell::new(false),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Switches recording on or off. Untraced passes run with it off.
    pub fn record(&self, on: bool) {
        self.recording.set(on);
    }

    /// Runs `f`, recording it as a span named `name` when the recorder is
    /// on. Spans opened inside `f` become its children.
    pub fn time<R>(&self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        if !self.recording.get() {
            return f();
        }
        let inner = &self.inner;
        let id = {
            let mut inner = inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let parent = inner.open.last().copied();
            inner.open.push(id);
            inner.spans.push(Span {
                id,
                parent,
                name,
                label: label.to_string(),
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            id
        };
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        let mut inner = inner.borrow_mut();
        inner.spans[id as usize].end_ns = end;
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        out
    }

    /// Every finished span, in recording order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children. Indexed like `spans`.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Calls and self time of one span name, per pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: f64,
    /// Their summed self time.
    pub self_ns: f64,
}

/// Aggregates `spans` by name. A traced run repeats its pass under one
/// top-level `pass_root` span per repetition; spans below those roots are
/// averaged over the repetitions, every other span (the set-up's) counts
/// once.
pub fn by_name(spans: &[Span], pass_root: &str) -> BTreeMap<&'static str, NameTotal> {
    let own = self_ns(spans);
    // Parents precede their children, so one forward sweep finds every
    // span's top-level ancestor.
    let mut top: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        top.push(s.parent.map_or(i, |p| top[p as usize]));
    }
    let passes = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == pass_root)
        .count();
    // (calls, self time) once per name, and summed over the passes.
    let mut totals: BTreeMap<&'static str, [(u64, u64); 2]> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let repeated = spans[top[i]].name == pass_root;
        let t = &mut totals.entry(s.name).or_default()[repeated as usize];
        t.0 += 1;
        t.1 += own[i];
    }
    totals
        .into_iter()
        .map(|(name, [once, repeated])| {
            let per_pass = |n: u64| {
                if passes > 0 {
                    n as f64 / passes as f64
                } else {
                    0.0
                }
            };
            let total = NameTotal {
                calls: once.0 as f64 + per_pass(repeated.0),
                self_ns: once.1 as f64 + per_pass(repeated.1),
            };
            (name, total)
        })
        .collect()
}

/// Writes `spans` as JSON lines: `id`, `parent` (or null), `name`,
/// `label`, `start_ns`, `end_ns`, `self_ns`.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let own = self_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(own) {
        let line = Json::obj()
            .with("id", Json::U64(s.id.into()))
            .with(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::U64(p.into())),
            )
            .with("name", Json::Str(s.name.into()))
            .with("label", Json::Str(s.label.clone()))
            .with("start_ns", Json::U64(s.start_ns))
            .with("end_ns", Json::U64(s.end_ns))
            .with("self_ns", Json::U64(own));
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_part_children_cover() {
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 70),
            span(3, Some(2), "a", 45, 55),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 20, 10]);
        let totals = by_name(&spans, "pass");
        assert_eq!(
            totals["root"],
            NameTotal {
                calls: 1.0,
                self_ns: 50.0
            }
        );
        assert_eq!(
            totals["a"],
            NameTotal {
                calls: 2.0,
                self_ns: 30.0
            }
        );
        assert_eq!(
            totals["b"],
            NameTotal {
                calls: 1.0,
                self_ns: 20.0
            }
        );
    }

    #[test]
    fn spans_under_repeated_pass_roots_are_averaged_over_the_passes() {
        let spans = [
            span(0, None, "setup", 0, 10),
            span(1, Some(0), "gen", 2, 6),
            span(2, None, "pass", 10, 30),
            span(3, Some(2), "run", 10, 28),
            span(4, None, "pass", 30, 60),
            span(5, Some(4), "run", 30, 52),
            span(6, Some(4), "gen", 52, 54),
        ];
        let totals = by_name(&spans, "pass");
        assert_eq!(
            totals["run"],
            NameTotal {
                calls: 1.0,
                self_ns: 20.0
            }
        );
        assert_eq!(
            totals["gen"],
            NameTotal {
                calls: 1.5,
                self_ns: 5.0
            }
        );
        assert_eq!(
            totals["pass"],
            NameTotal {
                calls: 1.0,
                self_ns: 4.0
            }
        );
        assert_eq!(
            totals["setup"],
            NameTotal {
                calls: 1.0,
                self_ns: 6.0
            }
        );
    }

    #[test]
    fn recorder_nests_and_an_off_recorder_records_nothing() {
        let sp = Spans::new();
        sp.record(true);
        let got = sp.time("outer", "x", || sp.time("inner", "y", || 7));
        assert_eq!(got, 7);
        let spans = sp.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        sp.record(false);
        assert_eq!(sp.time("outer", "x", || 3), 3);
        assert_eq!(sp.snapshot().len(), 2);
    }
}
