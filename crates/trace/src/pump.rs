//! The stream pump: typed events in, ordered JSONL lines out.
//!
//! A machine records events per cluster, possibly stamped with a *future*
//! cycle (never a past one). The post-hoc export sorts the whole history
//! by `(cycle, cluster, per-cluster seq)` and numbers it; a live stream
//! has to produce the same lines in the same order without seeing the
//! future. The pump does that with a watermark: an event is held until the
//! caller says the simulation clock has moved strictly past its cycle, at
//! which point nothing still unrecorded can sort before it. A machine's
//! tracer hands each event to one of these as it records it; the pump is
//! the only place events meet a [`TraceSink`], and the only place a trace
//! line is rendered during a run.
//!
//! What holds the events is the engine's own timing wheel
//! ([`EventQueue`]): scheduled at its cycle under `Stamp { lane: cluster,
//! seq }`, an event is delivered in `(time, lane, seq)` order — which *is*
//! the canonical trace order, so the pump sorts nothing itself.

use std::fmt::Write as _;

use scd_sim::{EventQueue, Stamp};

use crate::event::TraceEvent;
use crate::json::{Json, Utf8};
use crate::sink::{run_end_record, TraceSink};

/// The watermark reorder pump in front of one attached [`TraceSink`].
pub struct StreamPump {
    sink: Box<dyn TraceSink>,
    /// Recorded events the watermark has not passed yet.
    pending: EventQueue<TraceEvent>,
    /// The highest watermark flushed so far: every event below it that the
    /// pump was ever going to see has been emitted.
    flushed: u64,
    /// Events emitted so far: each emitted line's `seq` is renumbered to
    /// its 1-based position in the canonical emission order, matching
    /// what `Tracer::merged` assigns post-hoc.
    emitted: u64,
    /// The one line buffer every record is rendered into.
    line: Vec<u8>,
}

impl StreamPump {
    /// A pump with nothing pending, emitting into `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        StreamPump {
            sink,
            pending: EventQueue::new(),
            flushed: 0,
            emitted: 0,
            line: Vec::with_capacity(256),
        }
    }

    /// Takes one recorded event (its `seq` still the per-cluster
    /// recording counter).
    ///
    /// # Panics
    /// If the event is stamped below a watermark already flushed: lines
    /// that sort after it are in the sink, so the stream could only carry
    /// it out of order. Hooks stamp at or ahead of the clock and the
    /// watermark trails the clock, so this is a bug in whoever fed the
    /// pump, reported here instead of as a misordered trace.
    pub fn push(&mut self, ev: TraceEvent) {
        assert!(
            ev.cycle >= self.flushed,
            "event stamped behind the flushed watermark {}: {ev:?}",
            self.flushed
        );
        let stamp = Stamp {
            lane: ev.cluster,
            seq: ev.seq,
        };
        self.pending.schedule_at_stamped(ev.cycle, stamp, ev);
    }

    /// Emits every pending event with `cycle < watermark`, in canonical
    /// order, renumbered.
    pub fn flush_below(&mut self, watermark: u64) {
        self.flushed = self.flushed.max(watermark);
        while self.pending.peek_time().is_some_and(|t| t < watermark) {
            let (t, mut ev) = self.pending.pop().expect("peeked above");
            // The wheel leaves its clock alone for an event from the past.
            assert!(t >= self.pending.now(), "delivery would move the clock backwards");
            self.emitted += 1;
            ev.seq = self.emitted;
            self.line.clear();
            ev.write_jsonl(&mut self.line);
            self.emit_line();
        }
    }

    /// Hands the rendered line to the sink, as the `str` it is checked to
    /// be — once per line, not once per field.
    fn emit_line(&mut self) {
        let line = std::str::from_utf8(&self.line).expect("renderers write UTF-8");
        self.sink.emit(line);
    }

    /// Emits one stream-only record (`run_meta`, `interval`,
    /// `attrib_delta`, `patterns`) at the current position of the stream.
    pub fn emit_record(&mut self, record: &Json) {
        self.line.clear();
        write!(Utf8(&mut self.line), "{record}").expect("writing to a Vec cannot fail");
        self.emit_line();
    }

    /// Pushes buffered lines to the sink's transport — called at interval
    /// boundaries so a consumer tailing a file sees whole windows.
    pub fn flush_sink(&mut self) {
        self.sink.flush();
    }

    /// Ends the stream: emits everything still pending, then the closing
    /// `run_end` record, and flushes. Returns the lines the sink shed
    /// ([`TraceSink::dropped`]) — read here, after the last write, so a
    /// truncated stream never goes unreported.
    pub fn close(mut self, cycles: u64, recorded: u64, dropped_events: u64) -> u64 {
        self.flush_below(u64::MAX);
        self.emit_record(&run_end_record(cycles, recorded, dropped_events));
        self.sink.flush();
        self.sink.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Phase};
    use crate::sink::{event_line, BufferSink};
    use crate::tracer::{TraceConfig, Tracer};

    fn phase(txn: u64) -> EventKind {
        EventKind::TxnPhase {
            txn,
            block: 0,
            phase: Phase::HomeLookup,
        }
    }

    /// The watermark rule: an event stamped at cycle `c` stays pending
    /// while the clock is at or before `c` (an earlier-sorting event of
    /// the same cycle can still be recorded) and leaves once the clock is
    /// strictly past it. The emitted numbering is `Tracer::merged`'s.
    #[test]
    fn holds_future_events_until_the_clock_passes_them() {
        let mut tracer = Tracer::new(2, &TraceConfig::full(16));
        let sink = BufferSink::new();
        let lines = sink.handle();
        tracer.attach(StreamPump::new(Box::new(sink)));
        let emitted = || lines.lock().unwrap().len();
        let flush = |t: &mut Tracer, watermark| t.pump().unwrap().flush_below(watermark);

        // Clock at 10: cluster 1 records a reply that lands at 50.
        tracer.record(1, 50, phase(1));
        tracer.record(1, 10, phase(2));
        flush(&mut tracer, 10);
        assert_eq!(emitted(), 0, "cycle 10 is not yet strictly passed");
        flush(&mut tracer, 11);
        assert_eq!(emitted(), 1, "only the cycle-10 event is safe");

        // Clock reaches 50: cluster 0 records at 50, which sorts *before*
        // the held cluster-1 event of the same cycle.
        flush(&mut tracer, 50);
        assert_eq!(emitted(), 1, "a watermark equal to the stamp holds it");
        tracer.record(0, 50, phase(3));
        assert_eq!(tracer.detach().unwrap().close(60, 3, 0), 0);

        let want: Vec<String> = tracer
            .merged()
            .iter()
            .map(event_line)
            .chain([run_end_record(60, 3, 0).to_string()])
            .collect();
        assert_eq!(*lines.lock().unwrap(), want);
    }

    /// What the heap this replaced let through as a misordered line: the
    /// watermark passed cycle 10, so a cycle-5 event can no longer be
    /// placed.
    #[test]
    #[should_panic(
        expected = "behind the flushed watermark 10: TraceEvent { seq: 1, cycle: 5, cluster: 2"
    )]
    fn refuses_an_event_behind_the_flushed_watermark() {
        let mut pump = StreamPump::new(Box::new(BufferSink::new()));
        pump.flush_below(10);
        pump.push(TraceEvent {
            seq: 1,
            cycle: 5,
            cluster: 2,
            kind: phase(7),
        });
    }

    /// A sink with room for one line that sheds, and counts, the rest.
    struct OneSlot {
        kept: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
        shed: u64,
    }

    impl TraceSink for OneSlot {
        fn emit(&mut self, line: &str) {
            let mut kept = self.kept.lock().unwrap();
            if kept.is_empty() {
                kept.push(line.to_owned());
            } else {
                self.shed += 1;
            }
        }
        fn flush(&mut self) {}
        fn dropped(&self) -> u64 {
            self.shed
        }
    }

    /// A sink that sheds load is reported by `close`, after the last
    /// line.
    #[test]
    fn close_reports_what_the_sink_shed() {
        let kept = std::sync::Arc::default();
        let sink = OneSlot {
            kept: std::sync::Arc::clone(&kept),
            shed: 0,
        };
        let mut pump = StreamPump::new(Box::new(sink));
        for i in 0..3 {
            pump.push(TraceEvent {
                seq: i + 1,
                cycle: i,
                cluster: 0,
                kind: phase(i),
            });
        }
        // Three events and run_end into a one-slot sink.
        assert_eq!(pump.close(3, 3, 0), 3);
        assert_eq!(kept.lock().unwrap().len(), 1);
    }
}
