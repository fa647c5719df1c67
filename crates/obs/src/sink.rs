//! Event sinks: in-memory ring buffer, deterministic JSONL exporter, and
//! the trace-diff helper.

use crate::event::ObsEvent;
use crate::observer::Observer;
use agp_sim::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;

/// One delivered event with its stamp and source tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracedEvent {
    /// Simulation instant of the event.
    pub at: SimTime,
    /// Emitting component's source tag.
    pub src: u32,
    /// The event itself.
    pub event: ObsEvent,
}

/// A last-K sink: memory stays O(K) however many events flow through,
/// and every eviction is counted, so `agp sim --obs-budget K` can report
/// "kept X of Y" and a truncated trace never passes for a complete one.
#[derive(Clone, Debug)]
pub struct RingBuffer {
    cap: usize,
    buf: VecDeque<TracedEvent>,
    total: u64,
}

impl RingBuffer {
    /// A ring keeping at most `cap` events (`cap` 0 keeps none).
    pub fn new(cap: usize) -> Self {
        RingBuffer {
            cap,
            buf: VecDeque::with_capacity(cap.min(1024)),
            total: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TracedEvent> {
        self.buf.iter()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever delivered (including evicted ones).
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// Events delivered but no longer retained (evicted by the capacity
    /// bound, or never stored when `cap` is 0). The bounded-memory
    /// pipeline reports this so truncation is never silent.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Drain the retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TracedEvent> {
        self.buf.drain(..).collect()
    }
}

impl Observer for RingBuffer {
    fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent) {
        self.total += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(TracedEvent {
            at,
            src,
            event: ev.clone(),
        });
    }
}

/// A sink writing one JSON object per line to any [`Write`] target.
///
/// The encoding is [`ObsEvent::to_json_line`]: hand-rolled, fixed field
/// order, integers only — so two runs with identical seeds produce
/// byte-identical files. I/O errors are latched (the stream stops
/// writing) and surfaced by [`JsonlWriter::finish`].
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    out: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlWriter<W> {
    /// Wrap a write target.
    pub fn new(out: W) -> Self {
        JsonlWriter {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the inner writer, or the first latched I/O error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Observer for JsonlWriter<W> {
    fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent) {
        if self.error.is_some() {
            return;
        }
        let line = ev.to_json_line(at, src);
        let res = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"));
        match res {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Shared lines shown on each side of a divergence.
pub const DIFF_CONTEXT_LINES: usize = 3;

/// The first point where two JSONL traces differ, with up to
/// [`DIFF_CONTEXT_LINES`] lines of context on each side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDivergence {
    /// 1-indexed line number of the first difference.
    pub line: u64,
    /// That line in the left trace (`None` if it ended first).
    pub left: Option<String>,
    /// That line in the right trace (`None` if it ended first).
    pub right: Option<String>,
    /// Up to [`DIFF_CONTEXT_LINES`] shared lines immediately before the
    /// divergence, in file order.
    pub before: Vec<String>,
    /// Up to [`DIFF_CONTEXT_LINES`] lines following the divergence in
    /// the left trace.
    pub left_after: Vec<String>,
    /// Up to [`DIFF_CONTEXT_LINES`] lines following the divergence in
    /// the right trace.
    pub right_after: Vec<String>,
}

impl fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "traces diverge at line {}:", self.line)?;
        let first_ctx = self.line as usize - self.before.len();
        for (i, l) in self.before.iter().enumerate() {
            writeln!(f, "  {:>6} | {l}", first_ctx + i)?;
        }
        match &self.left {
            Some(l) => writeln!(f, "  left:  {l}")?,
            None => writeln!(f, "  left:  <end of trace>")?,
        }
        match &self.right {
            Some(r) => writeln!(f, "  right: {r}")?,
            None => writeln!(f, "  right: <end of trace>")?,
        }
        for (i, l) in self.left_after.iter().enumerate() {
            writeln!(f, "  left  +{} | {l}", i + 1)?;
        }
        for (i, l) in self.right_after.iter().enumerate() {
            writeln!(f, "  right +{} | {l}", i + 1)?;
        }
        Ok(())
    }
}

/// Compare two JSONL traces line by line and report the first divergent
/// line (with surrounding context), or `None` when the traces are
/// identical.
pub fn trace_diff(left: &str, right: &str) -> Option<TraceDivergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut before: VecDeque<String> = VecDeque::with_capacity(DIFF_CONTEXT_LINES + 1);
    let mut line = 0u64;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => {
                if before.len() == DIFF_CONTEXT_LINES {
                    before.pop_front();
                }
                if let Some(shared) = a {
                    before.push_back(shared.to_string());
                }
            }
            (a, b) => {
                let tail = |it: std::str::Lines<'_>| {
                    it.take(DIFF_CONTEXT_LINES).map(str::to_string).collect()
                };
                return Some(TraceDivergence {
                    line,
                    left: a.map(str::to_string),
                    right: b.map(str::to_string),
                    before: before.into_iter().collect(),
                    left_after: tail(l),
                    right_after: tail(r),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(page: u32) -> ObsEvent {
        ObsEvent::ReadaheadHit { pid: 1, page }
    }

    #[test]
    fn ring_buffer_keeps_last_n() {
        let mut ring = RingBuffer::new(2);
        for i in 0..5 {
            ring.on_event(SimTime::from_us(i as u64), 0, &ev(i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.total_seen(), 5);
        let pages: Vec<u32> = ring
            .events()
            .map(|t| match t.event {
                ObsEvent::ReadaheadHit { page, .. } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![3, 4]);
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn zero_capacity_ring_counts_but_keeps_nothing() {
        let mut ring = RingBuffer::new(0);
        ring.on_event(SimTime::ZERO, 0, &ev(0));
        assert!(ring.is_empty());
        assert_eq!(ring.total_seen(), 1);
        assert_eq!(ring.dropped(), 1, "K=0 drops everything, visibly");
    }

    #[test]
    fn single_slot_ring_tracks_only_the_newest_event() {
        let mut ring = RingBuffer::new(1);
        assert_eq!(ring.dropped(), 0);
        for i in 0..4 {
            ring.on_event(SimTime::from_us(i as u64), 0, &ev(i));
            assert_eq!(ring.len(), 1, "K=1 never grows past one");
            let newest = ring.events().next().unwrap();
            assert_eq!(newest.at, SimTime::from_us(i as u64));
        }
        assert_eq!(ring.total_seen(), 4);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn ring_wraparound_preserves_order_and_drop_accounting() {
        // Drive the ring several full capacities past wraparound; the
        // retained window must stay the last `cap` events in delivery
        // order, and dropped() must account for every evicted one.
        let cap = 3;
        let mut ring = RingBuffer::new(cap);
        for i in 0..10u32 {
            ring.on_event(SimTime::from_us(i as u64), 0, &ev(i));
            let expect_len = cap.min(i as usize + 1);
            assert_eq!(ring.len(), expect_len);
            assert_eq!(ring.dropped() + ring.len() as u64, ring.total_seen());
        }
        let pages: Vec<u32> = ring
            .events()
            .map(|t| match t.event {
                ObsEvent::ReadaheadHit { page, .. } => page,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(pages, vec![7, 8, 9], "oldest-first after wraparound");
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn ring_buffer_survives_a_million_events_in_bounded_memory() {
        // 10⁶ events through a fixed budget: retention stays at the
        // budget, drops are counted, and the retained window is exactly
        // the last K events.
        const TOTAL: u64 = 1_000_000;
        const BUDGET: usize = 1024;
        let mut ring = RingBuffer::new(BUDGET);
        for i in 0..TOTAL {
            ring.on_event(SimTime::from_us(i), 0, &ev(i as u32));
            debug_assert!(ring.len() <= BUDGET);
        }
        assert_eq!(ring.len(), BUDGET);
        assert_eq!(ring.total_seen(), TOTAL);
        assert_eq!(ring.dropped(), TOTAL - BUDGET as u64);
        let first = ring.events().next().unwrap().at;
        assert_eq!(first, SimTime::from_us(TOTAL - BUDGET as u64));
        let events = ring.drain();
        assert_eq!(events.len(), BUDGET);
        assert_eq!(events.last().unwrap().at, SimTime::from_us(TOTAL - 1));
    }

    #[test]
    fn jsonl_writer_latches_errors() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Each event costs two writes (line + newline): the third event's
        // line write fails and latches.
        let mut w = JsonlWriter::new(FailAfter(4));
        for i in 0..5 {
            w.on_event(SimTime::from_us(i as u64), 0, &ev(i));
        }
        assert_eq!(w.lines(), 2);
        assert!(w.finish().is_err());
    }

    #[test]
    fn jsonl_writer_is_deterministic() {
        let render = || {
            let mut w = JsonlWriter::new(Vec::new());
            for i in 0..3 {
                w.on_event(SimTime::from_us(10 + i as u64), 2, &ev(i));
            }
            assert_eq!(w.lines(), 3);
            String::from_utf8(w.finish().unwrap()).unwrap()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        assert!(a.starts_with("{\"t\":10,"));
    }

    #[test]
    fn trace_diff_finds_first_divergent_line() {
        let a = "x\ny\nz\n";
        let b = "x\nY\nz\n";
        let d = trace_diff(a, b).expect("must diverge");
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("y"));
        assert_eq!(d.right.as_deref(), Some("Y"));
        assert!(d.to_string().contains("line 2"));
    }

    #[test]
    fn trace_diff_reports_length_mismatch() {
        let a = "x\ny\n";
        let b = "x\n";
        let d = trace_diff(a, b).expect("must diverge");
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("y"));
        assert_eq!(d.right, None);
        assert!(d.to_string().contains("<end of trace>"));
    }

    #[test]
    fn trace_diff_pinpoints_gauge_divergence() {
        // Two streams identical except one NodeGauge value: the diff must
        // land on exactly that line, for both gauge-event kinds.
        let render = |free: u64, dirty: u64| {
            let mut w = JsonlWriter::new(Vec::new());
            w.on_event(
                SimTime::from_us(1),
                0,
                &ObsEvent::NodeGauge {
                    free_frames: free,
                    dirty_pages: 4,
                    disk_backlog_us: 0,
                    disk_busy_us: 10,
                    bg_cleaned: 0,
                },
            );
            w.on_event(
                SimTime::from_us(2),
                0,
                &ObsEvent::ProcGauge {
                    pid: 7,
                    resident: 100,
                    dirty,
                },
            );
            String::from_utf8(w.finish().unwrap()).unwrap()
        };
        let base = render(50, 9);
        assert_eq!(trace_diff(&base, &render(50, 9)), None);
        let d = trace_diff(&base, &render(51, 9)).expect("node gauge diverges");
        assert_eq!(d.line, 1);
        assert!(d.left.unwrap().contains("\"ev\":\"node_gauge\""));
        let d = trace_diff(&base, &render(50, 8)).expect("proc gauge diverges");
        assert_eq!(d.line, 2);
        assert!(d.right.unwrap().contains("\"ev\":\"proc_gauge\""));
    }

    #[test]
    fn identical_traces_have_no_diff() {
        assert_eq!(trace_diff("a\nb\n", "a\nb\n"), None);
        assert_eq!(trace_diff("", ""), None);
    }

    #[test]
    fn trace_diff_carries_three_lines_of_context() {
        let a = "1\n2\n3\n4\n5\n6\n7\n8\n";
        let b = "1\n2\n3\n4\nX\n6\n7\n9\n";
        let d = trace_diff(a, b).expect("must diverge");
        assert_eq!(d.line, 5);
        assert_eq!(d.before, vec!["2", "3", "4"]);
        assert_eq!(d.left_after, vec!["6", "7", "8"]);
        assert_eq!(d.right_after, vec!["6", "7", "9"]);
        let shown = d.to_string();
        assert!(shown.contains("| 4"), "context lines rendered: {shown}");
        assert!(shown.contains("left  +1 | 6"));
        assert!(shown.contains("right +3 | 9"));
    }

    #[test]
    fn trace_diff_context_is_short_near_the_edges() {
        let d = trace_diff("a\nz\n", "b\nz\n").expect("first line differs");
        assert_eq!(d.line, 1);
        assert!(d.before.is_empty());
        assert_eq!(d.left_after, vec!["z"]);
        // Length mismatch: the ended side has no after-context.
        let d = trace_diff("x\ny\n", "x\n").expect("length mismatch");
        assert_eq!(d.before, vec!["x"]);
        assert!(d.left_after.is_empty());
        assert!(d.right_after.is_empty());
    }
}
