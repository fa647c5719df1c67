//! The explicit-clock aggregation core.
//!
//! [`Recorder`] knows nothing about real time: callers pass monotonic
//! nanosecond timestamps into [`Recorder::enter`] / [`Recorder::exit`].
//! That makes the whole accounting model — inclusive vs. exclusive
//! attribution, recursion handling, stack-path self time — unit- and
//! property-testable with synthetic clocks, while the thin process-global
//! layer in `lib.rs` is the only place that reads `Instant::now`.
//!
//! Accounting model:
//!
//! * **Inclusive** time of a span is wall time with at least one
//!   activation of that span on the stack. Re-entrant activations do not
//!   double-count: only the outermost activation adds to `incl_ns`.
//! * **Exclusive** (self) time of a frame is its elapsed time minus the
//!   elapsed time of its direct children. Every nanosecond inside the
//!   root frame is exclusive to exactly one frame, so
//!   `Σ excl_ns over all spans == incl_ns of the root span` — the tiling
//!   invariant the `agp perf` table and its property test rely on.
//! * **Paths** aggregate exclusive time per call stack (sequence of span
//!   ids from the root), which is exactly the collapsed-stack format
//!   flamegraph tools consume.

use crate::hist::LatencyHistogram;
use crate::span::{Span, SPAN_COUNT};
use std::collections::BTreeMap;

/// Flat per-span aggregate.
#[derive(Clone, Debug, Default)]
pub struct SpanStat {
    /// Outermost-activation wall time (see module docs).
    pub incl_ns: u64,
    /// Self time: elapsed minus direct children's elapsed.
    pub excl_ns: u64,
    /// Per-frame elapsed-time distribution, ns: every activation,
    /// including re-entrant ones, so its count is the frames exited.
    pub hist: LatencyHistogram,
}

/// Exclusive-time aggregate for one call stack (root-first span ids).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Frames exited with exactly this stack.
    pub count: u64,
    /// Exclusive time accrued with exactly this stack.
    pub self_ns: u64,
}

struct Frame {
    span: Span,
    start_ns: u64,
    child_ns: u64,
}

/// Span-stack aggregator driven by an explicit monotonic clock.
pub struct Recorder {
    stats: Vec<SpanStat>,
    /// Open frames, root first.
    stack: Vec<Frame>,
    /// Span ids of `stack`, kept in lockstep so path keys are one slice copy.
    stack_ids: Vec<u16>,
    /// Activation depth per span, for re-entrancy-safe inclusive time.
    active: [u32; SPAN_COUNT],
    paths: BTreeMap<Vec<u16>, PathStat>,
    /// Exits observed with an empty stack (always a caller bug; kept
    /// visible instead of panicking in release runs).
    pub unbalanced_exits: u64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder {
            stats: vec![SpanStat::default(); SPAN_COUNT],
            stack: Vec::with_capacity(16),
            stack_ids: Vec::with_capacity(16),
            active: [0; SPAN_COUNT],
            paths: BTreeMap::new(),
            unbalanced_exits: 0,
        }
    }

    /// Open a frame for `span` at monotonic time `now_ns`.
    pub fn enter(&mut self, span: Span, now_ns: u64) {
        self.active[span.id()] += 1;
        self.stack_ids.push(span as u16);
        self.stack.push(Frame {
            span,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost frame at monotonic time `now_ns`.
    pub fn exit(&mut self, now_ns: u64) {
        let Some(frame) = self.stack.pop() else {
            self.unbalanced_exits += 1;
            return;
        };
        let el = now_ns.saturating_sub(frame.start_ns);
        let excl = el.saturating_sub(frame.child_ns);
        let id = frame.span.id();

        let path = self.paths.entry(self.stack_ids.clone()).or_default();
        path.count += 1;
        path.self_ns += excl;
        self.stack_ids.pop();

        let stat = &mut self.stats[id];
        stat.excl_ns += excl;
        stat.hist.record(el);
        self.active[id] -= 1;
        if self.active[id] == 0 {
            stat.incl_ns += el;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += el;
        }
    }

    /// Current stack depth (open frames).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The flat aggregate for one span.
    pub fn stat(&self, span: Span) -> &SpanStat {
        &self.stats[span.id()]
    }

    /// All flat aggregates, indexed by span id.
    pub fn stats(&self) -> &[SpanStat] {
        &self.stats
    }

    /// Exclusive-time aggregates keyed by root-first stack paths.
    pub fn paths(&self) -> &BTreeMap<Vec<u16>, PathStat> {
        &self.paths
    }

    /// Sum of exclusive time over every span.
    ///
    /// With balanced frames and a single root this equals the root span's
    /// inclusive time exactly (the tiling invariant).
    pub fn total_self_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.excl_ns).sum()
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.iter().all(|s| s.hist.is_empty()) && self.stack.is_empty()
    }

    /// Fold another recorder's *completed* frames into this one (open
    /// frames on `other`, if any, are not transferable and are ignored).
    /// Used to merge per-thread recorders into a process aggregate when
    /// simulations run on worker threads.
    pub fn merge_from(&mut self, other: &Recorder) {
        for (id, o) in other.stats.iter().enumerate() {
            let s = &mut self.stats[id];
            s.incl_ns += o.incl_ns;
            s.excl_ns += o.excl_ns;
            s.hist.merge(&o.hist);
        }
        for (k, p) in &other.paths {
            let slot = self.paths.entry(k.clone()).or_default();
            slot.count += p.count;
            slot.self_ns += p.self_ns;
        }
        self.unbalanced_exits += other.unbalanced_exits;
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        // Each frame's elapsed time lands in its log2 bucket.
        let mut r = Recorder::new();
        let mut t = 0;
        for ns in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            r.enter(Span::MemTouch, t);
            t += ns;
            r.exit(t);
        }
        let rows = r.stat(Span::MemTouch).hist.rows();
        assert_eq!(rows[0], (0, 1)); // the zero
        assert_eq!(rows[1], (1, 1)); // [1,2)
        assert_eq!(rows[2], (2, 2)); // [2,4): 2, 3
        assert_eq!(rows[3], (4, 2)); // [4,8): 4, 7
        assert_eq!(rows[4], (8, 1)); // [8,16): 8
        assert_eq!(rows[10], (512, 1)); // [512,1024): 1023
        assert_eq!(rows[11], (1024, 1)); // [1024,2048): 1024
        assert_eq!(r.stat(Span::MemTouch).hist.count(), 9);
    }

    #[test]
    fn exclusive_time_subtracts_direct_children() {
        let mut r = Recorder::new();
        r.enter(Span::Run, 0);
        r.enter(Span::SimDispatch, 10);
        r.enter(Span::MemTouch, 20);
        r.exit(30); // mem.touch: 10 incl, 10 excl
        r.exit(50); // sim.dispatch: 40 incl, 30 excl
        r.exit(100); // sim.run: 100 incl, 60 excl

        assert_eq!(r.stat(Span::MemTouch).incl_ns, 10);
        assert_eq!(r.stat(Span::MemTouch).excl_ns, 10);
        assert_eq!(r.stat(Span::SimDispatch).incl_ns, 40);
        assert_eq!(r.stat(Span::SimDispatch).excl_ns, 30);
        assert_eq!(r.stat(Span::Run).incl_ns, 100);
        assert_eq!(r.stat(Span::Run).excl_ns, 60);
        assert_eq!(r.total_self_ns(), r.stat(Span::Run).incl_ns);
        assert_eq!(r.depth(), 0);
        assert_eq!(r.unbalanced_exits, 0);
    }

    #[test]
    fn reentrant_spans_count_inclusive_once() {
        let mut r = Recorder::new();
        r.enter(Span::Run, 0);
        r.enter(Span::MemFault, 0);
        r.enter(Span::MemFault, 10); // recursive activation
        r.exit(20);
        r.exit(40);
        r.exit(40);
        let s = r.stat(Span::MemFault);
        assert_eq!(s.hist.count(), 2);
        // Only the outer activation contributes inclusive time.
        assert_eq!(s.incl_ns, 40);
        // Exclusive still tiles: inner 10 + outer (40 - 10) = 40.
        assert_eq!(s.excl_ns, 40);
        assert_eq!(r.total_self_ns(), r.stat(Span::Run).incl_ns);
    }

    #[test]
    fn paths_aggregate_self_time_per_stack() {
        let mut r = Recorder::new();
        r.enter(Span::Run, 0);
        for i in 0..3u64 {
            r.enter(Span::SimDispatch, 100 * i);
            r.enter(Span::MemTouch, 100 * i + 10);
            r.exit(100 * i + 30);
            r.exit(100 * i + 50);
        }
        r.exit(1000);

        let key_touch = vec![
            Span::Run as u16,
            Span::SimDispatch as u16,
            Span::MemTouch as u16,
        ];
        let key_dispatch = vec![Span::Run as u16, Span::SimDispatch as u16];
        let touch = r.paths()[&key_touch];
        assert_eq!(touch.count, 3);
        assert_eq!(touch.self_ns, 60);
        let dispatch = r.paths()[&key_dispatch];
        assert_eq!(dispatch.count, 3);
        assert_eq!(dispatch.self_ns, 3 * (50 - 20));
        // Path self times tile too.
        let path_total: u64 = r.paths().values().map(|p| p.self_ns).sum();
        assert_eq!(path_total, r.stat(Span::Run).incl_ns);
    }

    #[test]
    fn unbalanced_exit_is_counted_not_fatal() {
        let mut r = Recorder::new();
        r.exit(5);
        assert_eq!(r.unbalanced_exits, 1);
        assert!(r.is_empty() || r.unbalanced_exits == 1);
    }
}
