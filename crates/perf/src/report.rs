//! Frozen, exportable form of one profiling session.
//!
//! [`PerfReport`] snapshots a [`Recorder`] into plain data that the CLI,
//! the BENCH manifest and the Perfetto exporter can all consume without
//! holding the thread-local recorder.
//! All serialization here is hand-rolled and deterministic: spans are in
//! registry order, paths in lexicographic stack order, and floats are
//! fixed-precision — identical inputs give byte-identical output.

use crate::hist::LatencyHistogram;
use crate::recorder::Recorder;
use crate::span::Span;

/// Prefix for every collapsed-stack line (the flamegraph root frame).
pub const COLLAPSED_ROOT: &str = "agp";

/// Flat aggregate for one span, with display-ready quantiles.
#[derive(Clone, Debug)]
pub struct SpanAgg {
    /// The span this row aggregates.
    pub span: Span,
    /// Frames exited.
    pub count: u64,
    /// Outermost-activation wall time.
    pub incl_ns: u64,
    /// Self time (elapsed minus direct children).
    pub excl_ns: u64,
    /// Per-frame elapsed-time histogram, ns.
    pub hist: LatencyHistogram,
}

impl SpanAgg {
    /// Median per-frame latency (interpolated within its log2 bucket).
    pub fn p50_ns(&self) -> u64 {
        self.hist.p50()
    }

    /// Tail per-frame latency (interpolated within its log2 bucket).
    pub fn p99_ns(&self) -> u64 {
        self.hist.p99()
    }
}

/// Exclusive-time aggregate for one call stack.
#[derive(Clone, Debug)]
pub struct PathAgg {
    /// Root-first span names.
    pub stack: Vec<&'static str>,
    /// Frames exited with exactly this stack.
    pub count: u64,
    /// Exclusive time accrued with exactly this stack.
    pub self_ns: u64,
}

impl PathAgg {
    /// `agp;sim.run;...` — the collapsed-stack frame string.
    pub fn collapsed_key(&self) -> String {
        let mut s = String::from(COLLAPSED_ROOT);
        for name in &self.stack {
            s.push(';');
            s.push_str(name);
        }
        s
    }
}

/// Throughput gauges derived from run totals; all rates use measured
/// host wall time as the denominator.
#[derive(Clone, Copy, Debug, Default)]
pub struct Derived {
    /// Simulator events handled.
    pub events: u64,
    /// Page faults serviced.
    pub faults: u64,
    /// Simulated microseconds advanced.
    pub sim_us: u64,
    /// Measured host wall time for the run.
    pub wall_ns: u64,
}

impl Derived {
    fn per_sec(n: u64, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            0.0
        } else {
            n as f64 * 1e9 / wall_ns as f64
        }
    }

    /// Simulator events handled per host second.
    pub fn events_per_sec(&self) -> f64 {
        Self::per_sec(self.events, self.wall_ns)
    }

    /// Page faults serviced per host second.
    pub fn faults_per_sec(&self) -> f64 {
        Self::per_sec(self.faults, self.wall_ns)
    }

    /// Simulated microseconds advanced per host millisecond.
    pub fn sim_us_per_wall_ms(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.sim_us as f64 * 1e6 / self.wall_ns as f64
        }
    }
}

/// A frozen profiling session.
#[derive(Clone, Debug, Default)]
pub struct PerfReport {
    /// Spans with at least one exit, in registry order.
    pub spans: Vec<SpanAgg>,
    /// Stack paths in lexicographic (id-sequence) order.
    pub paths: Vec<PathAgg>,
    /// Enter/exit mismatches observed (0 on a healthy run).
    pub unbalanced_exits: u64,
    /// Throughput gauges, when the caller supplied run totals.
    pub derived: Option<Derived>,
}

impl PerfReport {
    /// Snapshot a recorder. The recorder should be fully unwound
    /// (`depth() == 0`); open frames are simply not included.
    pub fn from_recorder(rec: &Recorder) -> Self {
        // Stats are indexed by the registry, so every id resolves.
        #[allow(clippy::expect_used)]
        let spans = rec
            .stats()
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.hist.is_empty())
            .map(|(id, s)| SpanAgg {
                span: Span::from_id(id).expect("stats indexed by registry"),
                count: s.hist.count(),
                incl_ns: s.incl_ns,
                excl_ns: s.excl_ns,
                hist: s.hist.clone(),
            })
            .collect();
        // Recorder paths only hold registry ids.
        #[allow(clippy::expect_used)]
        let paths = rec
            .paths()
            .iter()
            .map(|(ids, p)| PathAgg {
                stack: ids
                    .iter()
                    .map(|&id| {
                        Span::from_id(id as usize)
                            .expect("path ids come from the registry")
                            .name()
                    })
                    .collect(),
                count: p.count,
                self_ns: p.self_ns,
            })
            .collect();
        PerfReport {
            spans,
            paths,
            unbalanced_exits: rec.unbalanced_exits,
            derived: None,
        }
    }

    /// Sum of exclusive time over every span — equals the root span's
    /// inclusive time on a balanced single-root session.
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.excl_ns).sum()
    }

    /// Rows sorted hottest-first by exclusive time (ties: registry order).
    pub fn by_self_time(&self) -> Vec<&SpanAgg> {
        let mut rows: Vec<&SpanAgg> = self.spans.iter().collect();
        rows.sort_by(|a, b| {
            b.excl_ns
                .cmp(&a.excl_ns)
                .then_with(|| a.span.id().cmp(&b.span.id()))
        });
        rows
    }

    /// Collapsed-stack export for flamegraph tooling, one
    /// `agp;span;...;span <weight>` line per stack path. Weights are
    /// exclusive nanoseconds, so frame widths tile exactly.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&p.collapsed_key());
            out.push(' ');
            out.push_str(&p.self_ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Deterministic JSON encoding (the `agp perf --json` payload).
    pub fn to_json_string(&self) -> String {
        let mut s = String::from("{\n  \"schema_version\": 1,\n");
        push_kv_u64(&mut s, 1, "total_self_ns", self.total_self_ns(), true);
        push_kv_u64(&mut s, 1, "unbalanced_exits", self.unbalanced_exits, true);
        if let Some(d) = &self.derived {
            s.push_str("  \"derived\": {\n");
            push_kv_u64(&mut s, 2, "events", d.events, true);
            push_kv_u64(&mut s, 2, "faults", d.faults, true);
            push_kv_u64(&mut s, 2, "sim_us", d.sim_us, true);
            push_kv_u64(&mut s, 2, "wall_ns", d.wall_ns, true);
            push_kv_f64(&mut s, 2, "events_per_sec", d.events_per_sec(), true);
            push_kv_f64(&mut s, 2, "faults_per_sec", d.faults_per_sec(), true);
            push_kv_f64(
                &mut s,
                2,
                "sim_us_per_wall_ms",
                d.sim_us_per_wall_ms(),
                false,
            );
            s.push_str("  },\n");
        }
        s.push_str("  \"spans\": [\n");
        for (i, a) in self.spans.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"span\": \"{}\", ", a.span.name()));
            s.push_str(&format!("\"count\": {}, ", a.count));
            s.push_str(&format!("\"incl_ns\": {}, ", a.incl_ns));
            s.push_str(&format!("\"excl_ns\": {}, ", a.excl_ns));
            s.push_str(&format!("\"max_ns\": {}, ", a.hist.max()));
            s.push_str(&format!("\"p50_ns\": {}, ", a.p50_ns()));
            s.push_str(&format!("\"p99_ns\": {}}}", a.p99_ns()));
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"paths\": [\n");
        for (i, p) in self.paths.iter().enumerate() {
            s.push_str("    {");
            s.push_str(&format!("\"stack\": \"{}\", ", p.collapsed_key()));
            s.push_str(&format!("\"count\": {}, ", p.count));
            s.push_str(&format!("\"self_ns\": {}}}", p.self_ns));
            s.push_str(if i + 1 < self.paths.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn push_kv_u64(s: &mut String, indent: usize, key: &str, v: u64, comma: bool) {
    for _ in 0..indent {
        s.push_str("  ");
    }
    s.push_str(&format!("\"{key}\": {v}"));
    s.push_str(if comma { ",\n" } else { "\n" });
}

fn push_kv_f64(s: &mut String, indent: usize, key: &str, v: f64, comma: bool) {
    for _ in 0..indent {
        s.push_str("  ");
    }
    s.push_str(&format!("\"{key}\": {v:.3}"));
    s.push_str(if comma { ",\n" } else { "\n" });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new();
        r.enter(Span::Run, 0);
        r.enter(Span::SimDispatch, 100);
        r.enter(Span::MemTouch, 200);
        r.exit(1_200);
        r.exit(2_000);
        r.enter(Span::SimSample, 2_500);
        r.exit(2_600);
        r.exit(10_000);
        r
    }

    #[test]
    fn report_snapshot_preserves_tiling() {
        let rec = sample_recorder();
        let rep = PerfReport::from_recorder(&rec);
        assert_eq!(rep.spans.len(), 4);
        assert_eq!(rep.total_self_ns(), rec.stat(Span::Run).incl_ns);
        let hottest = rep.by_self_time()[0];
        assert_eq!(hottest.span, Span::Run);
    }

    #[test]
    fn collapsed_lines_are_semicolon_stacks_with_ns_weights() {
        let rep = PerfReport::from_recorder(&sample_recorder());
        let collapsed = rep.collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert!(lines.contains(&"agp;sim.run;sim.dispatch;mem.touch_run 1000"));
        assert!(lines.contains(&"agp;sim.run;sim.dispatch 900"));
        assert!(lines.contains(&"agp;sim.run;sim.sample 100"));
        let total: u64 = lines
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, rep.total_self_ns());
    }

    #[test]
    fn json_is_deterministic_and_carries_derived_gauges() {
        let mut rep = PerfReport::from_recorder(&sample_recorder());
        rep.derived = Some(Derived {
            events: 3,
            faults: 1,
            sim_us: 50,
            wall_ns: 10_000,
        });
        let a = rep.to_json_string();
        let b = rep.to_json_string();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\": 1"));
        assert!(a.contains("\"events_per_sec\": 300000.000"));
        assert!(a.contains("\"sim_us_per_wall_ms\": 5000.000"));
        assert!(a.contains("\"span\": \"sim.run\""));
        assert!(a.contains("\"stack\": \"agp;sim.run;sim.dispatch;mem.touch_run\""));
    }

    #[test]
    fn derived_rates_handle_zero_wall() {
        let d = Derived::default();
        assert_eq!(d.events_per_sec(), 0.0);
        assert_eq!(d.faults_per_sec(), 0.0);
        assert_eq!(d.sim_us_per_wall_ms(), 0.0);
    }
}
