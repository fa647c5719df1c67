//! Differential explanation: attribute the end-to-end delta between two
//! same-seed runs differing in one policy bit to cause buckets (the
//! machine-checkable form of the paper's Fig. 9 ablation).

use agp_metrics::{Json, Table};

use crate::causes::Cause;
use crate::report::{inum, meta_json, num, ExplainReport, EXPLAIN_SCHEMA_VERSION};

/// `test − base` for one quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delta {
    /// Value in the test run.
    pub test: u64,
    /// Value in the base run.
    pub base: u64,
}

impl Delta {
    fn of(test: u64, base: u64) -> Delta {
        Delta { test, base }
    }

    /// Signed `test − base`.
    pub fn delta(&self) -> i64 {
        self.test as i64 - self.base as i64
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("test".into(), num(self.test)),
            ("base".into(), num(self.base)),
            ("delta".into(), inum(self.delta())),
        ])
    }
}

/// The differential report `agp explain <id> --against <policy>` emits.
#[derive(Clone, Debug)]
pub struct ExplainDiff {
    /// The test run's explanation.
    pub test: ExplainReport,
    /// The base run's explanation.
    pub base: ExplainReport,
}

impl ExplainDiff {
    /// Pair two reports. They should come from runs sharing seed,
    /// workload, and mode (the constructor does not enforce it; the
    /// `meta` echo in the JSON lets a reader check).
    pub fn new(test: ExplainReport, base: ExplainReport) -> ExplainDiff {
        ExplainDiff { test, base }
    }

    /// End-to-end completion delta, µs (negative = test faster).
    pub fn makespan(&self) -> Delta {
        Delta::of(self.test.makespan_us, self.base.makespan_us)
    }

    /// Summed switch-latency delta, µs.
    pub fn switch_total(&self) -> Delta {
        Delta::of(self.test.switch_total_us, self.base.switch_total_us)
    }

    /// Per-cause deltas in schema order. Fault-taxonomy causes are
    /// included only when either side holds time, so fault-free diffs
    /// keep the pre-chaos schema.
    pub fn causes(&self) -> Vec<(Cause, Delta)> {
        Cause::ALL
            .iter()
            .map(|&c| {
                (
                    c,
                    Delta::of(self.test.causes.get(c), self.base.causes.get(c)),
                )
            })
            .filter(|&(c, d)| !c.is_fault() || d.test > 0 || d.base > 0)
            .collect()
    }

    /// Fault-stall delta summed over jobs, µs.
    pub fn fault_stall(&self) -> Delta {
        let sum = |r: &ExplainReport| r.jobs.iter().map(|j| j.fault_stall_us).sum();
        Delta::of(sum(&self.test), sum(&self.base))
    }

    /// False-eviction refault stall delta, µs (the §3.1 bucket the
    /// selective page-out bit exists to shrink).
    pub fn false_eviction_stall(&self) -> Delta {
        let stall = |r: &ExplainReport| {
            r.diagnostics
                .iter()
                .find(|d| d.kind == "false_eviction_refault")
                .map(|d| d.us)
                .unwrap_or(0)
        };
        Delta::of(stall(&self.test), stall(&self.base))
    }

    /// False-eviction refault counts (test, base).
    pub fn false_eviction_counts(&self) -> Delta {
        let count = |r: &ExplainReport| {
            r.diagnostics
                .iter()
                .find(|d| d.kind == "false_eviction_refault")
                .map(|d| d.count)
                .unwrap_or(0)
        };
        Delta::of(count(&self.test), count(&self.base))
    }

    /// Provenance samples of the base run's false-eviction refaults —
    /// the named events whose elimination the delta is attributed to.
    pub fn base_false_eviction_samples(&self) -> &[String] {
        self.base
            .diagnostics
            .iter()
            .find(|d| d.kind == "false_eviction_refault")
            .map(|d| d.samples.as_slice())
            .unwrap_or(&[])
    }

    /// Background-writer cleaned-page delta (the bg-write savings side).
    pub fn bg_cleaned_pages(&self) -> Delta {
        Delta::of(self.test.bg_cleaned_pages, self.base.bg_cleaned_pages)
    }

    /// The diff as a [`Json`] document with a fixed field order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), num(EXPLAIN_SCHEMA_VERSION)),
            ("kind".into(), Json::Str("explain_diff".into())),
            ("test".into(), meta_json(&self.test.meta)),
            ("base".into(), meta_json(&self.base.meta)),
            ("makespan_us".into(), self.makespan().json()),
            ("switch_total_us".into(), self.switch_total().json()),
            (
                "causes".into(),
                Json::Obj(
                    self.causes()
                        .into_iter()
                        .map(|(c, d)| (c.name().into(), d.json()))
                        .collect(),
                ),
            ),
            (
                "stalls".into(),
                Json::Obj(vec![
                    ("fault_stall_us".into(), self.fault_stall().json()),
                    (
                        "false_eviction_stall_us".into(),
                        self.false_eviction_stall().json(),
                    ),
                    (
                        "false_eviction_refaults".into(),
                        self.false_eviction_counts().json(),
                    ),
                ]),
            ),
            ("bg_cleaned_pages".into(), self.bg_cleaned_pages().json()),
            (
                "base_false_eviction_samples".into(),
                Json::Arr(
                    self.base_false_eviction_samples()
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-printed JSON, byte-deterministic, trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty() + "\n"
    }

    /// Human-facing diff tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "Differential explanation — {} vs {} (seed {})",
                self.test.meta.policy, self.base.meta.policy, self.base.meta.seed
            ),
            &["quantity", "test", "base", "delta"],
        );
        let mut push = |name: &str, d: Delta| {
            t.row(vec![
                name.into(),
                d.test.to_string(),
                d.base.to_string(),
                format!("{:+}", d.delta()),
            ]);
        };
        push("makespan_us", self.makespan());
        push("switch_total_us", self.switch_total());
        for (c, d) in self.causes() {
            push(c.name(), d);
        }
        push("fault_stall_us", self.fault_stall());
        push("false_eviction_stall_us", self.false_eviction_stall());
        push("false_eviction_refaults", self.false_eviction_counts());
        push("bg_cleaned_pages", self.bg_cleaned_pages());
        vec![t]
    }

    /// Narrative lines for the CLI (what the delta is attributed to).
    pub fn notes(&self) -> Vec<String> {
        let mut out = Vec::new();
        let fe = self.false_eviction_stall();
        out.push(format!(
            "false-eviction refault stall: {}us -> {}us ({:+}us)",
            fe.base,
            fe.test,
            fe.delta()
        ));
        for s in self.base_false_eviction_samples() {
            out.push(format!("  base: {s}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::Analyzer;
    use crate::report::RunMeta;

    fn report(policy: &str, makespan: u64) -> ExplainReport {
        ExplainReport::build(
            Analyzer::new(),
            RunMeta {
                experiment: "fig9".into(),
                scale: "quick".into(),
                policy: policy.into(),
                mode: "gang".into(),
                seed: 7,
            },
            makespan,
            2,
        )
    }

    #[test]
    fn diff_json_is_deterministic_and_signed() {
        let d = ExplainDiff::new(report("so", 900), report("orig", 1_000));
        assert_eq!(d.makespan().delta(), -100);
        let text = d.to_json_string();
        assert_eq!(text, d.to_json_string());
        let doc = Json::parse(&text).expect("diff parses");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("explain_diff"));
        let mk = doc.get("makespan_us").expect("makespan block");
        assert_eq!(mk.get("delta").and_then(Json::as_f64), Some(-100.0));
    }
}
