//! The explain report: deterministic JSON (golden-pinned, stable field
//! order, pretty-printed) plus the human-facing tables `agp explain`
//! prints.

use agp_metrics::{Json, Table};

use crate::analyze::{Analyzer, Diagnostic, JobStalls, SwitchExplain};
use crate::causes::CauseBuckets;

/// Schema version stamped into every explain (and diff) document.
pub const EXPLAIN_SCHEMA_VERSION: u64 = 1;

/// How many slowest switches keep full per-switch detail in the report.
pub const SWITCH_DETAIL_LIMIT: usize = 8;

/// Identity of the run being explained, echoed into the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Experiment id (`fig9`, …) or a free-form label.
    pub experiment: String,
    /// Scale name (`quick` / `paper`).
    pub scale: String,
    /// Policy label (`orig`, `so`, `so/ao/ai/bg`, …).
    pub policy: String,
    /// Scheduling mode (`gang` / `batch`).
    pub mode: String,
    /// Deterministic seed the run used.
    pub seed: u64,
}

/// The complete causal explanation of one run.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// Run identity.
    pub meta: RunMeta,
    /// End-to-end completion time, µs.
    pub makespan_us: u64,
    /// Gang switches performed (including the initial placement).
    pub switch_count: u64,
    /// Summed switch latency, µs (matches `agp profile`'s total).
    pub switch_total_us: u64,
    /// Critical-path time per cause, summed over every switch; the
    /// bucket total equals `switch_total_us` exactly.
    pub causes: CauseBuckets,
    /// The [`SWITCH_DETAIL_LIMIT`] slowest switches (total µs
    /// descending, switch number ascending on ties), full detail.
    pub switch_detail: Vec<SwitchExplain>,
    /// True when the run had more switches than the detail limit.
    pub switch_detail_truncated: bool,
    /// Per-job stall attribution.
    pub jobs: Vec<JobStalls>,
    /// Anomaly diagnostics in stable kind order (zero counts included).
    pub diagnostics: Vec<Diagnostic>,
    /// Pages the background writer cleaned ahead of switch edges.
    pub bg_cleaned_pages: u64,
}

impl ExplainReport {
    /// Assemble the report from a drained [`Analyzer`] and the run's
    /// result.
    pub fn build(analyzer: Analyzer, meta: RunMeta, makespan_us: u64, switch_count: u64) -> Self {
        let mut causes = CauseBuckets::new();
        let mut switch_total_us = 0u64;
        for sw in analyzer.switches() {
            causes.merge(&sw.causes);
            switch_total_us += sw.total_us;
        }
        let mut detail: Vec<SwitchExplain> = analyzer.switches().to_vec();
        detail.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.switch.cmp(&b.switch)));
        let truncated = detail.len() > SWITCH_DETAIL_LIMIT;
        detail.truncate(SWITCH_DETAIL_LIMIT);
        ExplainReport {
            meta,
            makespan_us,
            switch_count,
            switch_total_us,
            causes,
            switch_detail: detail,
            switch_detail_truncated: truncated,
            jobs: analyzer.jobs().to_vec(),
            diagnostics: analyzer.diagnostics(),
            bg_cleaned_pages: analyzer.bg_cleaned_pages(),
        }
    }

    /// The report as a [`Json`] document with a fixed field order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), num(EXPLAIN_SCHEMA_VERSION)),
            ("kind".into(), Json::Str("explain".into())),
            ("meta".into(), meta_json(&self.meta)),
            (
                "run".into(),
                Json::Obj(vec![
                    ("makespan_us".into(), num(self.makespan_us)),
                    ("switches".into(), num(self.switch_count)),
                    ("switch_total_us".into(), num(self.switch_total_us)),
                    ("bg_cleaned_pages".into(), num(self.bg_cleaned_pages)),
                ]),
            ),
            ("causes".into(), causes_json(&self.causes)),
            (
                "switch_detail".into(),
                Json::Arr(self.switch_detail.iter().map(switch_json).collect()),
            ),
            (
                "switch_detail_truncated".into(),
                Json::Bool(self.switch_detail_truncated),
            ),
            (
                "jobs".into(),
                Json::Arr(self.jobs.iter().map(job_json).collect()),
            ),
            (
                "diagnostics".into(),
                Json::Arr(self.diagnostics.iter().map(diag_json).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON, byte-deterministic (pinned by the golden
    /// test), with a trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty() + "\n"
    }

    /// The human-facing tables `agp explain` prints.
    pub fn tables(&self) -> Vec<Table> {
        let mut t1 = Table::new(
            format!(
                "Critical-path causes — {} ({})",
                self.meta.policy, self.meta.experiment
            ),
            &["cause", "time (us)", "share (%)"],
        );
        let total = self.switch_total_us.max(1) as f64;
        for (cause, us) in self.causes.iter() {
            if cause.is_fault() && us == 0 {
                continue;
            }
            t1.row(vec![
                cause.name().into(),
                us.to_string(),
                format!("{:.1}", us as f64 * 100.0 / total),
            ]);
        }

        let mut t2 = Table::new(
            "Slowest switches (critical path)",
            &[
                "switch",
                "at (us)",
                "total (us)",
                "pageout",
                "pagein",
                "dominant",
                "terminal",
            ],
        );
        for sw in &self.switch_detail {
            t2.row(vec![
                sw.switch.to_string(),
                sw.at_us.to_string(),
                sw.total_us.to_string(),
                sw.pageout_us.to_string(),
                sw.pagein_us.to_string(),
                sw.causes
                    .dominant()
                    .map(|c| c.name().to_string())
                    .unwrap_or_else(|| "-".into()),
                if sw.critical.is_empty() {
                    "-".into()
                } else {
                    sw.critical.clone()
                },
            ]);
        }

        let mut t3 = Table::new(
            "Per-job stall attribution",
            &[
                "job",
                "fault stalls",
                "stall (us)",
                "false-evict stalls",
                "false-evict (us)",
                "barriers",
                "skew (us)",
            ],
        );
        for j in &self.jobs {
            t3.row(vec![
                j.name.clone(),
                j.fault_stalls.to_string(),
                j.fault_stall_us.to_string(),
                j.false_eviction_stalls.to_string(),
                j.false_eviction_stall_us.to_string(),
                j.barriers.to_string(),
                j.barrier_skew_us.to_string(),
            ]);
        }
        vec![t1, t2, t3]
    }

    /// One line per diagnostic kind (plus its first provenance sample),
    /// for the CLI's notes section.
    pub fn notes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.diagnostics {
            let mut line = format!("{}: {} occurrences, {}us", d.kind, d.count, d.us);
            if let Some(s) = d.samples.first() {
                line.push_str(&format!(" — e.g. {s}"));
            }
            out.push(line);
        }
        out.push(format!(
            "bg writer cleaned {} pages ahead of switch edges",
            self.bg_cleaned_pages
        ));
        out
    }
}

pub(crate) fn num(v: u64) -> Json {
    Json::Num(v as f64)
}

pub(crate) fn inum(v: i64) -> Json {
    Json::Num(v as f64)
}

pub(crate) fn meta_json(m: &RunMeta) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str(m.experiment.clone())),
        ("scale".into(), Json::Str(m.scale.clone())),
        ("policy".into(), Json::Str(m.policy.clone())),
        ("mode".into(), Json::Str(m.mode.clone())),
        ("seed".into(), num(m.seed)),
    ])
}

/// Cause buckets as JSON. The fault-taxonomy causes only appear when
/// they hold time, so fault-free reports keep the pre-chaos schema (and
/// the committed golden) byte for byte.
pub(crate) fn causes_json(c: &CauseBuckets) -> Json {
    Json::Obj(
        c.iter()
            .filter(|&(cause, us)| !cause.is_fault() || us > 0)
            .map(|(cause, us)| (cause.name().into(), num(us)))
            .collect(),
    )
}

fn switch_json(sw: &SwitchExplain) -> Json {
    Json::Obj(vec![
        ("switch".into(), num(sw.switch)),
        ("at_us".into(), num(sw.at_us)),
        ("total_us".into(), num(sw.total_us)),
        ("pageout_us".into(), num(sw.pageout_us)),
        ("pagein_us".into(), num(sw.pagein_us)),
        ("causes".into(), causes_json(&sw.causes)),
        ("critical".into(), Json::Str(sw.critical.clone())),
    ])
}

pub(crate) fn job_json(j: &JobStalls) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(j.name.clone())),
        ("fault_stalls".into(), num(j.fault_stalls)),
        ("fault_stall_us".into(), num(j.fault_stall_us)),
        ("false_eviction_stalls".into(), num(j.false_eviction_stalls)),
        (
            "false_eviction_stall_us".into(),
            num(j.false_eviction_stall_us),
        ),
        ("barriers".into(), num(j.barriers)),
        ("barrier_skew_us".into(), num(j.barrier_skew_us)),
    ])
}

pub(crate) fn diag_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("kind".into(), Json::Str(d.kind.into())),
        ("count".into(), num(d.count)),
        ("us".into(), num(d.us)),
        (
            "samples".into(),
            Json::Arr(d.samples.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causes::Cause;

    fn meta() -> RunMeta {
        RunMeta {
            experiment: "fig9".into(),
            scale: "quick".into(),
            policy: "so".into(),
            mode: "gang".into(),
            seed: 42,
        }
    }

    #[test]
    fn report_json_has_stable_shape_and_roundtrips() {
        let r = ExplainReport::build(Analyzer::new(), meta(), 1_000_000, 3);
        let text = r.to_json_string();
        let doc = Json::parse(&text).expect("pretty output parses");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(EXPLAIN_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("explain"));
        let diags = doc
            .get("diagnostics")
            .and_then(Json::as_array)
            .expect("diagnostics");
        assert_eq!(diags.len(), 3, "all kinds present even at zero count");
        // A fault-free run emits exactly the core (pre-chaos) cause keys,
        // in schema order.
        let causes = doc.get("causes").and_then(Json::as_object).expect("causes");
        let keys: Vec<&str> = causes.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = Cause::CORE.iter().map(|c| c.name()).collect();
        assert_eq!(keys, want);
        // Byte-determinism of the writer itself.
        assert_eq!(text, r.to_json_string());
    }

    #[test]
    fn fault_causes_appear_only_when_nonzero() {
        let mut r = ExplainReport::build(Analyzer::new(), meta(), 1_000, 1);
        r.causes.add(Cause::FaultIoError, 250);
        let doc = Json::parse(&r.to_json_string()).expect("parses");
        let causes = doc.get("causes").and_then(Json::as_object).expect("causes");
        let keys: Vec<&str> = causes.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"fault_io_error"));
        assert!(
            !keys.contains(&"fault_disk_slow"),
            "still-zero fault cause stays hidden"
        );
        // Schema order is preserved: the fault cause slots in before "other".
        assert_eq!(keys.last(), Some(&"other"));
        assert_eq!(r.tables()[0].len(), Cause::CORE.len() + 1);
    }

    #[test]
    fn tables_cover_every_cause() {
        let r = ExplainReport::build(Analyzer::new(), meta(), 0, 0);
        let t = r.tables();
        assert_eq!(t[0].len(), Cause::CORE.len());
        assert!(r
            .notes()
            .iter()
            .any(|n| n.contains("false_eviction_refault")));
    }
}
