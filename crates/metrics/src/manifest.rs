//! The paper-parity manifest: every EXPERIMENTS.md number as a flat,
//! versioned, machine-comparable map — plus the tolerance-band compare
//! that turns it into a regression gate (`agp report --check`).
//!
//! A manifest is a `metric key → f64` map. Keys are dotted slugs,
//! `"{experiment}.{table}.{row}.{column}"` (built by the experiments
//! crate), so tolerances can target anything from one cell to a whole
//! experiment by prefix. Serialization is the hand-rolled [`crate::json`]
//! writer: BTreeMap key order + deterministic float formatting means two
//! identical runs produce byte-identical `report.json` files.

use crate::json::{format_f64, Json};
use std::collections::BTreeMap;
use std::fmt;

/// Schema version stamped into `report.json` / `BENCH_agp.json`; bump on
/// breaking shape changes so stale goldens fail loudly instead of
/// comparing garbage.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// A flat map of parity metrics from one run of the experiment registry.
#[derive(Clone, Debug, PartialEq)]
pub struct ParityManifest {
    /// Manifest schema version (see [`MANIFEST_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment scale the run used ("quick" or "paper").
    pub scale: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Metric slug → value. BTreeMap so serialization order is fixed.
    pub metrics: BTreeMap<String, f64>,
}

impl ParityManifest {
    /// An empty manifest for the given scale and seed.
    pub fn new(scale: impl Into<String>, seed: u64) -> Self {
        ParityManifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            scale: scale.into(),
            seed,
            metrics: BTreeMap::new(),
        }
    }

    /// Record one metric. Duplicate keys get a `#2`, `#3`, … suffix so no
    /// table cell is silently dropped.
    pub fn insert(&mut self, key: impl Into<String>, value: f64) {
        use std::collections::btree_map::Entry;
        let key = key.into();
        let mut n = 1u32;
        loop {
            let k = if n == 1 {
                key.clone()
            } else {
                format!("{key}#{n}")
            };
            if let Entry::Vacant(slot) = self.metrics.entry(k) {
                slot.insert(value);
                return;
            }
            n += 1;
        }
    }

    /// Deterministic pretty JSON (2-space indent, sorted metric keys,
    /// trailing newline). The seed is a JSON number, exact below 2^53
    /// (as `parse` needs it to be).
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v)))
            .collect();
        let doc = Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version.into()),
            ),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        doc.to_string_pretty() + "\n"
    }

    /// Parse a manifest written by [`ParityManifest::to_json`] (or any
    /// standard encoder producing the same shape).
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")? as u32;
        if schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(format!(
                "manifest schema_version {schema_version} != supported {MANIFEST_SCHEMA_VERSION}"
            ));
        }
        let scale = v
            .get("scale")
            .and_then(Json::as_str)
            .ok_or("missing scale")?
            .to_string();
        let seed = v.get("seed").and_then(Json::as_f64).ok_or("missing seed")? as u64;
        let mut metrics = BTreeMap::new();
        for (k, val) in v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("missing metrics object")?
        {
            let num = val
                .as_f64()
                .ok_or_else(|| format!("metric {k} is not a number"))?;
            metrics.insert(k.clone(), num);
        }
        Ok(ParityManifest {
            schema_version,
            scale,
            seed,
            metrics,
        })
    }

    /// Compare this run against a golden manifest under `tol`, returning
    /// every drifted/missing/extra metric (empty = pass). Key order of the
    /// result is deterministic (sorted).
    pub fn compare(&self, golden: &ParityManifest, tol: &Tolerances) -> Vec<Drift> {
        let mut out = Vec::new();
        if self.scale != golden.scale {
            out.push(Drift {
                key: "<scale>".to_string(),
                got: None,
                want: None,
                allowed: 0.0,
                note: format!("run scale '{}' vs golden '{}'", self.scale, golden.scale),
            });
        }
        let keys: BTreeMap<&String, ()> = self
            .metrics
            .keys()
            .chain(golden.metrics.keys())
            .map(|k| (k, ()))
            .collect();
        for (key, ()) in keys {
            let got = self.metrics.get(key).copied();
            let want = golden.metrics.get(key).copied();
            let t = tol.for_key(key);
            match (got, want) {
                (Some(g), Some(w)) => {
                    let allowed = t.abs.max(t.rel * w.abs());
                    if (g - w).abs() > allowed {
                        out.push(Drift {
                            key: key.clone(),
                            got,
                            want,
                            allowed,
                            note: String::new(),
                        });
                    }
                }
                _ => out.push(Drift {
                    key: key.clone(),
                    got,
                    want,
                    allowed: 0.0,
                    note: String::new(),
                }),
            }
        }
        out
    }
}

/// Allowed deviation for one metric: passes when
/// `|got − want| ≤ max(abs, rel·|want|)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tolerance {
    /// Relative band (fraction of the golden value).
    pub rel: f64,
    /// Absolute band (same unit as the metric).
    pub abs: f64,
}

impl Tolerance {
    /// A band of `rel` fraction and `abs` absolute slack.
    pub fn new(rel: f64, abs: f64) -> Self {
        Tolerance { rel, abs }
    }

    /// Exact match required.
    pub fn exact() -> Self {
        Tolerance { rel: 0.0, abs: 0.0 }
    }
}

/// Per-metric tolerance bands: a default plus longest-prefix overrides.
#[derive(Clone, Debug)]
pub struct Tolerances {
    default: Tolerance,
    /// `(key prefix, band)`, matched longest-prefix-first.
    overrides: Vec<(String, Tolerance)>,
}

impl Tolerances {
    /// All metrics use `default` unless overridden.
    pub fn new(default: Tolerance) -> Self {
        Tolerances {
            default,
            overrides: Vec::new(),
        }
    }

    /// Add a prefix override (e.g. `"fig6."` for a whole experiment or
    /// `"fig7.overhead.LU"` for one row).
    pub fn with_override(mut self, prefix: impl Into<String>, tol: Tolerance) -> Self {
        self.overrides.push((prefix.into(), tol));
        self
    }

    /// The band that applies to `key`.
    pub fn for_key(&self, key: &str) -> Tolerance {
        self.overrides
            .iter()
            .filter(|(p, _)| key.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.default)
    }
}

/// One metric outside its tolerance band (or missing from one side).
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    /// Metric slug.
    pub key: String,
    /// Value from this run (`None` = metric vanished).
    pub got: Option<f64>,
    /// Golden value (`None` = metric is new, not in the golden).
    pub want: Option<f64>,
    /// The band that was allowed.
    pub allowed: f64,
    /// Extra context for structural mismatches.
    pub note: String,
}

impl fmt::Display for Drift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.note.is_empty() {
            return write!(f, "{}: {}", self.key, self.note);
        }
        match (self.got, self.want) {
            (Some(g), Some(w)) => write!(
                f,
                "{}: got {}, golden {}, |Δ| {} > allowed {}",
                self.key,
                format_f64(g),
                format_f64(w),
                format_f64((g - w).abs()),
                format_f64(self.allowed)
            ),
            (Some(g), None) => write!(
                f,
                "{}: got {} but metric is absent from the golden (run --update-golden?)",
                self.key,
                format_f64(g)
            ),
            (None, Some(w)) => write!(
                f,
                "{}: golden expects {} but the run did not produce it",
                self.key,
                format_f64(w)
            ),
            (None, None) => write!(f, "{}: structural mismatch", self.key),
        }
    }
}

/// Schema version stamped into `BENCH_agp.json`. v2 added run metadata
/// (`build_profile`, `iterations`, harness-injected `stamp`) and
/// per-experiment per-span host-time aggregates next to the wall-clock
/// map; v1 files are rejected loudly with a migration hint.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// Host-time aggregate for one profiler span within one experiment
/// (mirrors `agp-perf`'s flat span stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanCell {
    /// Frames exited.
    pub calls: u64,
    /// Inclusive wall nanoseconds.
    pub total_ns: u64,
    /// Exclusive (self) wall nanoseconds.
    pub self_ns: u64,
}

/// Wall-clock self-timings per experiment (`BENCH_agp.json`). The
/// timing values are machine-dependent, so `agp report --check` gates
/// them only through a generous one-sided regression band
/// ([`BenchManifest::compare_wall`]) — the *shape* (schema v2) is
/// enforced strictly by parse and by `scripts/check.sh`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchManifest {
    /// Manifest schema version (see [`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Cargo profile the run was built under (`release` / `debug`).
    pub build_profile: String,
    /// Timing iterations per experiment (wall numbers are the minimum).
    pub iterations: u32,
    /// Harness-injected label (tier timestamp, CI run id, …). Always
    /// supplied from outside the simulator — never from `SystemTime`
    /// inside it — so sim code stays wall-clock-free.
    pub stamp: String,
    /// Experiment id → wall-clock seconds.
    pub wall_secs: BTreeMap<String, f64>,
    /// Experiment id → span name → host-time aggregate.
    pub spans: BTreeMap<String, BTreeMap<String, SpanCell>>,
}

impl BenchManifest {
    /// An empty bench manifest stamped with this build's profile.
    pub fn new() -> Self {
        BenchManifest {
            schema_version: BENCH_SCHEMA_VERSION,
            build_profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            iterations: 1,
            stamp: String::new(),
            wall_secs: BTreeMap::new(),
            spans: BTreeMap::new(),
        }
    }

    /// Record one experiment's wall-clock time.
    pub fn insert(&mut self, id: impl Into<String>, secs: f64) {
        self.wall_secs.insert(id.into(), secs);
    }

    /// Record one experiment's per-span host-time aggregates.
    pub fn insert_spans(&mut self, id: impl Into<String>, cells: BTreeMap<String, SpanCell>) {
        self.spans.insert(id.into(), cells);
    }

    /// Deterministic pretty JSON (modulo the timing values themselves).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", self.schema_version));
        out.push_str("  \"build_profile\": ");
        Json::Str(self.build_profile.clone()).write(&mut out);
        out.push_str(",\n");
        out.push_str(&format!("  \"iterations\": {},\n", self.iterations));
        out.push_str("  \"stamp\": ");
        Json::Str(self.stamp.clone()).write(&mut out);
        out.push_str(",\n");
        out.push_str("  \"wall_secs\": {");
        for (i, (k, v)) in self.wall_secs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            Json::Str(k.clone()).write(&mut out);
            out.push_str(": ");
            out.push_str(&format_f64(*v));
        }
        if !self.wall_secs.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"spans\": {");
        for (i, (id, cells)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            Json::Str(id.clone()).write(&mut out);
            out.push_str(": {");
            for (j, (span, c)) in cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n      ");
                Json::Str(span.clone()).write(&mut out);
                out.push_str(&format!(
                    ": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    c.calls, c.total_ns, c.self_ns
                ));
            }
            if !cells.is_empty() {
                out.push_str("\n    ");
            }
            out.push('}');
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parse a bench manifest written by [`BenchManifest::to_json`].
    ///
    /// The schema version is enforced strictly (a v1 file names its
    /// migration path); the metadata fields default leniently so
    /// hand-edited manifests stay usable.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        let schema_version = v
            .get("schema_version")
            .and_then(Json::as_f64)
            .ok_or("missing schema_version")? as u32;
        if schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench schema_version {schema_version} != supported {BENCH_SCHEMA_VERSION} \
                 (regenerate with `agp report`)"
            ));
        }
        let build_profile = v
            .get("build_profile")
            .and_then(Json::as_str)
            .unwrap_or("release")
            .to_string();
        let iterations = v
            .get("iterations")
            .and_then(Json::as_f64)
            .map_or(1, |n| n as u32);
        let stamp = v
            .get("stamp")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let mut wall_secs = BTreeMap::new();
        for (k, val) in v
            .get("wall_secs")
            .and_then(Json::as_object)
            .ok_or("missing wall_secs object")?
        {
            wall_secs.insert(
                k.clone(),
                val.as_f64().ok_or_else(|| format!("{k} is not a number"))?,
            );
        }
        let mut spans = BTreeMap::new();
        if let Some(obj) = v.get("spans").and_then(Json::as_object) {
            for (id, cells_v) in obj {
                let mut cells = BTreeMap::new();
                for (span, cell_v) in cells_v
                    .as_object()
                    .ok_or_else(|| format!("spans.{id} is not an object"))?
                {
                    let field = |name: &str| -> Result<u64, String> {
                        cell_v
                            .get(name)
                            .and_then(Json::as_f64)
                            .map(|n| n as u64)
                            .ok_or_else(|| format!("spans.{id}.{span}: missing {name}"))
                    };
                    cells.insert(
                        span.clone(),
                        SpanCell {
                            calls: field("calls")?,
                            total_ns: field("total_ns")?,
                            self_ns: field("self_ns")?,
                        },
                    );
                }
                spans.insert(id.clone(), cells);
            }
        }
        Ok(BenchManifest {
            schema_version,
            build_profile,
            iterations,
            stamp,
            wall_secs,
            spans,
        })
    }

    /// One-sided wall-clock regression check against a committed
    /// baseline: an experiment fails only when it got *slower* than its
    /// band allows (`got − want > max(abs, rel·want)`); being faster
    /// never fails. Only experiments present on both sides are compared
    /// — the baseline may carry extra entries appended by later gate
    /// steps (e.g. `explain.fig9`, `chaos.smoke`), and a brand-new
    /// experiment has no band yet.
    pub fn compare_wall(&self, baseline: &BenchManifest, band: Tolerance) -> Vec<Drift> {
        let mut out = Vec::new();
        for (id, &got) in &self.wall_secs {
            let Some(&want) = baseline.wall_secs.get(id) else {
                continue;
            };
            let allowed = band.abs.max(band.rel * want.abs());
            if got - want > allowed {
                out.push(Drift {
                    key: id.clone(),
                    got: Some(got),
                    want: Some(want),
                    allowed,
                    note: format!(
                        "wall-clock regression: {} s vs baseline {} s (allowed +{})",
                        format_f64(got),
                        format_f64(want),
                        format_f64(allowed)
                    ),
                });
            }
        }
        out
    }
}

impl Default for BenchManifest {
    fn default() -> Self {
        BenchManifest::new()
    }
}

/// Slugify a table title / row label / column header into a dotted-key
/// segment: lowercase alphanumerics, runs of everything else collapse to
/// one `-`, trimmed. Empty inputs become `"x"`.
pub fn slug(s: &str) -> String {
    let mut out = String::new();
    let mut dash = false;
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            if dash && !out.is_empty() {
                out.push('-');
            }
            dash = false;
            out.push(c.to_ascii_lowercase());
        } else {
            dash = true;
        }
    }
    if out.is_empty() {
        "x".to_string()
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParityManifest {
        let mut m = ParityManifest::new("quick", 7);
        m.insert("fig7.overhead.lu.orig", 26.0);
        m.insert("fig7.overhead.lu.full", 5.2);
        m.insert("moreira.completion.mean-min", 35.0);
        m
    }

    #[test]
    fn manifest_round_trips_and_is_byte_stable() {
        let m = sample();
        let j = m.to_json();
        assert_eq!(ParityManifest::parse(&j).unwrap(), m);
        assert_eq!(m.to_json(), j, "writer is deterministic");
        assert!(j.ends_with("}\n"));
        // Keys serialize sorted regardless of insertion order.
        let fig7 = j.find("fig7.overhead.lu.full").unwrap();
        let moreira = j.find("moreira.completion").unwrap();
        assert!(fig7 < moreira);
    }

    #[test]
    fn duplicate_keys_are_suffixed_not_dropped() {
        let mut m = ParityManifest::new("quick", 0);
        m.insert("a.b", 1.0);
        m.insert("a.b", 2.0);
        m.insert("a.b", 3.0);
        assert_eq!(m.metrics.len(), 3);
        assert_eq!(m.metrics["a.b#2"], 2.0);
        assert_eq!(m.metrics["a.b#3"], 3.0);
    }

    #[test]
    fn compare_passes_inside_bands_and_names_drifts() {
        let golden = sample();
        let mut run = sample();
        let tol = Tolerances::new(Tolerance::new(0.05, 0.0));
        assert!(run.compare(&golden, &tol).is_empty());

        run.metrics.insert("fig7.overhead.lu.orig".into(), 28.0);
        let drifts = run.compare(&golden, &tol);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].key, "fig7.overhead.lu.orig");
        let msg = drifts[0].to_string();
        assert!(msg.contains("got 28"), "{msg}");
        assert!(msg.contains("golden 26"), "{msg}");

        // A wider override on the experiment prefix absorbs it.
        let loose = Tolerances::new(Tolerance::new(0.05, 0.0))
            .with_override("fig7.", Tolerance::new(0.10, 0.0));
        assert!(run.compare(&golden, &loose).is_empty());
    }

    #[test]
    fn longest_prefix_override_wins() {
        let tol = Tolerances::new(Tolerance::exact())
            .with_override("fig7.", Tolerance::new(0.5, 0.0))
            .with_override("fig7.overhead.", Tolerance::new(0.01, 0.0));
        assert_eq!(tol.for_key("fig7.overhead.lu.orig").rel, 0.01);
        assert_eq!(tol.for_key("fig7.pages.lu").rel, 0.5);
        assert_eq!(tol.for_key("fig6.peak").rel, 0.0);
    }

    #[test]
    fn missing_and_extra_metrics_are_drifts() {
        let golden = sample();
        let mut run = sample();
        run.metrics.remove("fig7.overhead.lu.full");
        run.metrics.insert("fig9.new-metric".into(), 1.0);
        let drifts = run.compare(&golden, &Tolerances::new(Tolerance::new(1.0, 1e9)));
        assert_eq!(drifts.len(), 2, "huge bands never excuse shape changes");
        assert!(drifts.iter().any(|d| d.got.is_none()));
        assert!(drifts.iter().any(|d| d.want.is_none()));
    }

    #[test]
    fn scale_mismatch_is_reported() {
        let golden = sample();
        let mut run = sample();
        run.scale = "paper".to_string();
        let drifts = run.compare(&golden, &Tolerances::new(Tolerance::new(1.0, 1e9)));
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].to_string().contains("scale"));
    }

    #[test]
    fn stale_schema_version_is_rejected() {
        let j = sample()
            .to_json()
            .replace("\"schema_version\": 1", "\"schema_version\": 99");
        let err = ParityManifest::parse(&j).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn bench_manifest_round_trips() {
        let mut b = BenchManifest::new();
        b.iterations = 3;
        b.stamp = "tier-2026-08-07".to_string();
        b.insert("moreira", 1.25);
        b.insert("fig6", 0.5);
        let mut cells = BTreeMap::new();
        cells.insert(
            "sim.dispatch".to_string(),
            SpanCell {
                calls: 120,
                total_ns: 9_000,
                self_ns: 4_500,
            },
        );
        b.insert_spans("moreira", cells);
        let j = b.to_json();
        assert_eq!(BenchManifest::parse(&j).unwrap(), b);
        assert_eq!(b.to_json(), j, "writer is deterministic");
        assert!(j.contains("\"schema_version\": 2"), "{j}");
        assert!(j.contains("\"build_profile\""), "{j}");
    }

    #[test]
    fn bench_v1_files_are_rejected_with_migration_hint() {
        let v1 = "{\n  \"schema_version\": 1,\n  \"wall_secs\": {\n    \"fig7\": 3.3\n  }\n}\n";
        let err = BenchManifest::parse(v1).unwrap_err();
        assert!(err.contains("schema_version 1"), "{err}");
        assert!(err.contains("agp report"), "{err}");
    }

    #[test]
    fn wall_band_fails_only_on_regressions() {
        let mut baseline = BenchManifest::new();
        baseline.insert("fig7", 2.0);
        baseline.insert("fig8", 4.0);
        baseline.insert("chaos.smoke", 0.1); // appended later; run lacks it

        let mut run = BenchManifest::new();
        run.insert("fig7", 2.0 * 3.5); // past the 2x rel band
        run.insert("fig8", 1.0); // faster: never a drift
        run.insert("brand-new", 9.9); // no baseline: no band yet

        let band = Tolerance::new(2.0, 1.0);
        let drifts = run.compare_wall(&baseline, band);
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert_eq!(drifts[0].key, "fig7");
        assert!(drifts[0].to_string().contains("regression"));

        // At exactly the band edge (2 + max(1, 2*2) = 6) it still passes.
        run.wall_secs.insert("fig7".into(), 6.0);
        assert!(run.compare_wall(&baseline, band).is_empty());
    }

    #[test]
    fn slugs_are_filesystem_and_key_safe() {
        assert_eq!(slug("LU.A #1"), "lu-a-1");
        assert_eq!(slug("Overhead (%)"), "overhead");
        assert_eq!(slug("  T_batch / min  "), "t-batch-min");
        assert_eq!(slug("§4.1"), "4-1");
        assert_eq!(slug("***"), "x");
    }
}
