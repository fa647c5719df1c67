//! `agp postmortem` — incident-dump triage and causal replay.
//!
//! A frozen [`IncidentDump`] (see [`agp_obs::flight`]) is the black-box
//! record of a run that tripped a watchdog or died on an error: the last
//! window of raw [`ObsEvent`]s (its `samples` and `snapshots` lists are
//! always empty), plus the identity (scenario, seed, config fingerprint)
//! needed to reproduce the run. This module turns that record into an
//! explanation:
//!
//! 1. **Load** — [`load_dump`] parses the dump's deterministic JSON back
//!    into an [`IncidentDump`], re-deriving each retained event through
//!    [`agp_obs::flight::parse_event_line`];
//! 2. **Triage** — every retained event is classified into a stable
//!    subsystem taxonomy ([`TRIAGE_CLASSES`]) so the report's first table
//!    answers "what was the system doing when it died?";
//! 3. **Replay** — the window is replayed through the same [`Analyzer`]
//!    `agp explain` uses, so critical-path cause buckets, per-job stall
//!    attribution, and pathology diagnostics come out of the identical
//!    machinery (buckets tile switch totals exactly, as in explain);
//! 4. **Report** — [`PostmortemReport::to_json_string`] renders a
//!    schema-versioned, byte-deterministic document (golden-pinned), and
//!    [`PostmortemReport::tables`]/[`notes`](PostmortemReport::notes)
//!    feed the CLI's human output.
//!
//! Because the dump is byte-deterministic and the replay is pure, the
//! whole pipeline is reproducible: same seed → same trip → same dump →
//! same report.

use std::collections::BTreeMap;

use agp_faults::fuzz::Verdict;
use agp_metrics::{Json, Table};
use agp_obs::flight::{self, IncidentDump, IncidentTrigger, RunMeta, DUMP_SCHEMA_VERSION};
use agp_obs::{ObsEvent, Observer, TracedEvent, WatchdogRule};

use crate::analyze::{Analyzer, Diagnostic, JobStalls};
use crate::causes::CauseBuckets;
use crate::report::{causes_json, diag_json, job_json, num};

/// Schema version stamped into every postmortem document.
pub const POSTMORTEM_SCHEMA_VERSION: u64 = 1;

/// How many trailing window events the report lists verbatim as the
/// likeliest culprits (the freeze point is the last entry).
pub const CULPRIT_LIMIT: usize = 8;

/// The triage taxonomy, in report order. Every [`ObsEvent`] variant maps
/// to exactly one class (pinned by a test), so the triage counts tile
/// the retained window.
pub const TRIAGE_CLASSES: [&str; 9] = [
    "fault_path",
    "paging_policy",
    "disk",
    "switch_protocol",
    "synchronization",
    "telemetry",
    "chaos",
    "recovery",
    "incident",
];

/// Classify one event into its [`TRIAGE_CLASSES`] subsystem.
///
/// The match is intentionally exhaustive with every variant named: adding
/// an [`ObsEvent`] variant must force a decision here, and the lint below
/// rejects a `_ =>` arm that would absorb it.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn triage_class(ev: &ObsEvent) -> &'static str {
    match ev {
        ObsEvent::PageFault { .. }
        | ObsEvent::MajorFault { .. }
        | ObsEvent::ReadaheadHit { .. }
        | ObsEvent::FaultService { .. } => "fault_path",
        ObsEvent::EvictBatch { .. }
        | ObsEvent::Evict { .. }
        | ObsEvent::Reclaim { .. }
        | ObsEvent::AggressiveOut { .. }
        | ObsEvent::ReplayPage { .. }
        | ObsEvent::Replay { .. }
        | ObsEvent::BgTick { .. } => "paging_policy",
        ObsEvent::DiskRequest { .. } => "disk",
        ObsEvent::SwitchPhase { .. } | ObsEvent::SwitchDone { .. } => "switch_protocol",
        ObsEvent::BarrierWait { .. } => "synchronization",
        ObsEvent::NodeGauge { .. } | ObsEvent::ProcGauge { .. } => "telemetry",
        ObsEvent::DiskError { .. }
        | ObsEvent::DiskSlowdown { .. }
        | ObsEvent::NodeCrash { .. }
        | ObsEvent::NodeRestart { .. }
        | ObsEvent::JobRequeued { .. }
        | ObsEvent::MemPressure { .. } => "chaos",
        ObsEvent::IoRetry { .. }
        | ObsEvent::BarrierTimeout { .. }
        | ObsEvent::AiDegraded { .. } => "recovery",
        ObsEvent::IoExhausted { .. }
        | ObsEvent::BarrierExhausted { .. }
        | ObsEvent::WatchdogTrip { .. } => "incident",
    }
}

fn want_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("dump missing string field {key:?}"))
}

fn want_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .map(|v| v as u64)
        .ok_or_else(|| format!("dump missing numeric field {key:?}"))
}

fn want_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("dump missing array field {key:?}"))
}

/// Parse an incident dump's JSON back into an [`IncidentDump`].
///
/// Accepts exactly the encoding [`IncidentDump::to_json_string`] writes
/// (schema version checked); retained events round-trip through
/// [`flight::parse_event_line`], so a load-then-dump reproduces the
/// input byte for byte (pinned by a test).
pub fn load_dump(text: &str) -> Result<IncidentDump, String> {
    let doc = Json::parse(text).map_err(|e| format!("incident dump is not valid JSON: {e}"))?;
    let schema = want_u64(&doc, "schema_version")?;
    if schema != u64::from(DUMP_SCHEMA_VERSION) {
        return Err(format!(
            "unsupported dump schema_version {schema} (expected {DUMP_SCHEMA_VERSION})"
        ));
    }
    let trig = doc
        .get("trigger")
        .ok_or_else(|| "dump missing trigger".to_string())?;
    let trigger = match want_str(trig, "kind")?.as_str() {
        "watchdog" => {
            let rule_name = want_str(trig, "rule")?;
            let rule = WatchdogRule::from_name(&rule_name)
                .ok_or_else(|| format!("unknown watchdog rule {rule_name:?}"))?;
            IncidentTrigger::Watchdog {
                rule,
                value: want_u64(trig, "value")?,
                limit: want_u64(trig, "limit")?,
                detail: want_str(trig, "detail")?,
            }
        }
        "error" => IncidentTrigger::Error {
            what: want_str(trig, "what")?,
        },
        other => return Err(format!("unknown trigger kind {other:?}")),
    };
    let fp_text = want_str(&doc, "config_fp")?;
    let config_fp = u64::from_str_radix(&fp_text, 16)
        .map_err(|_| format!("config_fp {fp_text:?} is not a hex fingerprint"))?;
    let jobs = want_arr(&doc, "jobs")?
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| "jobs entries must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pid_job = want_arr(&doc, "pid_job")?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "pid_job entries must be [pid, job] pairs".to_string())?;
            let pid = pair[0]
                .as_f64()
                .ok_or_else(|| "pid_job pid must be numeric".to_string())?;
            let job = pair[1]
                .as_f64()
                .ok_or_else(|| "pid_job job must be numeric".to_string())?;
            Ok((pid as u32, job as u32))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Each retained event is one compact object per line; the strict
    // parser + compact writer round-trip bytes, so re-rendering an
    // element reproduces the original line for the line-level decoder.
    let events = want_arr(&doc, "events")?
        .iter()
        .map(|ev| flight::parse_event_line(&ev.to_string_compact()))
        .collect::<Result<Vec<_>, _>>()?;
    let lines = |key: &str| -> Result<Vec<String>, String> {
        Ok(want_arr(&doc, key)?
            .iter()
            .map(Json::to_string_compact)
            .collect())
    };
    Ok(IncidentDump {
        schema_version: DUMP_SCHEMA_VERSION,
        trigger,
        at_us: want_u64(&doc, "at_us")?,
        meta: RunMeta {
            scenario: want_str(&doc, "scenario")?,
            seed: want_u64(&doc, "seed")?,
            config_fp,
            jobs,
            pid_job,
        },
        events_seen: want_u64(&doc, "events_seen")?,
        events_dropped: want_u64(&doc, "events_dropped")?,
        events,
        samples_dropped: want_u64(&doc, "samples_dropped")?,
        samples: lines("samples")?,
        snapshots_dropped: want_u64(&doc, "snapshots_dropped")?,
        snapshots: lines("snapshots")?,
    })
}

/// The causal explanation of one incident dump.
#[derive(Clone, Debug)]
pub struct PostmortemReport {
    /// Identity of the recorded run.
    pub meta: RunMeta,
    /// What froze the ring.
    pub trigger: IncidentTrigger,
    /// Sim time of the freeze, µs.
    pub at_us: u64,
    /// Events delivered to the ring over the window (including evicted).
    pub events_seen: u64,
    /// Events evicted by the capacity bound.
    pub events_dropped: u64,
    /// Events retained (and replayed).
    pub events_retained: u64,
    /// Sim time of the oldest retained event, µs.
    pub window_first_us: u64,
    /// Sim time of the newest retained event, µs.
    pub window_last_us: u64,
    /// Telemetry sample lines retained.
    pub samples_retained: u64,
    /// Snapshot lines retained (0 for every recorded dump).
    pub snapshots_retained: u64,
    /// Per-subsystem event counts over the retained window, in
    /// [`TRIAGE_CLASSES`] order (zero counts included; counts tile the
    /// window exactly).
    pub triage: Vec<(&'static str, u64)>,
    /// Gang switches completed inside the window.
    pub switches: u64,
    /// Summed critical-path switch latency inside the window, µs.
    pub switch_total_us: u64,
    /// Critical-path time per cause over the window's switches; tiles
    /// `switch_total_us` exactly, like `agp explain`.
    pub causes: CauseBuckets,
    /// Per-job stall attribution over the window.
    pub jobs: Vec<JobStalls>,
    /// Pathology diagnostics over the window (stable kind order).
    pub diagnostics: Vec<Diagnostic>,
    /// Pages the background writer cleaned inside the window.
    pub bg_cleaned_pages: u64,
    /// The last [`CULPRIT_LIMIT`] retained events, oldest first, as raw
    /// trace lines — the freeze point is the final entry.
    pub culprits: Vec<String>,
}

impl PostmortemReport {
    /// Triage and replay `dump` into a report.
    pub fn build(dump: &IncidentDump) -> PostmortemReport {
        let mut triage: Vec<(&'static str, u64)> =
            TRIAGE_CLASSES.iter().map(|c| (*c, 0u64)).collect();
        for ev in &dump.events {
            let class = triage_class(&ev.event);
            if let Some(slot) = triage.iter_mut().find(|(c, _)| *c == class) {
                slot.1 += 1;
            }
        }
        // Replay the window through the explain analyzer: identical
        // attribution machinery, applied to the incident's last window.
        let mut pid_job = BTreeMap::new();
        for (pid, job) in &dump.meta.pid_job {
            pid_job.insert(*pid, *job as usize);
        }
        let mut analyzer = Analyzer::with_jobs(dump.meta.jobs.clone(), pid_job);
        for TracedEvent { at, src, event } in &dump.events {
            analyzer.on_event(*at, *src, event);
        }
        let mut causes = CauseBuckets::new();
        let mut switch_total_us = 0u64;
        for sw in analyzer.switches() {
            causes.merge(&sw.causes);
            switch_total_us += sw.total_us;
        }
        let culprit_skip = dump.events.len().saturating_sub(CULPRIT_LIMIT);
        PostmortemReport {
            meta: dump.meta.clone(),
            trigger: dump.trigger.clone(),
            at_us: dump.at_us,
            events_seen: dump.events_seen,
            events_dropped: dump.events_dropped,
            events_retained: dump.events.len() as u64,
            window_first_us: dump.events.first().map_or(0, |e| e.at.as_us()),
            window_last_us: dump.events.last().map_or(0, |e| e.at.as_us()),
            samples_retained: dump.samples.len() as u64,
            snapshots_retained: dump.snapshots.len() as u64,
            triage,
            switches: analyzer.switches().len() as u64,
            switch_total_us,
            causes,
            jobs: analyzer.jobs().to_vec(),
            diagnostics: analyzer.diagnostics(),
            bg_cleaned_pages: analyzer.bg_cleaned_pages(),
            culprits: dump.events[culprit_skip..]
                .iter()
                .map(|e| e.event.to_json_line(e.at, e.src))
                .collect(),
        }
    }

    /// Load `text` as an incident dump and build its report.
    pub fn from_dump_str(text: &str) -> Result<PostmortemReport, String> {
        Ok(PostmortemReport::build(&load_dump(text)?))
    }

    /// The incident's place in the fuzzer's closed verdict taxonomy
    /// ([`agp_faults::fuzz::Verdict`]): the `no_progress` rule is a
    /// [`Verdict::Hang`], the invariant rule an
    /// [`Verdict::InvariantViolation`], any other watchdog rule a
    /// [`Verdict::WatchdogTrip`], and a plain error a
    /// [`Verdict::TypedError`]. A frozen incident is never `Clean`,
    /// `Recovered`, or `Nondeterministic` — those verdicts describe runs
    /// (or run *pairs*) that left no incident behind.
    pub fn verdict(&self) -> Verdict {
        match &self.trigger {
            IncidentTrigger::Watchdog {
                rule: WatchdogRule::NoProgress,
                ..
            } => Verdict::Hang,
            IncidentTrigger::Watchdog {
                rule: WatchdogRule::Invariant,
                ..
            } => Verdict::InvariantViolation,
            IncidentTrigger::Watchdog { .. } => Verdict::WatchdogTrip,
            IncidentTrigger::Error { .. } => Verdict::TypedError,
        }
    }

    fn trigger_json(&self) -> Json {
        match &self.trigger {
            IncidentTrigger::Watchdog {
                rule,
                value,
                limit,
                detail,
            } => Json::Obj(vec![
                ("kind".into(), Json::Str("watchdog".into())),
                ("rule".into(), Json::Str(rule.name().into())),
                ("value".into(), num(*value)),
                ("limit".into(), num(*limit)),
                ("detail".into(), Json::Str(detail.clone())),
            ]),
            IncidentTrigger::Error { what } => Json::Obj(vec![
                ("kind".into(), Json::Str("error".into())),
                ("what".into(), Json::Str(what.clone())),
            ]),
        }
    }

    /// The report as a [`Json`] document with a fixed field order.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), num(POSTMORTEM_SCHEMA_VERSION)),
            ("kind".into(), Json::Str("postmortem".into())),
            ("verdict".into(), Json::Str(self.verdict().name().into())),
            (
                "meta".into(),
                Json::Obj(vec![
                    ("scenario".into(), Json::Str(self.meta.scenario.clone())),
                    ("seed".into(), num(self.meta.seed)),
                    (
                        "config_fp".into(),
                        Json::Str(format!("{:016x}", self.meta.config_fp)),
                    ),
                    (
                        "jobs".into(),
                        Json::Arr(
                            self.meta
                                .jobs
                                .iter()
                                .map(|j| Json::Str(j.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            ("trigger".into(), self.trigger_json()),
            ("at_us".into(), num(self.at_us)),
            (
                "window".into(),
                Json::Obj(vec![
                    ("events_seen".into(), num(self.events_seen)),
                    ("events_dropped".into(), num(self.events_dropped)),
                    ("events_retained".into(), num(self.events_retained)),
                    ("first_us".into(), num(self.window_first_us)),
                    ("last_us".into(), num(self.window_last_us)),
                    ("samples".into(), num(self.samples_retained)),
                    ("snapshots".into(), num(self.snapshots_retained)),
                ]),
            ),
            (
                "triage".into(),
                Json::Obj(
                    self.triage
                        .iter()
                        .map(|(class, count)| ((*class).into(), num(*count)))
                        .collect(),
                ),
            ),
            (
                "replay".into(),
                Json::Obj(vec![
                    ("switches".into(), num(self.switches)),
                    ("switch_total_us".into(), num(self.switch_total_us)),
                    ("bg_cleaned_pages".into(), num(self.bg_cleaned_pages)),
                ]),
            ),
            ("causes".into(), causes_json(&self.causes)),
            (
                "jobs".into(),
                Json::Arr(self.jobs.iter().map(job_json).collect()),
            ),
            (
                "diagnostics".into(),
                Json::Arr(self.diagnostics.iter().map(diag_json).collect()),
            ),
            (
                "culprits".into(),
                Json::Arr(self.culprits.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON, byte-deterministic (golden-pinned), with a
    /// trailing newline.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty() + "\n"
    }

    /// One-line incident headline for the CLI, led by the
    /// [`verdict`](Self::verdict) so triage reads the class first.
    pub fn headline(&self) -> String {
        let verdict = self.verdict().name();
        match &self.trigger {
            IncidentTrigger::Watchdog {
                rule,
                value,
                limit,
                detail,
            } => {
                let mut s = format!(
                    "[{verdict}] watchdog {} tripped at {}us ({} > {})",
                    rule.name(),
                    self.at_us,
                    value,
                    limit
                );
                if !detail.is_empty() {
                    s.push_str(&format!(": {detail}"));
                }
                s
            }
            IncidentTrigger::Error { what } => {
                format!("[{verdict}] run aborted at {}us: {}", self.at_us, what)
            }
        }
    }

    /// The human-facing tables `agp postmortem` prints.
    pub fn tables(&self) -> Vec<Table> {
        let mut t1 = Table::new(
            format!(
                "Incident window — {} (seed {})",
                self.meta.scenario, self.meta.seed
            ),
            &["subsystem", "events"],
        );
        for (class, count) in &self.triage {
            t1.row(vec![(*class).to_string(), count.to_string()]);
        }

        let mut t2 = Table::new(
            "Critical-path causes (window replay)",
            &["cause", "time (us)", "share (%)"],
        );
        let total = self.switch_total_us.max(1) as f64;
        for (cause, us) in self.causes.iter() {
            if cause.is_fault() && us == 0 {
                continue;
            }
            t2.row(vec![
                cause.name().into(),
                us.to_string(),
                format!("{:.1}", us as f64 * 100.0 / total),
            ]);
        }

        let mut t3 = Table::new("Last events before the freeze", &["trace line"]);
        for line in &self.culprits {
            t3.row(vec![line.clone()]);
        }
        vec![t1, t2, t3]
    }

    /// Context lines for the CLI's notes section.
    pub fn notes(&self) -> Vec<String> {
        let mut out = vec![
            format!(
                "window: {} events retained of {} seen ({} evicted), {}us..{}us",
                self.events_retained,
                self.events_seen,
                self.events_dropped,
                self.window_first_us,
                self.window_last_us
            ),
            format!(
                "replayed {} switches, {}us critical path; config fingerprint {:016x}",
                self.switches, self.switch_total_us, self.meta.config_fp
            ),
        ];
        for d in &self.diagnostics {
            if d.count > 0 {
                out.push(format!("{}: {} occurrences, {}us", d.kind, d.count, d.us));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_sim::SimTime;

    fn dump() -> IncidentDump {
        IncidentDump {
            schema_version: DUMP_SCHEMA_VERSION,
            trigger: IncidentTrigger::Watchdog {
                rule: WatchdogRule::RecoveryExhausted,
                value: 4,
                limit: 4,
                detail: String::new(),
            },
            at_us: 9_000,
            meta: RunMeta {
                scenario: "trip-smoke".into(),
                seed: 7,
                config_fp: 0xdead_beef_0bad_f00d,
                jobs: vec!["a".into(), "b".into()],
                pid_job: vec![(0, 0), (1, 1)],
            },
            events_seen: 5,
            events_dropped: 1,
            events: vec![
                TracedEvent {
                    at: SimTime::from_us(8_000),
                    src: 0,
                    event: ObsEvent::PageFault {
                        pid: 0,
                        page: 3,
                        major: true,
                    },
                },
                TracedEvent {
                    at: SimTime::from_us(8_500),
                    src: 0,
                    event: ObsEvent::IoRetry {
                        node: 0,
                        attempt: 4,
                        backoff_us: 16_000,
                    },
                },
                TracedEvent {
                    at: SimTime::from_us(9_000),
                    src: 0,
                    event: ObsEvent::IoExhausted {
                        node: 0,
                        attempts: 4,
                    },
                },
                TracedEvent {
                    at: SimTime::from_us(9_000),
                    src: agp_obs::SRC_CLUSTER,
                    event: ObsEvent::WatchdogTrip {
                        rule: WatchdogRule::RecoveryExhausted,
                        value: 4,
                        limit: 4,
                    },
                },
            ],
            samples_dropped: 0,
            samples: vec![
                r#"{"t":8000,"src":0,"ev":"node_gauge","free_frames":10,"dirty_pages":2,"disk_backlog_us":0,"disk_busy_us":5,"bg_cleaned":0}"#.into(),
            ],
            snapshots_dropped: 0,
            snapshots: Vec::new(),
        }
    }

    #[test]
    fn dump_load_round_trips_bytes() {
        let d = dump();
        let text = d.to_json_string();
        let loaded = load_dump(&text).expect("dump loads");
        assert_eq!(loaded, d);
        assert_eq!(loaded.to_json_string(), text, "load → dump is identity");
    }

    #[test]
    fn load_rejects_foreign_schema_and_garbage() {
        let mut d = dump();
        d.schema_version = DUMP_SCHEMA_VERSION + 1;
        let err = load_dump(&d.to_json_string()).unwrap_err();
        assert!(err.contains("schema_version"));
        assert!(load_dump("not json").is_err());
        assert!(load_dump("{}").is_err());
    }

    #[test]
    fn every_event_variant_has_a_triage_class() {
        for ev in ObsEvent::samples() {
            let class = triage_class(&ev);
            assert!(
                TRIAGE_CLASSES.contains(&class),
                "{} triaged to unknown class {class:?}",
                ev.name()
            );
        }
    }

    #[test]
    fn triage_counts_tile_the_window() {
        let r = PostmortemReport::build(&dump());
        let total: u64 = r.triage.iter().map(|(_, c)| c).sum();
        assert_eq!(total, r.events_retained);
        let incident = r.triage.iter().find(|(c, _)| *c == "incident").unwrap().1;
        assert_eq!(incident, 2, "io_exhausted + watchdog_trip");
        assert_eq!(r.triage.len(), TRIAGE_CLASSES.len());
    }

    #[test]
    fn report_json_is_deterministic_and_parses() {
        let r = PostmortemReport::build(&dump());
        let text = r.to_json_string();
        assert_eq!(text, r.to_json_string());
        let doc = Json::parse(&text).expect("report parses");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(POSTMORTEM_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("postmortem"));
        let trig = doc.get("trigger").expect("trigger");
        assert_eq!(trig.get("kind").and_then(Json::as_str), Some("watchdog"));
        assert_eq!(
            trig.get("rule").and_then(Json::as_str),
            Some("recovery_exhausted")
        );
        let triage = doc.get("triage").and_then(Json::as_object).expect("triage");
        assert_eq!(triage.len(), TRIAGE_CLASSES.len());
        assert_eq!(
            doc.get("verdict").and_then(Json::as_str),
            Some("watchdog_trip")
        );
        assert!(r.headline().starts_with("[watchdog_trip]"));
        assert!(r.headline().contains("recovery_exhausted"));
        assert_eq!(r.tables().len(), 3);
        assert_eq!(
            r.culprits.len(),
            4,
            "short window: every event is a culprit"
        );
    }

    #[test]
    fn incident_triggers_map_onto_the_verdict_taxonomy() {
        let with_trigger = |trigger: IncidentTrigger| {
            let mut d = dump();
            d.trigger = trigger;
            PostmortemReport::build(&d)
        };
        let watchdog = |rule| IncidentTrigger::Watchdog {
            rule,
            value: 2,
            limit: 1,
            detail: String::new(),
        };
        assert_eq!(
            with_trigger(watchdog(WatchdogRule::NoProgress)).verdict(),
            Verdict::Hang
        );
        assert_eq!(
            with_trigger(watchdog(WatchdogRule::Invariant)).verdict(),
            Verdict::InvariantViolation
        );
        for rule in [
            WatchdogRule::RecoveryExhausted,
            WatchdogRule::JobStall,
            WatchdogRule::QueueDepth,
        ] {
            assert_eq!(
                with_trigger(watchdog(rule)).verdict(),
                Verdict::WatchdogTrip
            );
        }
        let error = with_trigger(IncidentTrigger::Error {
            what: "disk on fire".into(),
        });
        assert_eq!(error.verdict(), Verdict::TypedError);
        assert!(error.headline().starts_with("[typed_error]"));
        // Every reachable verdict here is a failing one: incidents only
        // freeze on aborts.
        assert!(error.verdict().is_failing());
    }

    #[test]
    fn cause_buckets_tile_replayed_switch_totals() {
        let r = PostmortemReport::build(&dump());
        assert_eq!(r.causes.total_us(), r.switch_total_us);
    }
}
