//! The black-box incident dump: the last events of a run that aborted,
//! frozen with the run's identity and the trigger that ended it, in a
//! schema-versioned, byte-deterministic encoding that `agp postmortem`
//! reloads.
//!
//! Full JSONL traces are infeasible for long runs; aggregates
//! (collectors, the run's counts) survive but cannot explain *why* an
//! invariant tripped. The flight recorder is an ordinary [`RingBuffer`]
//! of the last [`RING_EVENTS`] events, put in one run's
//! [`crate::ObsLink`] fanout like any other sink, so each run records
//! its own black box. When the run aborts, [`IncidentDump::new`] freezes
//! the ring into a dump (`agp_cluster::incident_dump` supplies the run's
//! identity and trigger); a watchdog trigger appends the
//! [`ObsEvent::WatchdogTrip`] marker as the window's final event.
//!
//! ## Determinism
//!
//! The dump encoding is hand-rolled like [`ObsEvent::to_json_line`]:
//! fixed field order, integers/booleans/fixed identifier strings, one
//! event object per line inside the `events` array. Two runs with the
//! same seed and config freeze byte-identical dumps.

use crate::event::{ObsEvent, SwitchPhaseKind, WatchdogRule, SRC_CLUSTER};
use crate::observer::Observer;
use crate::sink::{RingBuffer, TracedEvent};
use agp_sim::SimTime;
use std::fmt::Write as _;

/// Incident-dump schema version (`"schema_version"` in the JSON).
pub const DUMP_SCHEMA_VERSION: u32 = 1;

/// Capacity of a run's flight ring: the events an incident dump retains.
pub const RING_EVENTS: usize = 4096;

/// What froze the ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncidentTrigger {
    /// A deterministic watchdog rule tripped.
    Watchdog {
        /// The rule that tripped.
        rule: WatchdogRule,
        /// Observed value that crossed the limit.
        value: u64,
        /// The configured limit.
        limit: u64,
        /// Free-form context (the violated invariant's text for the
        /// invariant rule; empty otherwise).
        detail: String,
    },
    /// A typed simulation error unwound the run.
    Error {
        /// The error's display string.
        what: String,
    },
}

/// Identity of the recorded run, taken from its configuration so a dump
/// is attributable even when the run dies early.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// Run label derived from the config shape (`"{jobs}j/{nodes}n {policy} {mode}"`).
    pub scenario: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// FNV-1a-64 fingerprint of the full cluster config debug form.
    pub config_fp: u64,
    /// Job names, index-aligned with the `pid_job` job indices.
    pub jobs: Vec<String>,
    /// `(pid, job index)` pairs mapping processes to jobs.
    pub pid_job: Vec<(u32, u32)>,
}

/// A frozen recording window plus the identity needed to analyze it —
/// everything `agp postmortem` consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentDump {
    /// Dump schema version ([`DUMP_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// What froze the ring.
    pub trigger: IncidentTrigger,
    /// Sim time of the freeze, µs.
    pub at_us: u64,
    /// Identity of the recorded run.
    pub meta: RunMeta,
    /// Events delivered to the ring over the window (including evicted).
    pub events_seen: u64,
    /// Events evicted by the capacity bound.
    pub events_dropped: u64,
    /// The retained window, oldest first.
    pub events: Vec<TracedEvent>,
    /// Telemetry samples evicted (0: the recorder keeps no samples; the
    /// key stays in the schema).
    pub samples_dropped: u64,
    /// Telemetry sample lines (empty in every recorded dump).
    pub samples: Vec<String>,
    /// Snapshots evicted (0: nothing records snapshots; the key stays in
    /// the schema).
    pub snapshots_dropped: u64,
    /// Snapshot lines (empty in every recorded dump).
    pub snapshots: Vec<String>,
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl IncidentDump {
    /// Freeze `ring`, the flight recorder of a run that `trigger` ended
    /// at `at_us`, into a dump. A watchdog trigger appends its
    /// [`ObsEvent::WatchdogTrip`] marker as the window's final event, so
    /// the window ends at the trip.
    pub fn new(
        mut ring: RingBuffer,
        trigger: IncidentTrigger,
        at_us: u64,
        meta: RunMeta,
    ) -> IncidentDump {
        if let IncidentTrigger::Watchdog {
            rule, value, limit, ..
        } = &trigger
        {
            let marker = ObsEvent::WatchdogTrip {
                rule: *rule,
                value: *value,
                limit: *limit,
            };
            ring.on_event(SimTime::from_us(at_us), SRC_CLUSTER, &marker);
        }
        IncidentDump {
            schema_version: DUMP_SCHEMA_VERSION,
            trigger,
            at_us,
            meta,
            events_seen: ring.total_seen(),
            events_dropped: ring.dropped(),
            events: ring.drain(),
            samples_dropped: 0,
            samples: Vec::new(),
            snapshots_dropped: 0,
            snapshots: Vec::new(),
        }
    }

    /// Deterministic JSON encoding: fixed field order, one event object
    /// per line inside the `events` array (grep-able like a JSONL
    /// trace), trailing newline. Byte-identical for identical windows.
    pub fn to_json_string(&self) -> String {
        let mut s = String::with_capacity(4096 + self.events.len() * 96);
        let _ = write!(s, "{{\"schema_version\":{}", self.schema_version);
        s.push_str(",\"trigger\":");
        match &self.trigger {
            IncidentTrigger::Watchdog {
                rule,
                value,
                limit,
                detail,
            } => {
                let _ = write!(
                    s,
                    "{{\"kind\":\"watchdog\",\"rule\":\"{}\",\"value\":{value},\"limit\":{limit},\"detail\":",
                    rule.name()
                );
                esc(detail, &mut s);
                s.push('}');
            }
            IncidentTrigger::Error { what } => {
                s.push_str("{\"kind\":\"error\",\"what\":");
                esc(what, &mut s);
                s.push('}');
            }
        }
        let _ = write!(s, ",\"at_us\":{}", self.at_us);
        s.push_str(",\"scenario\":");
        esc(&self.meta.scenario, &mut s);
        let _ = write!(
            s,
            ",\"seed\":{},\"config_fp\":\"{:016x}\"",
            self.meta.seed, self.meta.config_fp
        );
        s.push_str(",\"jobs\":[");
        for (i, job) in self.meta.jobs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            esc(job, &mut s);
        }
        s.push_str("],\"pid_job\":[");
        for (i, (pid, job)) in self.meta.pid_job.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{pid},{job}]");
        }
        let _ = write!(
            s,
            "],\"events_seen\":{},\"events_dropped\":{}",
            self.events_seen, self.events_dropped
        );
        s.push_str(",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&ev.event.to_json_line(ev.at, ev.src));
        }
        if !self.events.is_empty() {
            s.push('\n');
        }
        let _ = write!(
            s,
            "],\"samples_dropped\":{},\"samples\":[",
            self.samples_dropped
        );
        for (i, line) in self.samples.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(line);
        }
        if !self.samples.is_empty() {
            s.push('\n');
        }
        let _ = write!(
            s,
            "],\"snapshots_dropped\":{},\"snapshots\":[",
            self.snapshots_dropped
        );
        for (i, line) in self.snapshots.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(line);
        }
        if !self.snapshots.is_empty() {
            s.push('\n');
        }
        s.push_str("]}\n");
        s
    }
}

/// Decode one [`ObsEvent::to_json_line`] line back into a
/// [`TracedEvent`]. Accepts exactly the encoding this crate writes
/// (fixed identifier strings, unsigned integers, booleans) — the inverse
/// `agp postmortem` uses to replay a dump's window.
pub fn parse_event_line(line: &str) -> Result<TracedEvent, String> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: {line}"))?;
    // Our encoding never puts commas or colons inside string values
    // (identifiers only), so flat splitting is exact.
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for part in body.split(',') {
        let (k, v) = part
            .split_once(':')
            .ok_or_else(|| format!("malformed field {part:?}"))?;
        let k = k
            .trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("malformed key {k:?}"))?;
        fields.push((k, v.trim()));
    }
    let raw = |key: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field \"{key}\""))
    };
    let num = |key: &str| -> Result<u64, String> {
        raw(key)?
            .parse::<u64>()
            .map_err(|e| format!("field \"{key}\": {e}"))
    };
    let num32 = |key: &str| -> Result<u32, String> {
        raw(key)?
            .parse::<u32>()
            .map_err(|e| format!("field \"{key}\": {e}"))
    };
    let flag = |key: &str| -> Result<bool, String> {
        match raw(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("field \"{key}\": not a bool: {other}")),
        }
    };
    let text = |key: &str| -> Result<&str, String> {
        raw(key)?
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("field \"{key}\": not a string"))
    };

    let at = SimTime::from_us(num("t")?);
    let src = num32("src")?;
    let name = text("ev")?;
    let event = match name {
        "page_fault" => ObsEvent::PageFault {
            pid: num32("pid")?,
            page: num32("page")?,
            major: flag("major")?,
        },
        "major_fault" => ObsEvent::MajorFault {
            pid: num32("pid")?,
            page: num32("page")?,
            readahead: num32("readahead")?,
            write_pages: num("write_pages")?,
            read_pages: num("read_pages")?,
        },
        "readahead_hit" => ObsEvent::ReadaheadHit {
            pid: num32("pid")?,
            page: num32("page")?,
        },
        "evict_batch" => ObsEvent::EvictBatch {
            pid: num32("pid")?,
            pages: num32("pages")?,
            write_pages: num32("write_pages")?,
        },
        "evict" => ObsEvent::Evict {
            pid: num32("pid")?,
            page: num32("page")?,
            false_eviction: flag("false_eviction")?,
            recorded: flag("recorded")?,
        },
        "reclaim" => ObsEvent::Reclaim {
            target: num("target")?,
            freed: num("freed")?,
            write_pages: num("write_pages")?,
        },
        "aggressive_out" => ObsEvent::AggressiveOut {
            pid: num32("pid")?,
            pages: num("pages")?,
        },
        "replay_page" => ObsEvent::ReplayPage {
            pid: num32("pid")?,
            page: num32("page")?,
        },
        "replay" => ObsEvent::Replay {
            pid: num32("pid")?,
            pages: num("pages")?,
            skipped: num("skipped")?,
        },
        "bg_tick" => ObsEvent::BgTick {
            pid: num32("pid")?,
            pages: num("pages")?,
        },
        "disk_request" => ObsEvent::DiskRequest {
            write: flag("write")?,
            extents: num32("extents")?,
            pages: num("pages")?,
            wait_us: num("wait_us")?,
            seek_us: num("seek_us")?,
            service_us: num("service_us")?,
        },
        "fault_service" => ObsEvent::FaultService {
            pid: num32("pid")?,
            page: num32("page")?,
            wait_us: num("wait_us")?,
        },
        "barrier_wait" => ObsEvent::BarrierWait {
            ranks: num32("ranks")?,
            skew_us: num("skew_us")?,
            lag_us: num("lag_us")?,
        },
        "switch_phase" => ObsEvent::SwitchPhase {
            switch: num("switch")?,
            phase: match text("phase")? {
                "stop" => SwitchPhaseKind::Stop,
                "page_out" => SwitchPhaseKind::PageOut,
                "page_in" => SwitchPhaseKind::PageIn,
                "cont" => SwitchPhaseKind::Cont,
                other => return Err(format!("unknown switch phase {other:?}")),
            },
            dur_us: num("dur_us")?,
        },
        "switch_done" => ObsEvent::SwitchDone {
            switch: num("switch")?,
            total_us: num("total_us")?,
        },
        "node_gauge" => ObsEvent::NodeGauge {
            free_frames: num("free_frames")?,
            dirty_pages: num("dirty_pages")?,
            disk_backlog_us: num("disk_backlog_us")?,
            disk_busy_us: num("disk_busy_us")?,
            bg_cleaned: num("bg_cleaned")?,
        },
        "proc_gauge" => ObsEvent::ProcGauge {
            pid: num32("pid")?,
            resident: num("resident")?,
            dirty: num("dirty")?,
        },
        "disk_error" => ObsEvent::DiskError {
            write: flag("write")?,
            pages: num("pages")?,
            service_us: num("service_us")?,
        },
        "disk_slowdown" => ObsEvent::DiskSlowdown {
            penalty_us: num("penalty_us")?,
        },
        "io_retry" => ObsEvent::IoRetry {
            node: num32("node")?,
            attempt: num32("attempt")?,
            backoff_us: num("backoff_us")?,
        },
        "node_crash" => ObsEvent::NodeCrash {
            node: num32("node")?,
            jobs_suspended: num32("jobs_suspended")?,
        },
        "node_restart" => ObsEvent::NodeRestart {
            node: num32("node")?,
            jobs_requeued: num32("jobs_requeued")?,
        },
        "job_requeued" => ObsEvent::JobRequeued { job: num32("job")? },
        "barrier_timeout" => ObsEvent::BarrierTimeout {
            job: num32("job")?,
            attempt: num32("attempt")?,
            waited_us: num("waited_us")?,
        },
        "mem_pressure" => ObsEvent::MemPressure {
            node: num32("node")?,
            target: num("target")?,
            write_pages: num("write_pages")?,
        },
        "ai_degraded" => ObsEvent::AiDegraded {
            node: num32("node")?,
            errors: num("errors")?,
        },
        "io_exhausted" => ObsEvent::IoExhausted {
            node: num32("node")?,
            attempts: num32("attempts")?,
        },
        "barrier_exhausted" => ObsEvent::BarrierExhausted {
            job: num32("job")?,
            attempts: num32("attempts")?,
        },
        "watchdog_trip" => {
            let rule_name = text("rule")?;
            ObsEvent::WatchdogTrip {
                rule: WatchdogRule::from_name(rule_name)
                    .ok_or_else(|| format!("unknown watchdog rule {rule_name:?}"))?,
                value: num("value")?,
                limit: num("limit")?,
            }
        }
        other => return Err(format!("unknown event {other:?}")),
    };
    Ok(TracedEvent { at, src, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(page: u32) -> ObsEvent {
        ObsEvent::ReadaheadHit { pid: 1, page }
    }

    #[test]
    fn ring_wraps_and_freeze_appends_trip_marker() {
        let mut ring = RingBuffer::new(4);
        for page in 0..10 {
            ring.on_event(SimTime::from_us(page as u64), 0, &ev(page));
        }
        let meta = RunMeta {
            scenario: "t".to_string(),
            seed: 7,
            ..RunMeta::default()
        };
        let trigger = IncidentTrigger::Watchdog {
            rule: WatchdogRule::QueueDepth,
            value: 9,
            limit: 4,
            detail: String::new(),
        };
        let dump = IncidentDump::new(ring.clone(), trigger, 10, meta.clone());
        assert_eq!(dump.events_seen, 11, "10 events + trip marker");
        assert_eq!(dump.events_dropped, 7);
        assert_eq!(dump.events.len(), 4);
        // Oldest-first, trip marker last, stamped at the trip.
        assert_eq!(dump.events[0].event, ev(7));
        let last = &dump.events[3];
        assert_eq!(
            last.event,
            ObsEvent::WatchdogTrip {
                rule: WatchdogRule::QueueDepth,
                value: 9,
                limit: 4,
            }
        );
        assert_eq!((last.at, last.src), (SimTime::from_us(10), SRC_CLUSTER));
        assert_eq!(dump.at_us, 10);
        assert_eq!(dump.meta.seed, 7);
        // An error trigger freezes the window as it is.
        let error = IncidentTrigger::Error {
            what: "boom".to_string(),
        };
        let plain = IncidentDump::new(ring, error, 9, meta);
        assert_eq!((plain.events_seen, plain.events_dropped), (10, 6));
        assert_eq!(plain.events.last().map(|te| &te.event), Some(&ev(9)));
    }

    #[test]
    fn dump_encoding_is_stable_and_deterministic() {
        let make = || {
            let mut events = Vec::new();
            for page in 0..3 {
                events.push(TracedEvent {
                    at: SimTime::from_us(page as u64 * 10),
                    src: 0,
                    event: ev(page),
                });
            }
            IncidentDump {
                schema_version: DUMP_SCHEMA_VERSION,
                trigger: IncidentTrigger::Watchdog {
                    rule: WatchdogRule::JobStall,
                    value: 100,
                    limit: 50,
                    detail: "job b stalled".to_string(),
                },
                at_us: 30,
                meta: RunMeta {
                    scenario: "quick \"q\"".to_string(),
                    seed: 42,
                    config_fp: 0xdead_beef,
                    jobs: vec!["a".to_string(), "b".to_string()],
                    pid_job: vec![(0, 0), (1, 1)],
                },
                events_seen: 3,
                events_dropped: 0,
                events,
                samples_dropped: 0,
                samples: vec!["{\"s\":1}".to_string()],
                snapshots_dropped: 0,
                snapshots: Vec::new(),
            }
        };
        let a = make().to_json_string();
        assert_eq!(a, make().to_json_string(), "encoding must be deterministic");
        assert!(a.starts_with(
            "{\"schema_version\":1,\"trigger\":{\"kind\":\"watchdog\",\"rule\":\"job_stall\",\"value\":100,\"limit\":50,\"detail\":\"job b stalled\"},\"at_us\":30,\"scenario\":\"quick \\\"q\\\"\",\"seed\":42,\"config_fp\":\"00000000deadbeef\",\"jobs\":[\"a\",\"b\"],\"pid_job\":[[0,0],[1,1]],\"events_seen\":3,\"events_dropped\":0,\"events\":[\n"
        ));
        assert!(a.ends_with("],\"samples_dropped\":0,\"samples\":[\n{\"s\":1}\n],\"snapshots_dropped\":0,\"snapshots\":[]}\n"));
    }

    #[test]
    fn every_event_line_round_trips() {
        // Parse must invert the encoder for every variant; the samples'
        // fields carry distinct non-zero values, so a swapped field fails.
        for event in ObsEvent::samples() {
            let orig = TracedEvent {
                at: SimTime::from_us(123),
                src: 4,
                event,
            };
            let line = orig.event.to_json_line(orig.at, orig.src);
            let back = parse_event_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, orig, "round trip failed for {line}");
        }
    }

    #[test]
    fn malformed_event_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"t\":1}",
            "{\"t\":1,\"src\":0,\"ev\":\"nope\"}",
            "{\"t\":1,\"src\":0,\"ev\":\"page_fault\",\"pid\":1,\"page\":2}",
            "{\"t\":-1,\"src\":0,\"ev\":\"replay_page\",\"pid\":1,\"page\":2}",
        ] {
            assert!(parse_event_line(bad).is_err(), "must reject {bad:?}");
        }
    }
}
