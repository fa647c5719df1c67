//! The black-box flight recorder: a process-global, atomically gated
//! last-N window of raw events (plus telemetry-sample and
//! monitor-snapshot mirrors) that a watchdog trip or a typed error
//! unwind freezes into a schema-versioned, byte-deterministic incident
//! dump.
//!
//! Full JSONL traces are infeasible for open-system streams; aggregates
//! (collectors, windows, monitor snapshots) survive but cannot explain
//! *why* an invariant tripped. The recorder keeps exactly the raw event
//! window `agp postmortem` needs, with the same gate discipline as
//! `agp-perf`: when nothing is armed, every hook is a single relaxed
//! atomic load.
//!
//! ## Lifecycle
//!
//! 1. [`arm`] installs a fresh recorder (CLI `--flight-recorder`).
//! 2. The simulation splices [`sink`] into its observer fanout and calls
//!    [`note_run`] with the run's identity (scenario, seed, config
//!    fingerprint, job table) — this also clears the window, so each run
//!    records its own black box.
//! 3. Events stream through [`record`]; telemetry samples and monitor
//!    snapshots are mirrored via [`mirror_sample`] / [`mirror_snapshot`].
//! 4. A watchdog trip or error unwind calls [`freeze`]. The first freeze
//!    wins; a watchdog freeze appends the [`ObsEvent::WatchdogTrip`]
//!    marker as the final ring event.
//! 5. [`take_incident`] yields the [`IncidentDump`] (and re-opens the
//!    recorder for the next run).
//!
//! ## Determinism
//!
//! The dump encoding is hand-rolled like [`ObsEvent::to_json_line`]:
//! fixed field order, integers/booleans/fixed identifier strings, one
//! event object per line inside the `events` array. Two runs with the
//! same seed and config freeze byte-identical dumps.

use crate::event::{ObsEvent, SwitchPhaseKind, WatchdogRule, SRC_CLUSTER};
use crate::observer::{shared, Observer, SharedSink};
use crate::sink::{RingBuffer, TracedEvent};
use agp_sim::SimTime;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Incident-dump schema version (`"schema_version"` in the JSON).
pub const DUMP_SCHEMA_VERSION: u32 = 1;

/// Capacity and watchdog knobs for one armed recorder.
///
/// The watchdog thresholds live here (plain data, evaluated by
/// `agp-cluster` in sim time) so arming is a single call and the whole
/// incident configuration has one source of truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Raw events retained (ring capacity).
    pub events: usize,
    /// Telemetry sample lines retained.
    pub samples: usize,
    /// Monitor snapshot lines retained.
    pub snapshots: usize,
    /// Trip [`WatchdogRule::JobStall`] when an unfinished job makes no
    /// observable progress for this many sim-µs (`None`: rule off).
    pub stall_slo_us: Option<u64>,
    /// Trip [`WatchdogRule::QueueDepth`] when the simulator event queue
    /// exceeds this many entries (`None`: rule off).
    pub queue_limit: Option<u64>,
    /// Trip [`WatchdogRule::NoProgress`] when *every* unfinished job has
    /// gone this many sim-µs without observable progress — the hang
    /// detector (`None`: rule off).
    pub no_progress_us: Option<u64>,
    /// Trip [`WatchdogRule::RecoveryExhausted`] when a recovery policy
    /// runs out of retries and forces an outcome.
    pub trip_on_exhaustion: bool,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            events: 4096,
            samples: 64,
            snapshots: 16,
            stall_slo_us: None,
            queue_limit: None,
            no_progress_us: None,
            trip_on_exhaustion: true,
        }
    }
}

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

/// Identity of the run being recorded, captured before the event loop
/// starts so a dump is attributable even when the run dies early.
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

struct Recorder {
    cfg: FlightConfig,
    ring: RingBuffer,
    samples: VecDeque<String>,
    samples_seen: u64,
    snapshots: VecDeque<String>,
    snapshots_seen: u64,
    meta: RunMeta,
    frozen: Option<(IncidentTrigger, u64)>,
}

impl Recorder {
    fn new(cfg: FlightConfig) -> Self {
        Recorder {
            ring: RingBuffer::new(cfg.events),
            samples: VecDeque::with_capacity(cfg.samples.min(1024)),
            samples_seen: 0,
            snapshots: VecDeque::with_capacity(cfg.snapshots.min(1024)),
            snapshots_seen: 0,
            cfg,
            meta: RunMeta::default(),
            frozen: None,
        }
    }

    fn reset_window(&mut self) {
        self.ring = RingBuffer::new(self.cfg.events);
        self.samples.clear();
        self.samples_seen = 0;
        self.snapshots.clear();
        self.snapshots_seen = 0;
        self.frozen = None;
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn hub() -> &'static Mutex<Option<Recorder>> {
    static HUB: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    HUB.get_or_init(|| Mutex::new(None))
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    let mut guard = match hub().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.as_mut().map(f)
}

/// Arm the recorder with `cfg`, replacing any previous recorder.
pub fn arm(cfg: FlightConfig) {
    let mut guard = match hub().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard = Some(Recorder::new(cfg));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm and discard the recorder (and any unfetched incident).
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    let mut guard = match hub().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    *guard = None;
}

/// Whether a recorder is armed. A single relaxed load — the gate every
/// hot-path hook checks first.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The armed recorder's configuration, if any.
pub fn config() -> Option<FlightConfig> {
    if !armed() {
        return None;
    }
    with_recorder(|r| r.cfg.clone())
}

/// Start a fresh recording window for one run: store its identity and
/// clear the previous window (a multi-experiment invocation keeps only
/// the failing run's black box).
pub fn note_run(meta: RunMeta) {
    if !armed() {
        return;
    }
    with_recorder(|r| {
        r.reset_window();
        r.meta = meta;
    });
}

/// Record one event into the ring (no-op when disarmed or frozen).
#[inline]
pub fn record(at: SimTime, src: u32, ev: &ObsEvent) {
    if !armed() {
        return;
    }
    with_recorder(|r| {
        if r.frozen.is_none() {
            r.ring.on_event(at, src, ev);
        }
    });
}

/// Mirror one telemetry sample line (a complete JSON object) into the
/// bounded sample window.
pub fn mirror_sample(line: &str) {
    if !armed() {
        return;
    }
    with_recorder(|r| {
        if r.frozen.is_some() || r.cfg.samples == 0 {
            return;
        }
        r.samples_seen += 1;
        if r.samples.len() == r.cfg.samples {
            r.samples.pop_front();
        }
        r.samples.push_back(line.to_string());
    });
}

/// Mirror one monitor snapshot line (a complete JSON object) into the
/// bounded snapshot window.
pub fn mirror_snapshot(line: &str) {
    if !armed() {
        return;
    }
    with_recorder(|r| {
        if r.frozen.is_some() || r.cfg.snapshots == 0 {
            return;
        }
        r.snapshots_seen += 1;
        if r.snapshots.len() == r.cfg.snapshots {
            r.snapshots.pop_front();
        }
        r.snapshots.push_back(line.to_string());
    });
}

/// Freeze the ring. The first freeze wins (later calls are no-ops, so an
/// error unwind after a watchdog trip cannot overwrite the trigger). A
/// watchdog trigger appends the [`ObsEvent::WatchdogTrip`] marker as the
/// ring's final event. Returns whether this call performed the freeze.
pub fn freeze(trigger: IncidentTrigger, at: SimTime) -> bool {
    if !armed() {
        return false;
    }
    with_recorder(|r| {
        if r.frozen.is_some() {
            return false;
        }
        if let IncidentTrigger::Watchdog {
            rule, value, limit, ..
        } = &trigger
        {
            let marker = ObsEvent::WatchdogTrip {
                rule: *rule,
                value: *value,
                limit: *limit,
            };
            r.ring.on_event(at, SRC_CLUSTER, &marker);
        }
        r.frozen = Some((trigger, at.as_us()));
        true
    })
    .unwrap_or(false)
}

/// Take the frozen incident, re-opening the recorder for the next run.
/// `None` when disarmed or when nothing has frozen the ring.
pub fn take_incident() -> Option<IncidentDump> {
    if !armed() {
        return None;
    }
    with_recorder(|r| {
        let (trigger, at_us) = r.frozen.clone()?;
        let events_seen = r.ring.total_seen();
        let events_dropped = r.ring.dropped();
        let dump = IncidentDump {
            schema_version: DUMP_SCHEMA_VERSION,
            trigger,
            at_us,
            meta: r.meta.clone(),
            events_seen,
            events_dropped,
            events: r.ring.drain(),
            samples_dropped: r.samples_seen.saturating_sub(r.samples.len() as u64),
            samples: r.samples.drain(..).collect(),
            snapshots_dropped: r.snapshots_seen.saturating_sub(r.snapshots.len() as u64),
            snapshots: r.snapshots.drain(..).collect(),
        };
        r.reset_window();
        Some(dump)
    })
    .flatten()
}

/// An [`Observer`] forwarding every delivered event into the recorder —
/// splice it into the simulation's fanout with [`crate::ObsLink::extended`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FlightSink;

impl Observer for FlightSink {
    fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent) {
        record(at, src, ev);
    }
}

/// A fresh shared [`FlightSink`] handle.
pub fn sink() -> SharedSink {
    shared(FlightSink)
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
    /// Telemetry samples evicted by the capacity bound.
    pub samples_dropped: u64,
    /// Retained telemetry sample lines, oldest first.
    pub samples: Vec<String>,
    /// Monitor snapshots evicted by the capacity bound.
    pub snapshots_dropped: u64,
    /// Retained monitor snapshot lines, oldest first.
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

    /// Global-hub tests share one lock so `cargo test`'s parallel runner
    /// cannot interleave arm/disarm cycles.
    fn hub_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn ev(page: u32) -> ObsEvent {
        ObsEvent::ReadaheadHit { pid: 1, page }
    }

    #[test]
    fn disarmed_hooks_are_no_ops() {
        let _g = hub_lock();
        disarm();
        assert!(!armed());
        record(SimTime::ZERO, 0, &ev(1));
        mirror_sample("{\"x\":1}");
        mirror_snapshot("{\"y\":2}");
        assert!(!freeze(
            IncidentTrigger::Error {
                what: "nope".to_string()
            },
            SimTime::ZERO
        ));
        assert!(take_incident().is_none());
    }

    #[test]
    fn ring_wraps_and_freeze_appends_trip_marker() {
        let _g = hub_lock();
        arm(FlightConfig {
            events: 4,
            ..FlightConfig::default()
        });
        note_run(RunMeta {
            scenario: "t".to_string(),
            seed: 7,
            ..RunMeta::default()
        });
        for page in 0..10 {
            record(SimTime::from_us(page as u64), 0, &ev(page));
        }
        assert!(freeze(
            IncidentTrigger::Watchdog {
                rule: WatchdogRule::QueueDepth,
                value: 9,
                limit: 4,
                detail: String::new(),
            },
            SimTime::from_us(10)
        ));
        // Second freeze loses.
        assert!(!freeze(
            IncidentTrigger::Error {
                what: "late".to_string()
            },
            SimTime::from_us(11)
        ));
        let dump = take_incident().expect("frozen incident");
        assert_eq!(dump.events_seen, 11, "10 events + trip marker");
        assert_eq!(dump.events_dropped, 7);
        assert_eq!(dump.events.len(), 4);
        // Oldest-first, trip marker last.
        assert_eq!(dump.events[0].event, ev(7));
        assert_eq!(
            dump.events[3].event,
            ObsEvent::WatchdogTrip {
                rule: WatchdogRule::QueueDepth,
                value: 9,
                limit: 4,
            }
        );
        assert_eq!(dump.at_us, 10);
        assert_eq!(dump.meta.seed, 7);
        // Taking the incident re-opened the window.
        assert!(take_incident().is_none());
        record(SimTime::ZERO, 0, &ev(99));
        assert!(freeze(
            IncidentTrigger::Error {
                what: "again".to_string()
            },
            SimTime::ZERO
        ));
        let second = take_incident().expect("second incident");
        assert_eq!(second.events_seen, 1);
        disarm();
    }

    #[test]
    fn frozen_ring_ignores_further_events() {
        let _g = hub_lock();
        arm(FlightConfig::default());
        record(SimTime::ZERO, 0, &ev(1));
        freeze(
            IncidentTrigger::Error {
                what: "stop".to_string(),
            },
            SimTime::from_us(5),
        );
        record(SimTime::from_us(6), 0, &ev(2));
        mirror_sample("{\"late\":1}");
        let dump = take_incident().expect("incident");
        assert_eq!(dump.events.len(), 1);
        assert!(dump.samples.is_empty());
        disarm();
    }

    #[test]
    fn sample_and_snapshot_mirrors_are_bounded() {
        let _g = hub_lock();
        arm(FlightConfig {
            samples: 2,
            snapshots: 1,
            ..FlightConfig::default()
        });
        for i in 0..5 {
            mirror_sample(&format!("{{\"s\":{i}}}"));
        }
        mirror_snapshot("{\"m\":0}");
        mirror_snapshot("{\"m\":1}");
        freeze(
            IncidentTrigger::Error {
                what: "x".to_string(),
            },
            SimTime::ZERO,
        );
        let dump = take_incident().expect("incident");
        assert_eq!(dump.samples, vec!["{\"s\":3}", "{\"s\":4}"]);
        assert_eq!(dump.samples_dropped, 3);
        assert_eq!(dump.snapshots, vec!["{\"m\":1}"]);
        assert_eq!(dump.snapshots_dropped, 1);
        disarm();
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
        // Parse must invert the encoder for every variant; reuse the
        // canonical one-of-each list shape from the event tests.
        let evs = [
            ObsEvent::PageFault {
                pid: 1,
                page: 2,
                major: true,
            },
            ObsEvent::MajorFault {
                pid: 1,
                page: 2,
                readahead: 3,
                write_pages: 4,
                read_pages: 5,
            },
            ObsEvent::ReadaheadHit { pid: 1, page: 2 },
            ObsEvent::EvictBatch {
                pid: 1,
                pages: 2,
                write_pages: 3,
            },
            ObsEvent::Evict {
                pid: 1,
                page: 2,
                false_eviction: true,
                recorded: false,
            },
            ObsEvent::Reclaim {
                target: 1,
                freed: 2,
                write_pages: 3,
            },
            ObsEvent::AggressiveOut { pid: 1, pages: 2 },
            ObsEvent::ReplayPage { pid: 1, page: 2 },
            ObsEvent::Replay {
                pid: 1,
                pages: 2,
                skipped: 3,
            },
            ObsEvent::BgTick { pid: 1, pages: 2 },
            ObsEvent::DiskRequest {
                write: true,
                extents: 1,
                pages: 2,
                wait_us: 3,
                seek_us: 4,
                service_us: 5,
            },
            ObsEvent::FaultService {
                pid: 1,
                page: 2,
                wait_us: 3,
            },
            ObsEvent::BarrierWait {
                ranks: 2,
                skew_us: 3,
                lag_us: 4,
            },
            ObsEvent::SwitchPhase {
                switch: 1,
                phase: SwitchPhaseKind::PageOut,
                dur_us: 2,
            },
            ObsEvent::SwitchDone {
                switch: 1,
                total_us: 2,
            },
            ObsEvent::NodeGauge {
                free_frames: 1,
                dirty_pages: 2,
                disk_backlog_us: 3,
                disk_busy_us: 4,
                bg_cleaned: 5,
            },
            ObsEvent::ProcGauge {
                pid: 1,
                resident: 2,
                dirty: 3,
            },
            ObsEvent::DiskError {
                write: false,
                pages: 2,
                service_us: 3,
            },
            ObsEvent::DiskSlowdown { penalty_us: 1 },
            ObsEvent::IoRetry {
                node: 1,
                attempt: 2,
                backoff_us: 3,
            },
            ObsEvent::NodeCrash {
                node: 1,
                jobs_suspended: 2,
            },
            ObsEvent::NodeRestart {
                node: 1,
                jobs_requeued: 2,
            },
            ObsEvent::JobRequeued { job: 1 },
            ObsEvent::BarrierTimeout {
                job: 1,
                attempt: 2,
                waited_us: 3,
            },
            ObsEvent::MemPressure {
                node: 1,
                target: 2,
                write_pages: 3,
            },
            ObsEvent::AiDegraded { node: 1, errors: 2 },
            ObsEvent::IoExhausted {
                node: 1,
                attempts: 2,
            },
            ObsEvent::BarrierExhausted {
                job: 1,
                attempts: 2,
            },
            ObsEvent::WatchdogTrip {
                rule: WatchdogRule::RecoveryExhausted,
                value: 1,
                limit: 2,
            },
        ];
        for event in evs {
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
