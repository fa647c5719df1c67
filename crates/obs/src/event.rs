//! The event taxonomy and its deterministic JSONL encoding.

use agp_sim::SimTime;
use std::fmt::Write as _;

/// `src` tag for events emitted by the cluster layer itself (switch
/// phases, fault service) rather than by one node or one job.
pub const SRC_CLUSTER: u32 = u32::MAX;

/// One of the four phases of the paper's coordinated gang switch
/// (STOP every outgoing rank → `adaptive_page_out` → `adaptive_page_in`
/// → CONT the incoming ranks).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwitchPhaseKind {
    /// SIGSTOP delivery to the outgoing ranks.
    Stop,
    /// Switch-time page-out (selective context + aggressive eviction
    /// writes draining).
    PageOut,
    /// Switch-time page-in (adaptive replay reads draining).
    PageIn,
    /// SIGCONT delivery / resumption of the incoming ranks.
    Cont,
}

impl SwitchPhaseKind {
    /// Stable wire name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            SwitchPhaseKind::Stop => "stop",
            SwitchPhaseKind::PageOut => "page_out",
            SwitchPhaseKind::PageIn => "page_in",
            SwitchPhaseKind::Cont => "cont",
        }
    }
}

/// Which deterministic watchdog rule tripped the flight recorder.
///
/// The taxonomy is part of the incident-dump schema: names are emitted
/// verbatim in `watchdog_trip` events and in `agp postmortem` reports,
/// so renaming a rule is a schema change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WatchdogRule {
    /// The periodic invariant sweep found a violated invariant.
    Invariant,
    /// A recovery policy ran out of retries and forced an outcome
    /// (I/O retry budget or barrier re-issue budget exhausted).
    RecoveryExhausted,
    /// One job made no observable progress for longer than its SLO.
    JobStall,
    /// The simulator event queue grew past its configured bound.
    QueueDepth,
    /// Every unfinished job stalled at once: sim time advanced past the
    /// bound with jobs still pending but no job-level progress — the
    /// deterministic stand-in for "the run is hung".
    NoProgress,
}

impl WatchdogRule {
    /// Stable wire name used in the JSONL/incident encoding.
    pub fn name(self) -> &'static str {
        match self {
            WatchdogRule::Invariant => "invariant",
            WatchdogRule::RecoveryExhausted => "recovery_exhausted",
            WatchdogRule::JobStall => "job_stall",
            WatchdogRule::QueueDepth => "queue_depth",
            WatchdogRule::NoProgress => "no_progress",
        }
    }

    /// Inverse of [`WatchdogRule::name`], used when reloading dumps.
    pub fn from_name(name: &str) -> Option<WatchdogRule> {
        Some(match name {
            "invariant" => WatchdogRule::Invariant,
            "recovery_exhausted" => WatchdogRule::RecoveryExhausted,
            "job_stall" => WatchdogRule::JobStall,
            "queue_depth" => WatchdogRule::QueueDepth,
            "no_progress" => WatchdogRule::NoProgress,
            _ => return None,
        })
    }
}

/// A structured simulation event.
///
/// Payloads are plain integers/bools so encoding is trivially
/// deterministic. `pid` fields are raw `ProcId` values, `page` fields raw
/// `PageNum` values; durations are integer microseconds (the simulator's
/// native unit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// The kernel observed a fault while a process touched a page
    /// (`major`: the page image must be read from swap; otherwise it is a
    /// first-touch zero fill).
    PageFault {
        /// Faulting process.
        pid: u32,
        /// Faulted page number.
        page: u32,
        /// Whether a swap-in read is required.
        major: bool,
    },
    /// The engine serviced a major fault: the resulting I/O plan sizes.
    MajorFault {
        /// Faulting process.
        pid: u32,
        /// Faulted page number.
        page: u32,
        /// Read-ahead neighbors mapped alongside the faulted page.
        readahead: u32,
        /// Reclaim write-back pages the fault forced.
        write_pages: u64,
        /// Total pages read (fault + read-ahead).
        read_pages: u64,
    },
    /// A read-ahead neighbor was mapped in alongside a major fault.
    ReadaheadHit {
        /// Owning process.
        pid: u32,
        /// The neighbor page.
        page: u32,
    },
    /// The kernel evicted a batch of one process's pages (mechanism-level
    /// view; the per-page policy view is [`ObsEvent::Evict`]).
    EvictBatch {
        /// Victim process.
        pid: u32,
        /// Frames actually freed.
        pages: u32,
        /// Of those, dirty pages that required a swap write.
        write_pages: u32,
    },
    /// The engine evicted one page (policy-level view).
    Evict {
        /// Victim process.
        pid: u32,
        /// Evicted page number.
        page: u32,
        /// Whether the victim is the *currently running* process — the
        /// paper's §3.1 "false eviction".
        false_eviction: bool,
        /// Whether the page was recorded for adaptive page-in replay.
        recorded: bool,
    },
    /// One run of the reclaim path (`try_to_free_pages` analog).
    Reclaim {
        /// Frames the watermark model asked for.
        target: u64,
        /// Frames actually freed.
        freed: u64,
        /// Write-back pages the reclaim produced.
        write_pages: u64,
    },
    /// Aggressive page-out evicted the outgoing process at a switch.
    AggressiveOut {
        /// The outgoing process.
        pid: u32,
        /// Pages evicted to cover the incoming working-set estimate.
        pages: u64,
    },
    /// Adaptive page-in staged one recorded page back into memory
    /// (per-page view of [`ObsEvent::Replay`]; the redundant-page-in
    /// detector joins these to later evict/fault events).
    ReplayPage {
        /// The incoming process.
        pid: u32,
        /// The staged page.
        page: u32,
    },
    /// Adaptive page-in replayed a recorded working set.
    Replay {
        /// The incoming process.
        pid: u32,
        /// Pages brought back by the replay.
        pages: u64,
        /// Recorded pages skipped (already resident / no frames).
        skipped: u64,
    },
    /// One background-writer burst that found dirty pages.
    BgTick {
        /// Process being cleaned.
        pid: u32,
        /// Pages written dirty → clean-with-copy.
        pages: u64,
    },
    /// A request was submitted to a node's paging disk.
    DiskRequest {
        /// Whether this is a write (page-out) request.
        write: bool,
        /// Extents in the request (seek count proxy).
        extents: u32,
        /// Pages moved.
        pages: u64,
        /// Queue wait before service started, µs.
        wait_us: u64,
        /// Head positioning (seek + rotation) share of the service time,
        /// µs — lets consumers split service into seek vs transfer.
        seek_us: u64,
        /// Device service time, µs (positioning + transfer + overhead).
        service_us: u64,
    },
    /// A faulting process blocked on disk I/O; emitted at the fault
    /// instant with the full stall duration.
    FaultService {
        /// The blocked process.
        pid: u32,
        /// The faulted page — joins the stall to the `Evict` that pushed
        /// the page out (false-eviction provenance).
        page: u32,
        /// Stall until the fault I/O completed, µs.
        wait_us: u64,
    },
    /// All ranks of a job passed a barrier (emitted at the release
    /// decision, i.e. the last arrival).
    BarrierWait {
        /// Participating ranks.
        ranks: u32,
        /// Spread between first and last arrival, µs — the skew one
        /// node's paging imposes on every other node.
        skew_us: u64,
        /// Network completion lag after the last arrival, µs.
        lag_us: u64,
    },
    /// One phase of gang switch number `switch`.
    SwitchPhase {
        /// Monotonic switch counter (includes the initial placement).
        switch: u64,
        /// Which phase.
        phase: SwitchPhaseKind,
        /// Phase duration, µs.
        dur_us: u64,
    },
    /// Gang switch number `switch` completed planning; its four
    /// [`ObsEvent::SwitchPhase`] durations sum to `total_us` exactly.
    SwitchDone {
        /// Monotonic switch counter.
        switch: u64,
        /// Total switch duration, µs.
        total_us: u64,
    },
    /// Periodic per-node state sample (telemetry sampler cadence; `src`
    /// is the node index). All values are instantaneous gauges except the
    /// two cumulative counters noted below.
    NodeGauge {
        /// Free (allocatable) frames right now.
        free_frames: u64,
        /// Dirty resident pages across all registered processes.
        dirty_pages: u64,
        /// Outstanding paging-disk backlog: how far `busy_until` lies
        /// beyond the sample instant, µs (0 when the device is idle).
        disk_backlog_us: u64,
        /// Cumulative device busy time, µs (monotonic counter; the
        /// consumer differences consecutive samples for a busy-% series).
        disk_busy_us: u64,
        /// Cumulative pages cleaned by the background writer (monotonic
        /// counter tracking bg-writer progress through the window).
        bg_cleaned: u64,
    },
    /// Periodic per-process residency sample (paired with
    /// [`ObsEvent::NodeGauge`]; `src` is the node index).
    ProcGauge {
        /// Sampled process.
        pid: u32,
        /// Resident pages.
        resident: u64,
        /// Of those, dirty pages.
        dirty: u64,
    },
    /// An injected transient disk error: the request burned the device's
    /// command overhead and failed; no pages moved (chaos only — never
    /// emitted on a fault-free run, like every variant below).
    DiskError {
        /// Whether the failed request was a write.
        write: bool,
        /// Pages the request would have moved.
        pages: u64,
        /// Time the failed attempt occupied the device, µs.
        service_us: u64,
    },
    /// An injected latency spike inflated one request's service time.
    DiskSlowdown {
        /// Added service latency, µs.
        penalty_us: u64,
    },
    /// The cluster re-submitted a failed disk request after backoff.
    IoRetry {
        /// Node whose disk failed.
        node: u32,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Backoff waited before this retry, µs.
        backoff_us: u64,
    },
    /// A node crashed; its volatile state (kernel, paging engine,
    /// resident sets) is gone and every job with a rank there is
    /// suspended pending requeue.
    NodeCrash {
        /// The crashed node.
        node: u32,
        /// Jobs suspended by the crash.
        jobs_suspended: u32,
    },
    /// A crashed node restarted; suspended jobs whose nodes are all up
    /// again were requeued with the gang scheduler.
    NodeRestart {
        /// The restarted node.
        node: u32,
        /// Jobs requeued at this restart.
        jobs_requeued: u32,
    },
    /// One job was requeued after a crash (restarts from iteration 0 —
    /// the model has no checkpointing).
    JobRequeued {
        /// The requeued job.
        job: u32,
    },
    /// A barrier release message was dropped; the timeout fired and the
    /// release was re-issued (or forced through on the final attempt).
    BarrierTimeout {
        /// The affected job.
        job: u32,
        /// Re-issue attempt number (1-based).
        attempt: u32,
        /// Time the ranks waited past the original release, µs.
        waited_us: u64,
    },
    /// An injected memory-pressure burst forced an immediate reclaim.
    MemPressure {
        /// The pressured node.
        node: u32,
        /// Frames the burst demanded.
        target: u64,
        /// Write-back pages the forced reclaim produced.
        write_pages: u64,
    },
    /// Adaptive page-in degraded to demand paging on one node after
    /// repeated injected disk errors (graceful degradation: bulk replay
    /// reads amplify a flaky disk).
    AiDegraded {
        /// The degraded node.
        node: u32,
        /// Injected disk errors observed when the policy tripped.
        errors: u64,
    },
    /// The I/O recovery policy exhausted its retry budget on one node
    /// and forced the request through (chaos runs only — the disk kept
    /// failing past `io_retries` attempts).
    IoExhausted {
        /// The node whose disk exhausted its retries.
        node: u32,
        /// Attempts consumed before the forced completion.
        attempts: u32,
    },
    /// The barrier recovery policy exhausted its re-issue budget for one
    /// job and forced the release through (chaos runs only).
    BarrierExhausted {
        /// The affected job.
        job: u32,
        /// Release re-issues consumed before the forced release.
        attempts: u32,
    },
    /// A deterministic watchdog rule tripped. The incident dump appends
    /// it as the last event of the frozen ring; the simulation itself
    /// never emits it.
    WatchdogTrip {
        /// Which rule tripped.
        rule: WatchdogRule,
        /// The observed value that crossed the rule's limit.
        value: u64,
        /// The configured limit it crossed.
        limit: u64,
    },
}

impl ObsEvent {
    /// Stable wire name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            ObsEvent::PageFault { .. } => "page_fault",
            ObsEvent::MajorFault { .. } => "major_fault",
            ObsEvent::ReadaheadHit { .. } => "readahead_hit",
            ObsEvent::EvictBatch { .. } => "evict_batch",
            ObsEvent::Evict { .. } => "evict",
            ObsEvent::Reclaim { .. } => "reclaim",
            ObsEvent::AggressiveOut { .. } => "aggressive_out",
            ObsEvent::ReplayPage { .. } => "replay_page",
            ObsEvent::Replay { .. } => "replay",
            ObsEvent::BgTick { .. } => "bg_tick",
            ObsEvent::DiskRequest { .. } => "disk_request",
            ObsEvent::FaultService { .. } => "fault_service",
            ObsEvent::BarrierWait { .. } => "barrier_wait",
            ObsEvent::SwitchPhase { .. } => "switch_phase",
            ObsEvent::SwitchDone { .. } => "switch_done",
            ObsEvent::NodeGauge { .. } => "node_gauge",
            ObsEvent::ProcGauge { .. } => "proc_gauge",
            ObsEvent::DiskError { .. } => "disk_error",
            ObsEvent::DiskSlowdown { .. } => "disk_slowdown",
            ObsEvent::IoRetry { .. } => "io_retry",
            ObsEvent::NodeCrash { .. } => "node_crash",
            ObsEvent::NodeRestart { .. } => "node_restart",
            ObsEvent::JobRequeued { .. } => "job_requeued",
            ObsEvent::BarrierTimeout { .. } => "barrier_timeout",
            ObsEvent::MemPressure { .. } => "mem_pressure",
            ObsEvent::AiDegraded { .. } => "ai_degraded",
            ObsEvent::IoExhausted { .. } => "io_exhausted",
            ObsEvent::BarrierExhausted { .. } => "barrier_exhausted",
            ObsEvent::WatchdogTrip { .. } => "watchdog_trip",
        }
    }

    /// One sample value per variant, in declaration order — support for
    /// exhaustiveness tests (wire-name uniqueness and the JSON round trip
    /// here, triage coverage in `agp-explain`). Within each sample the
    /// integer fields are distinct and non-zero and `Evict`'s two flags
    /// differ, so an encoder or parser that swaps two fields fails the
    /// round trip. Adding a variant without extending this list fails
    /// the `every_variant_names_itself` test.
    pub fn samples() -> Vec<ObsEvent> {
        vec![
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
        ]
    }

    /// Encode as one JSON line (no trailing newline): fixed field order,
    /// integers and booleans only — byte-identical across runs for
    /// identical event streams.
    pub fn to_json_line(&self, at: SimTime, src: u32) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"src\":{},\"ev\":\"{}\"",
            at.as_us(),
            src,
            self.name()
        );
        match *self {
            ObsEvent::PageFault { pid, page, major } => {
                let _ = write!(s, ",\"pid\":{pid},\"page\":{page},\"major\":{major}");
            }
            ObsEvent::MajorFault {
                pid,
                page,
                readahead,
                write_pages,
                read_pages,
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"page\":{page},\"readahead\":{readahead},\"write_pages\":{write_pages},\"read_pages\":{read_pages}"
                );
            }
            ObsEvent::ReadaheadHit { pid, page } => {
                let _ = write!(s, ",\"pid\":{pid},\"page\":{page}");
            }
            ObsEvent::EvictBatch {
                pid,
                pages,
                write_pages,
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"pages\":{pages},\"write_pages\":{write_pages}"
                );
            }
            ObsEvent::Evict {
                pid,
                page,
                false_eviction,
                recorded,
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"page\":{page},\"false_eviction\":{false_eviction},\"recorded\":{recorded}"
                );
            }
            ObsEvent::Reclaim {
                target,
                freed,
                write_pages,
            } => {
                let _ = write!(
                    s,
                    ",\"target\":{target},\"freed\":{freed},\"write_pages\":{write_pages}"
                );
            }
            ObsEvent::AggressiveOut { pid, pages } => {
                let _ = write!(s, ",\"pid\":{pid},\"pages\":{pages}");
            }
            ObsEvent::ReplayPage { pid, page } => {
                let _ = write!(s, ",\"pid\":{pid},\"page\":{page}");
            }
            ObsEvent::Replay {
                pid,
                pages,
                skipped,
            } => {
                let _ = write!(s, ",\"pid\":{pid},\"pages\":{pages},\"skipped\":{skipped}");
            }
            ObsEvent::BgTick { pid, pages } => {
                let _ = write!(s, ",\"pid\":{pid},\"pages\":{pages}");
            }
            ObsEvent::DiskRequest {
                write,
                extents,
                pages,
                wait_us,
                seek_us,
                service_us,
            } => {
                let _ = write!(
                    s,
                    ",\"write\":{write},\"extents\":{extents},\"pages\":{pages},\"wait_us\":{wait_us},\"seek_us\":{seek_us},\"service_us\":{service_us}"
                );
            }
            ObsEvent::FaultService { pid, page, wait_us } => {
                let _ = write!(s, ",\"pid\":{pid},\"page\":{page},\"wait_us\":{wait_us}");
            }
            ObsEvent::BarrierWait {
                ranks,
                skew_us,
                lag_us,
            } => {
                let _ = write!(
                    s,
                    ",\"ranks\":{ranks},\"skew_us\":{skew_us},\"lag_us\":{lag_us}"
                );
            }
            ObsEvent::SwitchPhase {
                switch,
                phase,
                dur_us,
            } => {
                let _ = write!(
                    s,
                    ",\"switch\":{switch},\"phase\":\"{}\",\"dur_us\":{dur_us}",
                    phase.name()
                );
            }
            ObsEvent::SwitchDone { switch, total_us } => {
                let _ = write!(s, ",\"switch\":{switch},\"total_us\":{total_us}");
            }
            ObsEvent::NodeGauge {
                free_frames,
                dirty_pages,
                disk_backlog_us,
                disk_busy_us,
                bg_cleaned,
            } => {
                let _ = write!(
                    s,
                    ",\"free_frames\":{free_frames},\"dirty_pages\":{dirty_pages},\"disk_backlog_us\":{disk_backlog_us},\"disk_busy_us\":{disk_busy_us},\"bg_cleaned\":{bg_cleaned}"
                );
            }
            ObsEvent::ProcGauge {
                pid,
                resident,
                dirty,
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"resident\":{resident},\"dirty\":{dirty}"
                );
            }
            ObsEvent::DiskError {
                write,
                pages,
                service_us,
            } => {
                let _ = write!(
                    s,
                    ",\"write\":{write},\"pages\":{pages},\"service_us\":{service_us}"
                );
            }
            ObsEvent::DiskSlowdown { penalty_us } => {
                let _ = write!(s, ",\"penalty_us\":{penalty_us}");
            }
            ObsEvent::IoRetry {
                node,
                attempt,
                backoff_us,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"attempt\":{attempt},\"backoff_us\":{backoff_us}"
                );
            }
            ObsEvent::NodeCrash {
                node,
                jobs_suspended,
            } => {
                let _ = write!(s, ",\"node\":{node},\"jobs_suspended\":{jobs_suspended}");
            }
            ObsEvent::NodeRestart {
                node,
                jobs_requeued,
            } => {
                let _ = write!(s, ",\"node\":{node},\"jobs_requeued\":{jobs_requeued}");
            }
            ObsEvent::JobRequeued { job } => {
                let _ = write!(s, ",\"job\":{job}");
            }
            ObsEvent::BarrierTimeout {
                job,
                attempt,
                waited_us,
            } => {
                let _ = write!(
                    s,
                    ",\"job\":{job},\"attempt\":{attempt},\"waited_us\":{waited_us}"
                );
            }
            ObsEvent::MemPressure {
                node,
                target,
                write_pages,
            } => {
                let _ = write!(
                    s,
                    ",\"node\":{node},\"target\":{target},\"write_pages\":{write_pages}"
                );
            }
            ObsEvent::AiDegraded { node, errors } => {
                let _ = write!(s, ",\"node\":{node},\"errors\":{errors}");
            }
            ObsEvent::IoExhausted { node, attempts } => {
                let _ = write!(s, ",\"node\":{node},\"attempts\":{attempts}");
            }
            ObsEvent::BarrierExhausted { job, attempts } => {
                let _ = write!(s, ",\"job\":{job},\"attempts\":{attempts}");
            }
            ObsEvent::WatchdogTrip { rule, value, limit } => {
                let _ = write!(
                    s,
                    ",\"rule\":\"{}\",\"value\":{value},\"limit\":{limit}",
                    rule.name()
                );
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encoding_is_stable() {
        let ev = ObsEvent::DiskRequest {
            write: true,
            extents: 2,
            pages: 64,
            wait_us: 0,
            seek_us: 8_100,
            service_us: 12_500,
        };
        assert_eq!(
            ev.to_json_line(SimTime::from_ms(3), 1),
            "{\"t\":3000,\"src\":1,\"ev\":\"disk_request\",\"write\":true,\"extents\":2,\"pages\":64,\"wait_us\":0,\"seek_us\":8100,\"service_us\":12500}"
        );
        let ph = ObsEvent::SwitchPhase {
            switch: 4,
            phase: SwitchPhaseKind::PageIn,
            dur_us: 77,
        };
        assert_eq!(
            ph.to_json_line(SimTime::ZERO, SRC_CLUSTER),
            format!("{{\"t\":0,\"src\":{},\"ev\":\"switch_phase\",\"switch\":4,\"phase\":\"page_in\",\"dur_us\":77}}", u32::MAX)
        );
    }

    #[test]
    fn gauge_encoding_is_stable() {
        let ng = ObsEvent::NodeGauge {
            free_frames: 120,
            dirty_pages: 33,
            disk_backlog_us: 4_500,
            disk_busy_us: 987_654,
            bg_cleaned: 256,
        };
        assert_eq!(
            ng.to_json_line(SimTime::from_us(77), 2),
            "{\"t\":77,\"src\":2,\"ev\":\"node_gauge\",\"free_frames\":120,\"dirty_pages\":33,\"disk_backlog_us\":4500,\"disk_busy_us\":987654,\"bg_cleaned\":256}"
        );
        let pg = ObsEvent::ProcGauge {
            pid: 3,
            resident: 9_000,
            dirty: 41,
        };
        assert_eq!(
            pg.to_json_line(SimTime::ZERO, 0),
            "{\"t\":0,\"src\":0,\"ev\":\"proc_gauge\",\"pid\":3,\"resident\":9000,\"dirty\":41}"
        );
    }

    #[test]
    fn incident_encoding_is_stable() {
        let io = ObsEvent::IoExhausted {
            node: 2,
            attempts: 5,
        };
        assert_eq!(
            io.to_json_line(SimTime::from_us(9), 2),
            "{\"t\":9,\"src\":2,\"ev\":\"io_exhausted\",\"node\":2,\"attempts\":5}"
        );
        let ba = ObsEvent::BarrierExhausted {
            job: 1,
            attempts: 9,
        };
        assert_eq!(
            ba.to_json_line(SimTime::ZERO, SRC_CLUSTER),
            format!(
                "{{\"t\":0,\"src\":{},\"ev\":\"barrier_exhausted\",\"job\":1,\"attempts\":9}}",
                u32::MAX
            )
        );
        let wt = ObsEvent::WatchdogTrip {
            rule: WatchdogRule::JobStall,
            value: 9_000_000,
            limit: 5_000_000,
        };
        assert_eq!(
            wt.to_json_line(SimTime::from_ms(12), SRC_CLUSTER),
            format!(
                "{{\"t\":12000,\"src\":{},\"ev\":\"watchdog_trip\",\"rule\":\"job_stall\",\"value\":9000000,\"limit\":5000000}}",
                u32::MAX
            )
        );
    }

    #[test]
    fn watchdog_rule_names_round_trip() {
        for rule in [
            WatchdogRule::Invariant,
            WatchdogRule::RecoveryExhausted,
            WatchdogRule::JobStall,
            WatchdogRule::QueueDepth,
            WatchdogRule::NoProgress,
        ] {
            assert_eq!(WatchdogRule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(WatchdogRule::from_name("nope"), None);
    }

    #[test]
    fn every_variant_names_itself() {
        let evs = ObsEvent::samples();
        let mut names: Vec<&str> = evs.iter().map(|e| e.name()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "wire names must be unique");
        for ev in &evs {
            let line = ev.to_json_line(SimTime::ZERO, 0);
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains(&format!("\"ev\":\"{}\"", ev.name())));
        }
    }
}
