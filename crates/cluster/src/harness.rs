//! The fuzzer's double-run verdict harness.
//!
//! [`classify`] runs one configuration **twice**, each run watched by
//! [`FUZZ_WATCHDOG`] and recorded by its own flight ring, and maps the
//! outcome pair onto the closed [`Verdict`](agp_faults::fuzz::Verdict)
//! taxonomy. Two runs because nondeterminism is itself a verdict: the
//! traces, errors, and incident dumps of both runs must agree byte for
//! byte, or the finding is `Nondeterministic` regardless of how either
//! run ended.
//!
//! The rules and the ring are per run, so `classify` may run on any
//! thread alongside other simulations: neither sees the other's.

use crate::config::ClusterConfig;
use crate::error::SimError;
use crate::result::RunResult;
use crate::sim::ClusterSim;
use crate::watchdog::{incident_dump, Watchdog};
use agp_faults::fuzz::Verdict;
use agp_obs::flight::{IncidentDump, RING_EVENTS};
use agp_obs::{
    shared, Collector, JsonlWriter, ObsCounters, ObsLink, RingBuffer, SharedSink, WatchdogRule,
};
use agp_sim::SimDur;

/// The fuzz harness's no-progress (hang) bound, sim-µs. Generous: the
/// worst *legitimate* global stall a generated plan can cause is a full
/// barrier re-issue ladder (≤ 10 re-issues at ≤ 60 s default timeout),
/// so half an hour of zero job progress means wedged, not slow.
pub const FUZZ_NO_PROGRESS_US: u64 = 1_800_000_000;

/// The fuzz harness's event-queue bound (runaway self-scheduling).
pub const FUZZ_QUEUE_LIMIT: u64 = 1_000_000;

/// The fixed rules every fuzzed run is classified under. Part of the
/// reproducibility contract: corpus entries replay against these exact
/// rules, so the knobs are constants, not CLI flags.
pub const FUZZ_WATCHDOG: Watchdog = Watchdog {
    stall_slo: None,
    queue_limit: Some(FUZZ_QUEUE_LIMIT),
    no_progress: Some(SimDur::from_us(FUZZ_NO_PROGRESS_US)),
};

/// Everything the fuzzer needs to triage one classified run.
#[derive(Clone, Debug)]
pub struct VerdictReport {
    /// The closed classification.
    pub verdict: Verdict,
    /// Human detail for failing verdicts (which component diverged, what
    /// the tiling mismatch was, the run error's rendering).
    pub detail: String,
    /// Typed fault counters from the first run.
    pub counters: ObsCounters,
    /// First run's full JSONL event stream.
    pub trace: Vec<u8>,
    /// The run error's rendering, when the run aborted.
    pub error: Option<String>,
    /// The incident dump, when the run aborted.
    pub incident: Option<IncidentDump>,
}

/// The fault/recovery counter-tiling invariant of a *completed* run
/// (audited here and by `agp chaos --verify`):
///
/// * every injected disk error schedules exactly one retry, and
///   exhausted budgets force the attempt through as a success — so
///   `fault_io_retries` must equal the disks' error count (attempts
///   minus successes);
/// * adaptive page-in degrades a node at most once, so
///   `fault_ai_degrades` is bounded by the node count;
/// * a node restarts only after a crash, so restarts never exceed
///   crashes.
pub fn counter_tiling_violation(c: &ObsCounters, r: &RunResult) -> Option<String> {
    let disk_errors: u64 = r.nodes.iter().map(|n| n.disk.errors).sum();
    if c.fault_io_retries != disk_errors {
        return Some(format!(
            "io retries ({}) != disk errors ({disk_errors}): a retry was dropped or double-counted",
            c.fault_io_retries
        ));
    }
    let nodes = r.nodes.len();
    if c.fault_ai_degrades > nodes as u64 {
        return Some(format!(
            "ai degradations ({}) exceed node count ({nodes}): a node degraded twice",
            c.fault_ai_degrades
        ));
    }
    if c.fault_node_restarts > c.fault_node_crashes {
        return Some(format!(
            "node restarts ({}) exceed crashes ({})",
            c.fault_node_restarts, c.fault_node_crashes
        ));
    }
    None
}

struct RunCapture {
    outcome: Result<RunResult, SimError>,
    counters: ObsCounters,
    trace: Vec<u8>,
    incident: Option<IncidentDump>,
}

fn one_run(cfg: &ClusterConfig) -> Result<RunCapture, String> {
    let collector = shared(Collector::new());
    let mem = shared(JsonlWriter::new(Vec::new()));
    let ring = shared(RingBuffer::new(RING_EVENTS));
    let link = ObsLink::fanout(vec![
        collector.clone() as SharedSink,
        mem.clone() as SharedSink,
        ring.clone() as SharedSink,
    ]);
    let built = ClusterSim::new(cfg.clone()).map(|mut sim| {
        sim.attach_observer(&link);
        sim.attach_watchdog(FUZZ_WATCHDOG);
        sim.run()
    });
    drop(link);
    let ring = unwrap_shared(ring)?;
    // A config `ClusterSim::new` rejects never ran, so it has no dump.
    let incident = match &built {
        Ok(Err(e)) => Some(incident_dump(ring, cfg, e)),
        _ => None,
    };
    let outcome = built.and_then(|run| run);
    let counters = unwrap_shared(collector)?.counters;
    let trace = unwrap_shared(mem)?
        .finish()
        .map_err(|e| format!("event capture: {e}"))?;
    Ok(RunCapture {
        outcome,
        counters,
        trace,
        incident,
    })
}

fn unwrap_shared<T>(sink: std::sync::Arc<std::sync::Mutex<T>>) -> Result<T, String> {
    let mutex = std::sync::Arc::try_unwrap(sink)
        .map_err(|_| "observer sink still shared after the run".to_string())?;
    Ok(mutex
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Classify `cfg` under [`FUZZ_WATCHDOG`]: run twice, demand
/// byte-identical behavior, then map the (deterministic) outcome onto
/// the verdict taxonomy. `Err` is harness plumbing only (sink
/// recovery); every simulation outcome, including aborts, is a verdict.
pub fn classify(cfg: &ClusterConfig) -> Result<VerdictReport, String> {
    let a = one_run(cfg)?;
    let b = one_run(cfg)?;
    if let Some(diverged) = divergence(&a, &b) {
        return Ok(VerdictReport {
            verdict: Verdict::Nondeterministic,
            detail: format!("same-seed double run diverged: {diverged}"),
            counters: a.counters,
            trace: a.trace,
            error: a.outcome.err().map(|e| e.to_string()),
            incident: a.incident,
        });
    }
    let (verdict, detail) = match &a.outcome {
        Err(e @ SimError::WatchdogTrip { rule, .. }) if *rule == WatchdogRule::NoProgress => {
            (Verdict::Hang, e.to_string())
        }
        Err(e @ SimError::WatchdogTrip { .. }) => (Verdict::WatchdogTrip, e.to_string()),
        Err(e @ SimError::InvariantViolation { .. }) => {
            (Verdict::InvariantViolation, e.to_string())
        }
        Err(e) => (Verdict::TypedError, e.to_string()),
        Ok(r) => match counter_tiling_violation(&a.counters, r) {
            Some(violation) => (
                Verdict::InvariantViolation,
                format!("counter tiling: {violation}"),
            ),
            None if faults_fired(&a.counters, r) => (Verdict::Recovered, String::new()),
            None => (Verdict::Clean, String::new()),
        },
    };
    let error = a.outcome.err().map(|e| e.to_string());
    Ok(VerdictReport {
        verdict,
        detail,
        counters: a.counters,
        trace: a.trace,
        error,
        incident: a.incident,
    })
}

fn faults_fired(c: &ObsCounters, r: &RunResult) -> bool {
    let disk: u64 = r
        .nodes
        .iter()
        .map(|n| n.disk.errors + n.disk.slow_penalty.as_us())
        .sum();
    disk + c.fault_io_retries
        + c.fault_node_crashes
        + c.fault_node_restarts
        + c.fault_jobs_requeued
        + c.fault_barrier_timeouts
        + c.fault_mem_pressure_pages
        + c.fault_ai_degrades
        > 0
}

fn divergence(a: &RunCapture, b: &RunCapture) -> Option<&'static str> {
    // The collector's counters are a function of the delivered events,
    // so equal traces imply equal counters.
    if a.trace != b.trace {
        return Some("event traces");
    }
    let err_of = |r: &RunCapture| r.outcome.as_ref().err().map(|e| e.to_string());
    if err_of(a) != err_of(b) {
        return Some("run errors");
    }
    let dump_of = |r: &RunCapture| r.incident.as_ref().map(|d| d.to_json_string());
    if dump_of(a) != dump_of(b) {
        return Some("incident dumps");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JobSpec;
    use crate::ScheduleMode;
    use agp_core::PolicyConfig;
    use agp_faults::{FaultPlan, FaultSpec, RecoveryPolicy};
    use agp_sim::SimDur;
    use agp_workload::{Benchmark, Class, WorkloadSpec};

    fn cfg_with(plan: FaultPlan) -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_defaults(2);
        cfg.mem_mib = 64;
        cfg.wired_mib = 24;
        cfg.quantum = SimDur::from_secs(5);
        cfg.policy = PolicyConfig::full();
        cfg.mode = ScheduleMode::Gang;
        cfg.jobs = vec![
            JobSpec::new(
                "CG.A x2 #1",
                WorkloadSpec::parallel(Benchmark::CG, Class::A, 2),
            ),
            JobSpec::new(
                "CG.A x2 #2",
                WorkloadSpec::parallel(Benchmark::CG, Class::A, 2),
            ),
        ];
        cfg.faults = Some(plan);
        cfg
    }

    #[test]
    fn faultless_run_is_clean_and_leaves_no_incident() {
        let report = classify(&cfg_with(FaultPlan::empty(3))).unwrap();
        assert_eq!(report.verdict, Verdict::Clean);
        assert!(report.error.is_none());
        assert!(report.incident.is_none());
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn surviving_faults_classify_as_recovered_with_tiling_counters() {
        let cfg = cfg_with(FaultPlan::smoke(3));
        let report = classify(&cfg).unwrap();
        // Recovered means the faults fired and the counters tiled.
        assert_eq!(report.verdict, Verdict::Recovered, "{}", report.detail);
        let r = crate::run(cfg).unwrap();
        assert!(faults_fired(&report.counters, &r));
        assert_eq!(
            counter_tiling_violation(&report.counters, &r),
            None,
            "smoke recovery must tile"
        );
    }

    #[test]
    fn exhausted_recovery_classifies_as_watchdog_trip_with_incident() {
        let report = classify(&cfg_with(FaultPlan::trip(3))).unwrap();
        assert_eq!(report.verdict, Verdict::WatchdogTrip);
        let incident = report.incident.expect("trip freezes the ring");
        assert!(incident.to_json_string().contains("recovery_exhausted"));
    }

    #[test]
    fn a_total_barrier_blackout_classifies_as_hang() {
        // Job 0's releases always drop and the re-issue timeout is pushed
        // past the no-progress bound: once job 1 finishes, nothing in the
        // cluster makes progress until the watchdog calls it a hang.
        let mut plan = FaultPlan::empty(3);
        plan.faults = vec![FaultSpec::BarrierDrops {
            job: 0,
            p: 1.0,
            from_us: 0,
            until_us: u64::MAX,
        }];
        plan.recovery = RecoveryPolicy {
            barrier_timeout_us: 3_600_000_000,
            ..RecoveryPolicy::default()
        };
        let report = classify(&cfg_with(plan)).unwrap();
        assert_eq!(report.verdict, Verdict::Hang, "{}", report.detail);
        let incident = report.incident.expect("hang freezes the ring");
        assert!(incident.to_json_string().contains("no_progress"));
    }

    #[test]
    fn tiling_violations_are_detected() {
        // Two nodes whose disks failed 3 requests between them.
        let node = |errors| crate::NodeReport {
            disk: agp_disk::DiskStats {
                errors,
                ..Default::default()
            },
            engine: Default::default(),
            bg_cleaned_pages: 0,
            trace: agp_metrics::ActivityTrace::new(SimDur::from_secs(1)),
        };
        let r = RunResult {
            policy: PolicyConfig::full(),
            mode: ScheduleMode::Gang,
            seed: 0,
            jobs: Vec::new(),
            makespan: SimDur::ZERO,
            nodes: vec![node(1), node(2)],
            switches: 0,
            events: 0,
            invariant_checks: 0,
        };
        let mut c = ObsCounters {
            fault_io_retries: 2,
            ..ObsCounters::default()
        };
        assert!(counter_tiling_violation(&c, &r)
            .expect("mismatch detected")
            .contains("retries"));
        c.fault_io_retries = 3;
        assert_eq!(counter_tiling_violation(&c, &r), None);
        c.fault_ai_degrades = 3;
        assert!(counter_tiling_violation(&c, &r).is_some());
    }
}
