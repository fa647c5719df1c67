//! Runs in one process cannot see each other's watchdog or flight ring.
//!
//! The registry fans runs out over worker threads, so a run's rules and
//! black box must belong to that run alone. One thread classifies the
//! recovery-exhaustion trip plan (each of its two runs watched, with its
//! own ring) while another runs the same configuration unwatched, over
//! and over, until the classification returns. The watched runs must
//! trip with an incident; every unwatched run must force its exhausted
//! retries through and finish.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use agp_cluster::{classify, ClusterConfig, JobSpec, ScheduleMode};
use agp_core::PolicyConfig;
use agp_faults::fuzz::Verdict;
use agp_faults::FaultPlan;
use agp_sim::SimDur;
use agp_workload::{Benchmark, Class, WorkloadSpec};

fn trip_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_defaults(2);
    cfg.mem_mib = 64;
    cfg.wired_mib = 24;
    cfg.quantum = SimDur::from_secs(5);
    cfg.policy = PolicyConfig::full();
    cfg.mode = ScheduleMode::Gang;
    let cg = WorkloadSpec::parallel(Benchmark::CG, Class::A, 2);
    cfg.jobs = vec![
        JobSpec::new("CG.A x2 #1", cg),
        JobSpec::new("CG.A x2 #2", cg),
    ];
    cfg.faults = Some(FaultPlan::trip(3));
    cfg
}

#[test]
fn concurrent_runs_keep_their_own_watchdog_and_ring() {
    let start = Barrier::new(2);
    let classified = AtomicBool::new(false);
    let (report, unwatched) = std::thread::scope(|s| {
        let watched = s.spawn(|| {
            start.wait();
            let report = classify(&trip_cfg());
            classified.store(true, Ordering::Release);
            report
        });
        let plain = s.spawn(|| {
            start.wait();
            let mut outcomes = Vec::new();
            loop {
                outcomes.push(agp_cluster::run(trip_cfg()).map(|_| ()));
                if classified.load(Ordering::Acquire) {
                    break outcomes;
                }
            }
        });
        (
            watched.join().expect("the watched thread finishes"),
            plain.join().expect("the unwatched thread finishes"),
        )
    });
    let report = report.expect("harness plumbing works");
    assert_eq!(report.verdict, Verdict::WatchdogTrip, "{}", report.detail);
    let incident = report.incident.expect("the trip leaves an incident");
    assert!(incident.to_json_string().contains("recovery_exhausted"));
    for (i, outcome) in unwatched.iter().enumerate() {
        assert!(
            outcome.is_ok(),
            "unwatched run {i} of {} saw another run's watchdog: {outcome:?}",
            unwatched.len()
        );
    }
}
