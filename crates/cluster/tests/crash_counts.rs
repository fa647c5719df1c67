//! Counts survive a node crash in the gauges. A crash replaces the
//! node's paging engine; the engine it discards keeps its counts in the
//! run, so the crashed node's background-writer gauge must keep counting
//! instead of restarting from the fresh engine, and never run ahead of
//! the `RunResult`. The `RunResult` side of the carry is pinned by the
//! `event_stream_tallies_match_the_run_result` property.
//!
//! The run uses the 2-node CG.A ×2 geometry under `plans/smoke.json`,
//! which crashes node 1 at 120 s of sim time and restarts it 45 s later.

use agp_cluster::{ClusterConfig, ClusterSim, JobSpec, ScheduleMode};
use agp_core::PolicyConfig;
use agp_faults::FaultPlan;
use agp_obs::{shared, ObsEvent, ObsLink, Observer};
use agp_sim::{SimDur, SimTime};
use agp_workload::{Benchmark, Class, WorkloadSpec};

fn smoke_cfg() -> ClusterConfig {
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
    let plan = include_str!("../../../plans/smoke.json");
    cfg.faults = Some(FaultPlan::from_json_str(plan).expect("the committed smoke plan parses"));
    cfg
}

/// Node 1's background-writer gauge, in emission order.
#[derive(Default)]
struct Node1Cleaned(Vec<(SimTime, u64)>);

impl Observer for Node1Cleaned {
    fn on_event(&mut self, at: SimTime, src: u32, ev: &ObsEvent) {
        if let (1, ObsEvent::NodeGauge { bg_cleaned, .. }) = (src, ev) {
            self.0.push((at, *bg_cleaned));
        }
    }
}

#[test]
fn node_gauge_bg_cleaned_stays_monotonic_across_the_crash() {
    let mut cfg = smoke_cfg();
    cfg.sample_every = Some(SimDur::from_secs(5));
    let gauges = shared(Node1Cleaned::default());
    let link = ObsLink::to(gauges.clone());
    let mut sim = ClusterSim::new(cfg).expect("valid config");
    sim.attach_observer(&link);
    let r = sim.run().expect("the smoke plan recovers");
    let seen = &gauges.lock().expect("observer not poisoned").0;
    let crash = SimTime::from_secs(120);
    assert!(
        seen.iter().any(|&(at, n)| at < crash && n > 0),
        "node 1 must clean pages before its crash"
    );
    for pair in seen.windows(2) {
        let ((t0, a), (t1, b)) = (pair[0], pair[1]);
        assert!(b >= a, "bg_cleaned fell from {a} at {t0} to {b} at {t1}");
    }
    let last = seen.last().map_or(0, |&(_, n)| n);
    assert!(
        last <= r.nodes[1].bg_cleaned_pages,
        "a gauge never runs ahead of the run's total"
    );
}
