//! Acceptance tests for fault attribution: under an injected-fault plan
//! `agp explain` must attribute switch latency to the fault taxonomy,
//! keep the per-switch tiling exact, and stay byte-deterministic.

use agp_cluster::{run_observed, ClusterConfig};
use agp_core::PolicyConfig;
use agp_experiments::{explain_pair, Scale};
use agp_explain::{explain_run, Analyzer, Cause};
use agp_faults::{FaultPlan, FaultSpec};
use agp_obs::{shared, Collector, ObsLink};

/// The quick fig9 scenario under the full policy with a deterministic
/// burst of disk errors spanning the first gang switches (quantum is
/// 10 s at quick scale, so a 30 s window catches real switch-edge I/O).
fn chaos_cfg() -> ClusterConfig {
    let (mut cfg, _) = explain_pair(Scale::Quick);
    cfg.policy = PolicyConfig::full();
    let mut plan = FaultPlan::empty(cfg.seed);
    plan.faults.push(FaultSpec::DiskErrors {
        node: 0,
        p: 1.0,
        from_us: 0,
        until_us: 30_000_000,
    });
    cfg.faults = Some(plan);
    cfg
}

#[test]
fn explain_attributes_switch_latency_to_fault_causes() {
    let (_, report) = explain_run(&chaos_cfg(), "fig9", "quick").expect("chaos explain run");
    assert!(
        report.causes.get(Cause::FaultIoError) > 0,
        "injected disk errors at the switch edge must surface in the fault taxonomy"
    );
    let faulted = report
        .switch_detail
        .iter()
        .filter(|sw| sw.causes.get(Cause::FaultIoError) > 0)
        .count();
    assert!(
        faulted >= 1,
        "at least one switch's latency is attributed to an injected fault"
    );
    // The fault causes join the JSON schema only because they are live.
    let text = report.to_json_string();
    assert!(text.contains("\"fault_io_error\""));
    assert!(
        !text.contains("\"fault_disk_slow\""),
        "the plan injects no latency spikes, so that cause stays hidden"
    );
}

#[test]
fn fault_attribution_keeps_the_per_switch_tiling_exact() {
    let collector = shared(Collector::new());
    let analyzer = shared(Analyzer::new());
    let link = ObsLink::fanout(vec![collector.clone(), analyzer.clone()]);
    let r = run_observed(chaos_cfg(), &link).expect("observed chaos run");
    drop(link);
    let collector = collector.lock().expect("collector sink").clone();
    let switches = analyzer.lock().expect("analyzer sink").switches().to_vec();
    let records = collector.switch_records();
    assert_eq!(records.len(), switches.len());
    assert!(
        r.nodes.iter().map(|n| n.disk.errors).sum::<u64>() > 0,
        "the plan must actually fire"
    );
    for (rec, exp) in records.iter().zip(&switches) {
        assert_eq!(
            exp.causes.total_us(),
            rec.total_us,
            "cause buckets of switch #{} must still sum to its profiled latency",
            rec.switch
        );
    }
}

#[test]
fn chaos_explain_json_is_deterministic() {
    let build = || {
        let (_, report) = explain_run(&chaos_cfg(), "fig9", "quick").expect("chaos explain run");
        report.to_json_string()
    };
    let a = build();
    assert_eq!(
        a,
        build(),
        "same plan + seed must render byte-identical explains"
    );
}
