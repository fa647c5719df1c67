//! The byte-identical-replay regression test for the determinism sweep:
//! after replacing every `HashMap`/`HashSet` in sim-state crates with
//! ordered containers (clippy.toml now bans both), two runs from the same seed
//! must produce byte-identical `--events` JSONL — with the invariant sweep
//! enabled, proving zero conservation/coherence violations along the way.

use adaptive_gang_paging::cluster::{ClusterConfig, ClusterSim, JobSpec, RunResult};
use adaptive_gang_paging::core::PolicyConfig;
use adaptive_gang_paging::faults::fuzz::fnv1a;
use adaptive_gang_paging::faults::FaultPlan;
use adaptive_gang_paging::obs::{shared, JsonlWriter, ObsLink};
use adaptive_gang_paging::sim::SimDur;
use adaptive_gang_paging::workload::{Benchmark, Class, WorkloadSpec};

/// Two CG jobs (seed-sensitive random access component) across two nodes:
/// the configuration most likely to surface iteration-order divergence.
fn cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_defaults(2);
    cfg.mem_mib = 64;
    cfg.wired_mib = 24;
    cfg.quantum = SimDur::from_secs(5);
    cfg.trace_bucket = SimDur::from_secs(1);
    cfg.seed = seed;
    cfg.check_invariants = true;
    cfg.policy = PolicyConfig::full();
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
    cfg
}

/// Run with a JSONL event trace attached, exactly as `agp sim --events
/// --check-invariants` wires it.
fn run_traced(cfg: ClusterConfig) -> (RunResult, Vec<u8>) {
    let sink = shared(JsonlWriter::new(Vec::new()));
    let link = ObsLink::to(sink.clone());
    let mut sim = ClusterSim::new(cfg).expect("valid config");
    sim.attach_observer(&link);
    let r = sim
        .run()
        .expect("run completes with zero invariant violations");
    drop(link);
    let writer = std::sync::Arc::try_unwrap(sink)
        .expect("sim dropped, sink has one owner")
        .into_inner()
        .expect("sink not poisoned");
    (r, writer.finish().expect("in-memory writer"))
}

#[test]
fn same_seed_event_streams_are_byte_identical() {
    let (ra, ta) = run_traced(cfg(0x5EED_600D));
    let (rb, tb) = run_traced(cfg(0x5EED_600D));
    assert!(!ta.is_empty(), "a pressured gang run must emit events");
    assert!(
        ra.invariant_checks > 0 && ra.invariant_checks == rb.invariant_checks,
        "both runs swept invariants identically ({} vs {})",
        ra.invariant_checks,
        rb.invariant_checks
    );
    assert_eq!(ra.makespan, rb.makespan);
    assert_eq!(ta, tb, "identical seeds must replay byte-identically");
}

#[test]
fn chaos_same_seed_event_streams_are_byte_identical() {
    // The fault injector is part of the replay surface: the smoke plan's
    // probabilistic disk errors, barrier drops, node crash, and the
    // recovery machinery (retry/backoff, requeue) must all derive from
    // the seeded streams, so two identical-seed chaos runs replay
    // byte-for-byte — with the invariant sweep enabled throughout.
    let chaos = |seed| {
        let mut c = cfg(seed);
        c.faults = Some(FaultPlan::smoke(seed));
        c
    };
    let (ra, ta) = run_traced(chaos(0x5EED_600D));
    let (rb, tb) = run_traced(chaos(0x5EED_600D));
    assert!(
        ra.invariant_checks > 0 && ra.invariant_checks == rb.invariant_checks,
        "both chaos runs swept invariants identically ({} vs {})",
        ra.invariant_checks,
        rb.invariant_checks
    );
    assert_eq!(ra.makespan, rb.makespan);
    assert_eq!(ta, tb, "identical seeds must replay byte-identically");
    // And the plan actually did something, or the test is vacuous.
    let text = String::from_utf8_lossy(&ta);
    assert!(
        text.contains("\"ev\":\"disk_error\"") || text.contains("\"ev\":\"disk_slowdown\""),
        "the smoke plan must inject observable faults"
    );
}

#[test]
fn different_seeds_give_different_streams() {
    // Guards against the trace accidentally not covering the seeded state:
    // if seed changes don't move the bytes, the identity test above is
    // vacuous.
    let (_, ta) = run_traced(cfg(1));
    let (_, tb) = run_traced(cfg(2));
    assert_ne!(ta, tb, "CG's random component must make traces diverge");
}

/// How many lines of `stream` are events of kind `ev`.
fn count_kind(stream: &[u8], ev: &str) -> usize {
    let needle = format!("\"ev\":\"{ev}\"");
    String::from_utf8_lossy(stream).matches(&needle).count()
}

/// The observed event stream of the CG.A×2 pair, pinned by its FNV-1a
/// digest and byte length under `full` and under `orig`. simbench attaches
/// no observer, so its digest cannot see a reordered `evict`,
/// `readahead_hit` or `replay_page`; this pin can. Each case also counts
/// the kinds it guards, so the pin cannot pass on a stream that lost them.
///
/// An intended model change moves these constants. To refresh them, run
/// this test: its failure message prints each case's counts, digest (in
/// hex) and length. Check with `agp sim --events` that the stream changed
/// as intended before copying them here.
#[test]
fn observed_event_streams_are_pinned() {
    let cases = [
        (
            "full",
            PolicyConfig::full(),
            [("evict", 96_861), ("replay_page", 96_861)],
            "0x95115d019178fb85",
            17_388_937,
        ),
        (
            "orig",
            PolicyConfig::original(),
            [("evict", 70_686), ("readahead_hit", 57_406)],
            "0x370312356d09879f",
            14_604_285,
        ),
    ];
    for (name, policy, kinds, digest, len) in cases {
        let mut c = cfg(0x5EED_600D);
        c.policy = policy;
        let (_, stream) = run_traced(c);
        let counts = kinds.map(|(ev, _)| (ev, count_kind(&stream, ev)));
        assert_eq!(
            (
                counts,
                format!("{:#x}", fnv1a(&stream)).as_str(),
                stream.len()
            ),
            (kinds, digest, len),
            "{name}: event counts, stream digest and length"
        );
    }
}
