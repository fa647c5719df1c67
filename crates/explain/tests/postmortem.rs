//! End-to-end incident pipeline tests: the committed trip plan, run
//! with a flight ring and a watchdog, exhausts I/O recovery, and the
//! watchdog trip yields a byte-deterministic dump whose `agp postmortem`
//! report is pinned golden.
//!
//! To re-bless after an intentional schema or triage change:
//!
//! ```text
//! AGP_BLESS=1 cargo test -p agp-explain --test postmortem
//! ```

use agp_cluster::{incident_dump, ClusterConfig, ClusterSim, Watchdog};
use agp_experiments::chaos_demo;
use agp_explain::{triage_class, PostmortemReport, TRIAGE_CLASSES};
use agp_faults::FaultPlan;
use agp_obs::flight::{IncidentDump, IncidentTrigger, RING_EVENTS};
use agp_obs::{shared, ObsEvent, ObsLink, RingBuffer, WatchdogRule};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/postmortem.quick.json"
);

/// The chaos-demo cluster under the committed recovery-exhaustion trip
/// plan — exactly what `agp chaos --plan plans/trip.json
/// --flight-recorder` simulates.
fn trip_cfg() -> ClusterConfig {
    let seed = 0x5EED_600D;
    let mut cfg = chaos_demo(seed);
    cfg.faults = Some(FaultPlan::trip(seed));
    cfg
}

/// Run the trip scenario with its own flight ring and a rule-less
/// watchdog (what `--flight-recorder` attaches) to its abort, and hand
/// back the incident dump.
fn capture_incident() -> IncidentDump {
    let cfg = trip_cfg();
    let ring = shared(RingBuffer::new(RING_EVENTS));
    let link = ObsLink::to(ring.clone());
    let mut sim = ClusterSim::new(cfg.clone()).expect("the trip config is valid");
    sim.attach_observer(&link);
    sim.attach_watchdog(Watchdog::default());
    let err = sim.run().expect_err("the trip plan must abort the run");
    assert!(
        err.to_string().contains("recovery_exhausted"),
        "unexpected abort: {err}"
    );
    let ring = ring.lock().expect("ring not poisoned").clone();
    incident_dump(ring, &cfg, &err)
}

#[test]
fn trip_plan_freezes_a_watchdog_incident() {
    let dump = capture_incident();
    match &dump.trigger {
        IncidentTrigger::Watchdog {
            rule, value, limit, ..
        } => {
            assert_eq!(*rule, WatchdogRule::RecoveryExhausted);
            assert!(value >= limit, "trip fires once the budget is consumed");
        }
        other => panic!("expected a watchdog trigger, got {other:?}"),
    }
    assert_eq!(dump.meta.seed, 0x5EED_600D);
    assert_eq!(dump.meta.jobs.len(), 2, "chaos demo runs two CG.A jobs");
    // The dump appends the trip marker as the final ring event.
    assert!(matches!(
        dump.events.last().map(|te| &te.event),
        Some(ObsEvent::WatchdogTrip { .. })
    ));
    assert!(
        dump.events_seen == dump.events_dropped + dump.events.len() as u64,
        "seen/dropped accounting must tile the stream"
    );
}

#[test]
fn same_seed_incident_dumps_are_byte_identical() {
    let a = capture_incident();
    let b = capture_incident();
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "same plan + seed must freeze byte-identical incident dumps"
    );
    // And the dump itself round-trips through its JSON encoding.
    let reloaded = agp_explain::load_dump(&a.to_json_string()).expect("dump reloads");
    assert_eq!(reloaded, a);
}

#[test]
fn postmortem_report_matches_the_committed_golden() {
    let dump = capture_incident();
    let report = PostmortemReport::from_dump_str(&dump.to_json_string())
        .expect("postmortem builds from the dump");
    let got = report.to_json_string();
    if std::env::var_os("AGP_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = include_str!("goldens/postmortem.quick.json");
    assert_eq!(
        got, want,
        "postmortem JSON drifted from tests/goldens/postmortem.quick.json; \
         re-bless with AGP_BLESS=1 if the change is intentional"
    );
}

#[test]
fn triage_counts_tile_the_retained_window() {
    let dump = capture_incident();
    let report = PostmortemReport::build(&dump);
    assert_eq!(report.events_retained, dump.events.len() as u64);
    // The triage vector covers the taxonomy in order, and its counts sum
    // to exactly the retained window — every event lands in one class.
    let classes: Vec<&str> = report.triage.iter().map(|(c, _)| *c).collect();
    assert_eq!(classes, TRIAGE_CLASSES.to_vec());
    let total: u64 = report.triage.iter().map(|(_, n)| n).sum();
    assert_eq!(total, report.events_retained);
    // Cross-check against classifying the raw window directly.
    for (class, n) in &report.triage {
        let direct = dump
            .events
            .iter()
            .filter(|te| triage_class(&te.event) == *class)
            .count() as u64;
        assert_eq!(direct, *n, "triage count for {class} must match the window");
    }
    // The incident class is live: the trip marker is in the window.
    let incident = report
        .triage
        .iter()
        .find(|(c, _)| *c == "incident")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert!(incident >= 1, "the watchdog trip marker must be triaged");
}
