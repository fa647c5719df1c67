//! Emission coverage of the event protocol: every `ObsEvent` variant must
//! be emitted by some simulation. The explain side's `ObsEvent` matches
//! are exhaustive, with clippy's wildcard lints denied on them, so a new
//! variant cannot go unhandled; this test adds the other half, that no
//! variant is declared and handled but never produced.
//!
//! The runs below together emit all of them.

use std::collections::BTreeSet;

use adaptive_gang_paging::cluster::{incident_dump, ClusterConfig, ClusterSim, Watchdog};
use adaptive_gang_paging::experiments::chaos_demo;
use adaptive_gang_paging::faults::FaultPlan;
use adaptive_gang_paging::obs::flight::RING_EVENTS;
use adaptive_gang_paging::obs::{shared, ObsEvent, ObsLink, Observer, RingBuffer, SharedSink};
use adaptive_gang_paging::sim::{SimDur, SimTime};

const SEED: u64 = 0x5EED_600D;

#[derive(Default)]
struct Names(BTreeSet<&'static str>);

impl Observer for Names {
    fn on_event(&mut self, _at: SimTime, _src: u32, ev: &ObsEvent) {
        self.0.insert(ev.name());
    }
}

/// The chaos demo configuration (`agp chaos`) under `plan`.
fn chaos(plan: &str) -> ClusterConfig {
    let mut cfg = chaos_demo(SEED);
    cfg.faults = Some(FaultPlan::from_json_str(plan).expect("valid plan"));
    cfg
}

/// Names of the events `cfg` delivers to observers and, when `watched`
/// (a flight ring and a watchdog attached), of those in the run's
/// incident dump (where the watchdog appends its trip marker).
fn emitted(cfg: ClusterConfig, watched: bool) -> BTreeSet<&'static str> {
    let names = shared(Names::default());
    let ring = shared(RingBuffer::new(RING_EVENTS));
    let mut sinks: Vec<SharedSink> = vec![names.clone()];
    if watched {
        sinks.push(ring.clone());
    }
    let link = ObsLink::fanout(sinks);
    let mut sim = ClusterSim::new(cfg.clone()).expect("valid config");
    sim.attach_observer(&link);
    if watched {
        sim.attach_watchdog(Watchdog::default());
    }
    // The watched runs abort on recovery exhaustion by design.
    let outcome = sim.run();
    drop(link);
    let mut out = names.lock().expect("observer not poisoned").0.clone();
    if watched {
        let err = outcome.expect_err("the watched run must abort");
        let ring = ring.lock().expect("ring not poisoned").clone();
        let dump = incident_dump(ring, &cfg, &err);
        out.extend(dump.events.iter().map(|t| t.event.name()));
    } else {
        outcome.expect("the run completes");
    }
    out
}

#[test]
fn every_event_variant_is_emitted() {
    let smoke = emitted(chaos(include_str!("../plans/smoke.json")), false);

    let trip = emitted(chaos(include_str!("../plans/trip.json")), true);
    for name in ["io_exhausted", "watchdog_trip"] {
        assert!(trip.contains(name), "plans/trip.json must emit {name}");
    }

    // Every barrier of job 0 is dropped, and one 30 s retry is all the
    // recovery budget allows.
    let blackout = emitted(
        chaos(
            r#"{"schema_version": 1, "seed": 1,
                "faults": [{"kind": "barrier_drops", "job": 0, "p": 1, "from_us": 0}],
                "recovery": {"io_retries": 4, "io_backoff_us": 2000,
                             "io_backoff_cap_us": 64000, "ai_degrade_after": 3,
                             "barrier_timeout_us": 30000000, "barrier_retries": 1}}"#,
        ),
        true,
    );
    assert!(
        blackout.contains("barrier_exhausted"),
        "the barrier blackout must emit barrier_exhausted"
    );

    let mut sampled = chaos_demo(SEED);
    sampled.sample_every = Some(SimDur::from_secs(5));
    let sampled = emitted(sampled, false);

    let all: BTreeSet<&str> = [smoke, trip, blackout, sampled]
        .into_iter()
        .flatten()
        .collect();
    let declared: BTreeSet<&str> = ObsEvent::samples().iter().map(ObsEvent::name).collect();
    assert_eq!(
        all,
        declared,
        "declared but never emitted: {:?}",
        declared.difference(&all).collect::<Vec<_>>()
    );
}
