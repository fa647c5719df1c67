//! Property tests for the flight recorder: ring wraparound keeps exactly
//! the newest window, event lines invert through `parse_event_line`, and
//! identical event sequences freeze byte-identical incident dumps.

use agp_obs::flight::{self, IncidentDump, IncidentTrigger, RunMeta};
use agp_obs::{ObsEvent, Observer, RingBuffer, WatchdogRule};
use agp_sim::prop::{self, CASES};
use agp_sim::{SimRng, SimTime};

/// A slice of the event taxonomy with fully arbitrary field values,
/// including the incident variants the watchdog layer added.
fn any_event(rng: &mut SimRng) -> ObsEvent {
    let u32_of = |r: &mut SimRng| r.next_u64_raw() as u32;
    match rng.below(7) {
        0 => ObsEvent::PageFault {
            pid: u32_of(rng),
            page: u32_of(rng),
            major: rng.chance(0.5),
        },
        1 => ObsEvent::ReadaheadHit {
            pid: u32_of(rng),
            page: u32_of(rng),
        },
        2 => ObsEvent::Reclaim {
            target: rng.next_u64_raw(),
            freed: rng.next_u64_raw(),
            write_pages: rng.next_u64_raw(),
        },
        3 => ObsEvent::DiskRequest {
            write: rng.chance(0.5),
            extents: u32_of(rng),
            pages: rng.next_u64_raw(),
            wait_us: rng.next_u64_raw(),
            seek_us: rng.next_u64_raw(),
            service_us: rng.next_u64_raw(),
        },
        4 => ObsEvent::BarrierWait {
            ranks: u32_of(rng),
            skew_us: rng.next_u64_raw(),
            lag_us: rng.next_u64_raw(),
        },
        5 => ObsEvent::IoExhausted {
            node: u32_of(rng),
            attempts: u32_of(rng),
        },
        _ => ObsEvent::BarrierExhausted {
            job: u32_of(rng),
            attempts: u32_of(rng),
        },
    }
}

/// Wraparound law: after `n` events and a watchdog freeze (which
/// appends the trip marker), the dump retains exactly the newest
/// `min(cap, n + 1)` events in order, and the seen/dropped accounting
/// tiles the stream.
#[test]
fn ring_retains_exactly_the_newest_window() {
    prop::check("ring_retains_exactly_the_newest_window", CASES, |rng| {
        let cap = rng.range(1, 64) as usize;
        let evs = prop::vec(rng, 0..200, any_event);
        let (value, limit) = (rng.next_u64_raw(), rng.next_u64_raw());
        let mut ring = RingBuffer::new(cap);
        for (i, ev) in evs.iter().enumerate() {
            ring.on_event(SimTime::from_us(i as u64), 0, ev);
        }
        let trigger = IncidentTrigger::Watchdog {
            rule: WatchdogRule::QueueDepth,
            value,
            limit,
            detail: String::new(),
        };
        let dump = IncidentDump::new(ring, trigger, evs.len() as u64, RunMeta::default());

        let n = evs.len() as u64 + 1; // + the appended trip marker
        assert_eq!(dump.events_seen, n);
        assert_eq!(dump.events.len(), (n as usize).min(cap));
        assert_eq!(dump.events_dropped, n - dump.events.len() as u64);
        let mut stream = evs.clone();
        stream.push(ObsEvent::WatchdogTrip {
            rule: WatchdogRule::QueueDepth,
            value,
            limit,
        });
        let tail = &stream[stream.len() - dump.events.len()..];
        for (got, want) in dump.events.iter().zip(tail) {
            assert_eq!(&got.event, want);
        }
    });
}

/// `parse_event_line` inverts `to_json_line` for arbitrary field
/// values, not just the one-of-each samples the unit tests pin.
#[test]
fn event_lines_round_trip() {
    prop::check("event_lines_round_trip", CASES, |rng| {
        let ev = any_event(rng);
        let (t, src) = (rng.next_u64_raw(), rng.next_u64_raw() as u32);
        let line = ev.to_json_line(SimTime::from_us(t), src);
        let back = flight::parse_event_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back.event, ev);
        assert_eq!(back.at, SimTime::from_us(t));
        assert_eq!(back.src, src);
    });
}

/// Determinism: the identical event sequence through a fresh ring
/// freezes a byte-identical dump, and every retained event line reloads
/// to the recorded `TracedEvent`.
#[test]
fn identical_sequences_freeze_byte_identical_dumps() {
    prop::check(
        "identical_sequences_freeze_byte_identical_dumps",
        CASES,
        |rng| {
            let cap = rng.range(1, 32) as usize;
            let evs = prop::vec(rng, 0..120, any_event);
            let run = || {
                let mut ring = RingBuffer::new(cap);
                for (i, ev) in evs.iter().enumerate() {
                    ring.on_event(SimTime::from_us(i as u64), 1, ev);
                }
                let meta = RunMeta {
                    scenario: "prop".to_string(),
                    seed: 9,
                    config_fp: 0xfeed_f00d,
                    jobs: vec!["j0".to_string()],
                    pid_job: vec![(0, 0)],
                };
                let trigger = IncidentTrigger::Error {
                    what: "boom".to_string(),
                };
                IncidentDump::new(ring, trigger, evs.len() as u64, meta)
            };
            let a = run();
            let b = run();
            assert_eq!(a.clone(), b.clone(), "dumps must compare equal");
            assert_eq!(
                a.to_json_string(),
                b.to_json_string(),
                "dump encodings must be byte-identical"
            );
            for te in &a.events {
                let line = te.event.to_json_line(te.at, te.src);
                let back =
                    flight::parse_event_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(&back, te);
            }
        },
    );
}
