//! Property tests over the fault-injection surface: any in-range seeded
//! fault plan either completes the run or surfaces a typed [`SimError`] —
//! never a panic, never a hang — and equal (seed, plan) pairs replay to
//! identical results.

use agp_cluster::{ClusterConfig, ClusterSim, JobSpec, ScheduleMode, SimError};
use agp_core::policy::BaselineKind;
use agp_core::PolicyConfig;
use agp_faults::{FaultPlan, FaultSpec};
use agp_obs::{shared, ObsEvent, ObsLink, Observer};
use agp_sim::prop;
use agp_sim::{SimDur, SimRng, SimTime};
use agp_workload::{Benchmark, Class, WorkloadSpec};

const NODES: u32 = 2;
const JOBS: usize = 2;

/// The sim unit tests' two-node pressured geometry: two 2-rank CG.A
/// instances, 64 MiB nodes wired to 24 MiB, 5 s quanta. Small enough that
/// a property case runs in tens of milliseconds.
fn chaos_cfg(seed: u64, plan: FaultPlan) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_defaults(NODES);
    cfg.mem_mib = 64;
    cfg.wired_mib = 24;
    cfg.quantum = SimDur::from_secs(5);
    cfg.trace_bucket = SimDur::from_secs(1);
    cfg.policy = PolicyConfig::full();
    cfg.mode = ScheduleMode::Gang;
    cfg.seed = seed;
    cfg.jobs = (0..JOBS)
        .map(|i| {
            JobSpec::new(
                format!("CG.A x2 #{}", i + 1),
                WorkloadSpec::parallel(Benchmark::CG, Class::A, NODES),
            )
        })
        .collect();
    cfg.check_invariants = true;
    cfg.faults = Some(plan);
    cfg
}

/// One non-crash fault spec with parameters inside the validated ranges.
/// Fault windows stay within the first two minutes of sim time — past any
/// makespan this geometry produces, so out-of-window specs are also
/// exercised (they must be inert, not fatal). `validate` rejects an empty
/// window, so an inverted draw is swapped; both ends keep their ranges.
fn non_crash_spec(rng: &mut SimRng) -> FaultSpec {
    let window = |r: &mut SimRng| {
        let (from_us, until_us) = (r.below(60_000_000), r.range(1_000_000, 120_000_000));
        if from_us < until_us {
            (from_us, until_us)
        } else {
            (until_us, from_us + 1)
        }
    };
    match rng.below(4) {
        0 => {
            let (node, p, (from_us, until_us)) =
                (rng.below(NODES as u64), rng.unit_f64(), window(rng));
            FaultSpec::DiskErrors {
                node: node as u32,
                p,
                from_us,
                until_us,
            }
        }
        1 => {
            let (node, penalty_us) = (rng.below(NODES as u64), rng.range(1, 50_000));
            let (p, (from_us, until_us)) = (rng.unit_f64(), window(rng));
            FaultSpec::DiskSlow {
                node: node as u32,
                penalty_us,
                p,
                from_us,
                until_us,
            }
        }
        2 => {
            let (job, p) = (rng.below(JOBS as u64), 0.5 * rng.unit_f64());
            let (from_us, until_us) = window(rng);
            FaultSpec::BarrierDrops {
                job: job as u32,
                p,
                from_us,
                until_us,
            }
        }
        _ => FaultSpec::MemPressure {
            node: rng.below(NODES as u64) as u32,
            at_us: rng.below(60_000_000),
            pages: rng.range(1, 2048),
        },
    }
}

/// A whole plan: up to three non-crash specs plus at most one node crash
/// (two overlapping crashes would leave zero schedulable nodes, which the
/// gang scheduler treats as a stall rather than a fault scenario).
fn plan(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::empty(rng.next_u64_raw());
    plan.faults = prop::vec(rng, 0..3, non_crash_spec);
    if rng.chance(0.5) {
        plan.faults.push(FaultSpec::NodeCrash {
            node: rng.below(NODES as u64) as u32,
            at_us: rng.range(1, 90_000_000),
            down_us: rng.range(1, 30_000_000),
        });
    }
    plan.recovery.io_retries = rng.range(1, 6) as u32;
    plan.recovery.ai_degrade_after = rng.range(1, 5) as u32;
    plan
}

/// Liveness under arbitrary in-range plans: the run either completes
/// (every job done, nonzero makespan) or returns a typed error. A
/// panic or a hang fails the test; there is no third outcome.
#[test]
fn any_seeded_plan_completes_or_errors() {
    prop::check("any_seeded_plan_completes_or_errors", 12, |rng| {
        let (seed, plan) = (rng.next_u64_raw(), plan(rng));
        assert!(plan.validate(NODES as usize, JOBS).is_ok());
        let cfg = chaos_cfg(seed, plan);
        assert!(cfg.validate().is_ok());
        match ClusterSim::new(cfg).and_then(|sim| sim.run()) {
            Ok(r) => {
                assert_eq!(r.jobs.len(), JOBS);
                assert!(r.makespan.as_us() > 0);
            }
            Err(e) => {
                // Typed, printable, and stable enough to match on.
                let _: &SimError = &e;
                assert!(!e.to_string().is_empty());
            }
        }
    });
}

/// Determinism under faults: the same (seed, plan) pair replays to an
/// identical result — makespan, event log, and paging totals.
#[test]
fn same_seed_and_plan_replay_identically() {
    prop::check("same_seed_and_plan_replay_identically", 6, |rng| {
        let (seed, plan) = (rng.next_u64_raw(), plan(rng));
        let run = || ClusterSim::new(chaos_cfg(seed, plan.clone())).and_then(|s| s.run());
        match (run(), run()) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.makespan, b.makespan);
                assert_eq!(a.events, b.events);
                assert_eq!(a.total_pages_in(), b.total_pages_in());
                assert_eq!(a.total_pages_out(), b.total_pages_out());
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!(
                "diverged: {:?} vs {:?}",
                a.map(|r| r.makespan),
                b.map(|r| r.makespan)
            ),
        }
    });
}

/// Paging and disk counts tallied from the event stream alone, to check
/// against the counts the run itself reports.
#[derive(Default)]
struct Tally {
    major: u64,
    serviced: u64,
    minor: u64,
    readahead: u64,
    evicted: u64,
    false_evicted: u64,
    recorded: u64,
    reclaims: u64,
    reclaim_freed: u64,
    aggressive: u64,
    replayed: u64,
    skipped: u64,
    bg_pages: u64,
    reads: u64,
    writes: u64,
    pages_read: u64,
    pages_written: u64,
    disk_errors: u64,
    slow_us: u64,
}

impl Observer for Tally {
    fn on_event(&mut self, _at: SimTime, _src: u32, ev: &ObsEvent) {
        match *ev {
            ObsEvent::PageFault { major: true, .. } => self.major += 1,
            ObsEvent::PageFault { major: false, .. } => self.minor += 1,
            ObsEvent::MajorFault { readahead, .. } => {
                self.serviced += 1;
                self.readahead += u64::from(readahead);
            }
            ObsEvent::Evict {
                false_eviction,
                recorded,
                ..
            } => {
                self.evicted += 1;
                self.false_evicted += u64::from(false_eviction);
                self.recorded += u64::from(recorded);
            }
            ObsEvent::Reclaim { freed, .. } => {
                self.reclaims += 1;
                self.reclaim_freed += freed;
            }
            ObsEvent::AggressiveOut { pages, .. } => self.aggressive += pages,
            ObsEvent::Replay { pages, skipped, .. } => {
                self.replayed += pages;
                self.skipped += skipped;
            }
            ObsEvent::BgTick { pages, .. } => self.bg_pages += pages,
            ObsEvent::DiskRequest { write, pages, .. } => {
                if write {
                    self.writes += 1;
                    self.pages_written += pages;
                } else {
                    self.reads += 1;
                    self.pages_read += pages;
                }
            }
            ObsEvent::DiskError { .. } => self.disk_errors += 1,
            ObsEvent::DiskSlowdown { penalty_us } => self.slow_us += penalty_us,
            _ => {}
        }
    }
}

/// The event stream accounts for every page and request the run counts:
/// on any completed run, node crashes included, tallying the delivered
/// events reproduces the `RunResult`'s engine, background-writer and
/// disk totals, under every paper policy and both baselines.
#[test]
fn event_stream_tallies_match_the_run_result() {
    prop::check("event_stream_tallies_match_the_run_result", 12, |rng| {
        let (seed, plan) = (rng.next_u64_raw(), plan(rng));
        let mut cfg = chaos_cfg(seed, plan);
        cfg.policy = *rng.pick(&PolicyConfig::paper_combinations());
        cfg.policy.baseline = *rng.pick(&[BaselineKind::Clock, BaselineKind::GlobalLru]);
        let tally = shared(Tally::default());
        let link = ObsLink::to(tally.clone());
        let Ok(r) = agp_cluster::run_observed(cfg, &link) else {
            return;
        };
        let t = tally.lock().unwrap();
        let es = r.total_engine_stats();
        let disk = |f: fn(&agp_disk::DiskStats) -> u64| r.nodes.iter().map(|n| f(&n.disk)).sum();
        let bg_cleaned: u64 = r.nodes.iter().map(|n| n.bg_cleaned_pages).sum();
        for (what, events, counted) in [
            ("major faults", t.major, es.major_faults),
            ("serviced majors", t.serviced, es.major_faults),
            ("minor faults", t.minor, es.minor_faults),
            ("readahead pages", t.readahead, es.readahead_pages),
            ("evictions", t.evicted, es.reclaimed_pages),
            ("false evictions", t.false_evicted, es.false_evictions),
            ("recorded evictions", t.recorded, es.recorded_pages),
            ("reclaim runs", t.reclaims, es.reclaim_calls),
            (
                "reclaim-freed pages",
                t.reclaim_freed,
                es.reclaimed_pages - es.aggressive_evictions,
            ),
            ("aggressive pages", t.aggressive, es.aggressive_evictions),
            ("replayed pages", t.replayed, es.replayed_pages),
            ("replay-skipped pages", t.skipped, es.replay_skipped),
            ("bg-cleaned pages", t.bg_pages, bg_cleaned),
            ("disk reads", t.reads, disk(|d| d.read_requests)),
            ("disk writes", t.writes, disk(|d| d.write_requests)),
            ("pages read", t.pages_read, disk(|d| d.pages_read)),
            ("pages written", t.pages_written, disk(|d| d.pages_written)),
            ("disk errors", t.disk_errors, disk(|d| d.errors)),
            ("slowdown us", t.slow_us, disk(|d| d.slow_penalty.as_us())),
        ] {
            assert_eq!(events, counted, "{what}: events vs {}", r.policy);
        }
    });
}
