//! Deterministic watchdog rules evaluated by the simulation loop, and
//! the incident dump of a run they (or any other error) abort.
//!
//! A run's rules are an explicit input: [`Watchdog`] reaches the sim
//! through [`crate::ClusterSim::attach_watchdog`], one run at a time, so
//! runs on other threads of the same process are never watched by it.
//! The loop evaluates the rules **in sim time** — never against the host
//! clock — so a trip is reproducible: the same seed and config trip the
//! same rule at the same simulated instant, and the incident dump built
//! from the run's flight ring ([`incident_dump`]) is byte-identical
//! across runs.
//!
//! The taxonomy ([`agp_obs::WatchdogRule`]):
//!
//! * **invariant** — the periodic invariant sweep found corrupt state
//!   (the existing [`crate::SimError::InvariantViolation`] path, recorded
//!   as a rule trip so post-mortems triage it like any other);
//! * **recovery_exhausted** — a recovery policy burned its whole retry
//!   budget and forced an outcome ([`agp_faults::RecoveryPolicy`]'s
//!   `io_retries` or `barrier_retries`); an attached watchdog always
//!   trips on it;
//! * **job_stall** — an unfinished job made no observable progress
//!   (dispatch, I/O completion, barrier release) past the configured SLO;
//! * **no_progress** — *every* unfinished job stalled at once: sim time
//!   keeps advancing (timers, background ticks) but no job-level progress
//!   happens for the whole bound — the run is hung, not slow. This is the
//!   fuzzer's `Hang` oracle;
//! * **queue_depth** — the event queue grew past the configured bound
//!   (runaway self-scheduling).
//!
//! Trips are uniform `value > limit` readings: stall-µs vs SLO-µs,
//! queue length vs bound, attempts vs budget, and violations (1) vs
//! allowed (0) for the invariant rule.

use crate::config::ClusterConfig;
use crate::error::SimError;
use agp_faults::fuzz::fnv1a;
use agp_obs::flight::{IncidentDump, IncidentTrigger, RunMeta};
use agp_obs::{RingBuffer, WatchdogRule};
use agp_sim::{SimDur, SimTime};

/// One tripped rule reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Trip {
    /// The rule that tripped.
    pub rule: WatchdogRule,
    /// Observed value.
    pub value: u64,
    /// The limit it crossed.
    pub limit: u64,
}

/// The watchdog rules of one run. An attached watchdog always trips on
/// recovery exhaustion; each rule below is off when `None`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Watchdog {
    /// Trip `job_stall` when an unfinished job makes no observable
    /// progress for longer than this.
    pub stall_slo: Option<SimDur>,
    /// Trip `queue_depth` when the event queue holds more entries than
    /// this.
    pub queue_limit: Option<u64>,
    /// Trip `no_progress` when *every* unfinished job has gone longer
    /// than this without observable progress — the hang detector.
    pub no_progress: Option<SimDur>,
}

impl Watchdog {
    /// Largest sim-time gap the loop may leave between sweeps. The
    /// event-count cadence starves on a quiet queue — a wedged barrier
    /// re-issues once an *hour*, so thousands of events never accumulate
    /// — which is exactly when the time-based rules matter most. Half the
    /// tightest bound guarantees a stall is observed within 1.5× its
    /// bound of starting. `None` when no time-based rule is armed.
    pub(crate) fn time_cadence(&self) -> Option<SimDur> {
        let tightest = match (self.stall_slo, self.no_progress) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }?;
        Some(SimDur::from_us((tightest.as_us() / 2).max(1)))
    }

    /// Evaluate the sweep rules at `now`: per-job stall SLO (jobs without
    /// a completion entry in `done`, last-progress instants in `last`),
    /// the global no-progress bound, and event-queue depth. First match
    /// wins, jobs in index order — deterministic for a deterministic
    /// event stream.
    pub(crate) fn sweep(
        &self,
        now: SimTime,
        last: &[SimTime],
        done: &[Option<SimTime>],
        queue_len: usize,
    ) -> Option<Trip> {
        if let Some(slo) = self.stall_slo {
            for (j, at) in last.iter().enumerate() {
                if done.get(j).is_some_and(|c| c.is_some()) {
                    continue;
                }
                let stall = now.since(*at);
                if stall > slo {
                    return Some(Trip {
                        rule: WatchdogRule::JobStall,
                        value: stall.as_us(),
                        limit: slo.as_us(),
                    });
                }
            }
        }
        if let Some(bound) = self.no_progress {
            // The freshest progress instant over *unfinished* jobs: when
            // even that is past the bound, nothing is moving — the event
            // queue is either drained or churning on non-job timers.
            let freshest = last
                .iter()
                .enumerate()
                .filter(|(j, _)| !done.get(*j).is_some_and(|c| c.is_some()))
                .map(|(_, at)| *at)
                .max();
            if let Some(at) = freshest {
                let stall = now.since(at);
                if stall > bound {
                    return Some(Trip {
                        rule: WatchdogRule::NoProgress,
                        value: stall.as_us(),
                        limit: bound.as_us(),
                    });
                }
            }
        }
        if let Some(limit) = self.queue_limit {
            if queue_len as u64 > limit {
                return Some(Trip {
                    rule: WatchdogRule::QueueDepth,
                    value: queue_len as u64,
                    limit,
                });
            }
        }
        None
    }
}

/// Map a run-aborting error to its incident trigger: invariant
/// violations are rule trips (1 violation against a budget of 0), a
/// watchdog trip keeps its rule, everything else is a plain error.
pub(crate) fn trigger_for_error(e: &SimError) -> IncidentTrigger {
    match e {
        SimError::InvariantViolation { .. } => IncidentTrigger::Watchdog {
            rule: WatchdogRule::Invariant,
            value: 1,
            limit: 0,
            detail: e.to_string(),
        },
        SimError::WatchdogTrip {
            rule, value, limit, ..
        } => IncidentTrigger::Watchdog {
            rule: *rule,
            value: *value,
            limit: *limit,
            detail: String::new(),
        },
        other => IncidentTrigger::Error {
            what: other.to_string(),
        },
    }
}

/// The simulated instant an error carries, µs (0 for configuration
/// errors) — the dump's freeze instant.
pub(crate) fn error_at_us(e: &SimError) -> u64 {
    match e {
        SimError::InvalidConfig(_) | SimError::FaultPlan(_) | SimError::Schedule { .. } => 0,
        SimError::Mem { at_us, .. }
        | SimError::InvariantViolation { at_us, .. }
        | SimError::SimTimeExceeded { at_us, .. }
        | SimError::Deadlock { at_us, .. }
        | SimError::WatchdogTrip { at_us, .. } => *at_us,
    }
}

/// The incident dump of a run that [`crate::ClusterSim::run`] aborted
/// with `err`. `ring` is the run's flight recorder, the
/// [`RingBuffer`] the caller put in its observer fanout; `cfg` gives
/// the run's identity ([`run_meta`]). A watchdog trigger (a trip or an
/// invariant violation) ends the window with its `WatchdogTrip` marker.
pub fn incident_dump(ring: RingBuffer, cfg: &ClusterConfig, err: &SimError) -> IncidentDump {
    IncidentDump::new(
        ring,
        trigger_for_error(err),
        error_at_us(err),
        run_meta(cfg),
    )
}

/// The identity of a run of `cfg`: its label, seed, config fingerprint
/// (FNV-1a-64 over the config's full debug rendering, so two runs with
/// different fingerprints are not comparable), job names and pid→job
/// pairs. Pids are numbered job by job, rank by rank, as
/// [`crate::ClusterSim::new`] registers them.
pub fn run_meta(cfg: &ClusterConfig) -> RunMeta {
    let pid_job = cfg
        .jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| std::iter::repeat_n(j as u32, job.workload.nprocs as usize))
        .enumerate()
        .map(|(pid, j)| (pid as u32, j))
        .collect();
    RunMeta {
        scenario: cfg.label(),
        seed: cfg.seed,
        config_fp: fnv1a(format!("{cfg:?}").as_bytes()),
        jobs: cfg.jobs.iter().map(|j| j.name.clone()).collect(),
        pid_job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(stall_slo_us: Option<u64>, queue_limit: Option<u64>) -> Watchdog {
        Watchdog {
            stall_slo: stall_slo_us.map(SimDur::from_us),
            queue_limit,
            no_progress: None,
        }
    }

    fn hang_armed(no_progress_us: u64) -> Watchdog {
        Watchdog {
            no_progress: Some(SimDur::from_us(no_progress_us)),
            ..Watchdog::default()
        }
    }

    /// A watchdog with no sweep rule (what `--flight-recorder` alone
    /// attaches) trips only on recovery exhaustion, never in a sweep.
    #[test]
    fn disarmed_watchdog_never_trips() {
        let w = Watchdog::default();
        assert_eq!(w.time_cadence(), None);
        assert_eq!(
            w.sweep(
                SimTime::from_us(1_000_000),
                &[SimTime::ZERO],
                &[None],
                10_000
            ),
            None
        );
    }

    #[test]
    fn stall_rule_ignores_finished_jobs_and_reads_stall_duration() {
        let w = armed(Some(500), None);
        let now = SimTime::from_us(1_000);
        // Job 0 finished long ago, job 1 progressed recently: no trip.
        let last = [SimTime::ZERO, SimTime::from_us(900)];
        let done = [Some(SimTime::from_us(10)), None];
        assert_eq!(w.sweep(now, &last, &done, 0), None);
        // Job 1 now stalls past the SLO.
        let late = SimTime::from_us(1_500);
        let trip = w.sweep(late, &last, &done, 0).expect("stall trip");
        assert_eq!(trip.rule, WatchdogRule::JobStall);
        assert_eq!(trip.value, 600);
        assert_eq!(trip.limit, 500);
        // Exactly at the SLO is not yet a trip (strictly greater).
        assert_eq!(w.sweep(SimTime::from_us(1_400), &last, &done, 0), None);
    }

    #[test]
    fn queue_rule_trips_strictly_above_the_bound() {
        let w = armed(None, Some(100));
        assert_eq!(w.sweep(SimTime::ZERO, &[], &[], 100), None);
        let trip = w.sweep(SimTime::ZERO, &[], &[], 101).expect("queue trip");
        assert_eq!(trip.rule, WatchdogRule::QueueDepth);
        assert_eq!(trip.value, 101);
        assert_eq!(trip.limit, 100);
    }

    #[test]
    fn stall_rule_wins_over_queue_rule() {
        let w = armed(Some(10), Some(1));
        let trip = w
            .sweep(SimTime::from_us(100), &[SimTime::ZERO], &[None], 50)
            .expect("trip");
        assert_eq!(trip.rule, WatchdogRule::JobStall, "first rule wins");
    }

    #[test]
    fn no_progress_trips_only_when_every_unfinished_job_stalls() {
        let w = hang_armed(1_000);
        let now = SimTime::from_us(10_000);
        // One job still fresh: the run is slow, not hung.
        let last = [SimTime::ZERO, SimTime::from_us(9_500)];
        assert_eq!(w.sweep(now, &last, &[None, None], 0), None);
        // The fresh job finishes; the survivor's stall now dates the run.
        let done = [None, Some(SimTime::from_us(9_600))];
        let trip = w.sweep(now, &last, &done, 0).expect("hang trip");
        assert_eq!(trip.rule, WatchdogRule::NoProgress);
        assert_eq!(trip.value, 10_000);
        assert_eq!(trip.limit, 1_000);
        // All jobs finished: nothing pending, nothing to hang.
        let all_done = [Some(SimTime::ZERO), Some(SimTime::ZERO)];
        assert_eq!(w.sweep(now, &last, &all_done, 0), None);
        // Exactly at the bound is not yet a trip (strictly greater).
        let last = [SimTime::from_us(9_000), SimTime::from_us(9_000)];
        assert_eq!(w.sweep(now, &last, &[None, None], 0), None);
    }

    #[test]
    fn time_cadence_halves_the_tightest_time_bound() {
        assert_eq!(armed(None, Some(5)).time_cadence(), None, "queue-only");
        assert_eq!(Watchdog::default().time_cadence(), None);
        assert_eq!(
            armed(Some(10_000), None).time_cadence(),
            Some(SimDur::from_us(5_000))
        );
        assert_eq!(
            hang_armed(1_800_000_000).time_cadence(),
            Some(SimDur::from_us(900_000_000))
        );
        let mut both = hang_armed(1_000);
        both.stall_slo = Some(SimDur::from_us(10_000));
        assert_eq!(both.time_cadence(), Some(SimDur::from_us(500)));
        assert_eq!(
            hang_armed(1).time_cadence(),
            Some(SimDur::from_us(1)),
            "cadence never rounds to zero"
        );
    }

    #[test]
    fn job_stall_wins_over_no_progress() {
        let mut w = hang_armed(1_000);
        w.stall_slo = Some(SimDur::from_us(500));
        let trip = w
            .sweep(SimTime::from_us(5_000), &[SimTime::ZERO], &[None], 0)
            .expect("trip");
        assert_eq!(trip.rule, WatchdogRule::JobStall, "specific rule first");
    }

    #[test]
    fn invariant_errors_become_rule_trips() {
        let e = SimError::InvariantViolation {
            context: "periodic sweep".to_string(),
            node: Some(1),
            at_us: 777,
            detail: "frame leak".to_string(),
        };
        match trigger_for_error(&e) {
            IncidentTrigger::Watchdog {
                rule,
                value,
                limit,
                detail,
            } => {
                assert_eq!(rule, WatchdogRule::Invariant);
                assert_eq!((value, limit), (1, 0));
                assert!(detail.contains("frame leak"));
            }
            other => panic!("expected watchdog trigger, got {other:?}"),
        }
        assert_eq!(error_at_us(&e), 777);
        let plain = SimError::InvalidConfig("bad".to_string());
        assert!(matches!(
            trigger_for_error(&plain),
            IncidentTrigger::Error { .. }
        ));
        assert_eq!(error_at_us(&plain), 0);
    }

    #[test]
    fn incident_dump_numbers_pids_like_the_sim_and_marks_invariant_trips() {
        use agp_workload::{Benchmark, Class, WorkloadSpec};
        let mut cfg = ClusterConfig::paper_defaults(2);
        cfg.jobs = vec![
            crate::JobSpec::new("cg", WorkloadSpec::parallel(Benchmark::CG, Class::A, 2)),
            crate::JobSpec::new("lu", WorkloadSpec::serial(Benchmark::LU, Class::A)),
        ];
        let mut ring = RingBuffer::new(8);
        agp_obs::Observer::on_event(
            &mut ring,
            SimTime::from_us(5),
            0,
            &agp_obs::ObsEvent::BgTick { pid: 2, pages: 1 },
        );
        let err = SimError::InvariantViolation {
            context: "periodic sweep".to_string(),
            node: Some(0),
            at_us: 777,
            detail: "frame leak".to_string(),
        };
        let dump = incident_dump(ring, &cfg, &err);
        assert_eq!(dump.meta.pid_job, vec![(0, 0), (1, 0), (2, 1)]);
        assert_eq!(dump.meta.jobs, vec!["cg".to_string(), "lu".to_string()]);
        assert_eq!(dump.meta.scenario, cfg.label());
        assert_eq!(dump.at_us, 777);
        assert_eq!(dump.events_seen, 2, "the event and the trip marker");
        assert_eq!(
            dump.events.last().map(|te| (te.at.as_us(), &te.event)),
            Some((
                777,
                &agp_obs::ObsEvent::WatchdogTrip {
                    rule: WatchdogRule::Invariant,
                    value: 1,
                    limit: 0,
                }
            ))
        );
    }
}
