//! The aggregating collector sink: counters, latency histograms, and the
//! per-switch phase breakdown.

use crate::event::{ObsEvent, SwitchPhaseKind};
use crate::observer::Observer;
use agp_perf::LatencyHistogram;
use agp_sim::SimTime;

/// The counts only the event stream carries. Paging and disk counts
/// (faults, evictions, replay, reclaim, disk requests and pages, disk
/// errors and slowdowns) are owned by the run's `RunResult`; barrier and
/// switch counts are [`Collector::barrier_skew`]'s count and
/// [`Collector::switch_records`]'s length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Total events delivered to this collector.
    pub events: u64,
    /// Background-writer bursts that found work.
    pub bg_ticks: u64,
    /// Telemetry gauge samples delivered (node + per-process).
    pub gauge_samples: u64,
    /// Disk request retries after backoff (chaos recovery).
    pub fault_io_retries: u64,
    /// Node crashes (chaos).
    pub fault_node_crashes: u64,
    /// Node restarts (chaos recovery).
    pub fault_node_restarts: u64,
    /// Jobs requeued after a crash (chaos recovery).
    pub fault_jobs_requeued: u64,
    /// Barrier release timeouts / re-issues (chaos recovery).
    pub fault_barrier_timeouts: u64,
    /// Frames demanded by memory-pressure bursts (chaos).
    pub fault_mem_pressure_pages: u64,
    /// Nodes where adaptive page-in degraded to demand paging (chaos
    /// graceful degradation).
    pub fault_ai_degrades: u64,
}

/// One gang switch decomposed into the protocol's four phases. The phase
/// durations sum to `total_us` exactly (asserted by the cluster tests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Monotonic switch number (0 is the initial placement).
    pub switch: u64,
    /// Instant the switch began, µs.
    pub at_us: u64,
    /// STOP-delivery phase, µs.
    pub stop_us: u64,
    /// Page-out phase (aggressive/selective writes draining), µs.
    pub page_out_us: u64,
    /// Page-in phase (adaptive replay reads draining), µs.
    pub page_in_us: u64,
    /// CONT-delivery phase, µs.
    pub cont_us: u64,
    /// Total switch duration, µs.
    pub total_us: u64,
}

impl SwitchRecord {
    /// Sum of the four phase durations; equals `total_us` for a
    /// well-formed stream.
    pub fn phase_sum_us(&self) -> u64 {
        self.stop_us + self.page_out_us + self.page_in_us + self.cont_us
    }
}

/// The aggregating sink: attach via [`crate::ObsLink::to`], read back
/// after the run.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    /// Monotonic counters.
    pub counters: ObsCounters,
    /// Total switch duration distribution.
    pub switch_total: LatencyHistogram,
    /// Fault-service stall distribution.
    pub fault_service: LatencyHistogram,
    /// Disk queue-wait distribution.
    pub disk_wait: LatencyHistogram,
    /// Disk service-time distribution.
    pub disk_service: LatencyHistogram,
    /// Barrier arrival-skew distribution.
    pub barrier_skew: LatencyHistogram,
    switches: Vec<SwitchRecord>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Per-switch phase breakdowns, in switch order.
    pub fn switch_records(&self) -> &[SwitchRecord] {
        &self.switches
    }

    // The `expect` cannot fail: the branch pushes a record when the list
    // is empty or stale.
    #[allow(clippy::expect_used)]
    fn record_mut(&mut self, switch: u64, at: SimTime) -> &mut SwitchRecord {
        let needs_new = self.switches.last().map(|r| r.switch) != Some(switch);
        if needs_new {
            self.switches.push(SwitchRecord {
                switch,
                at_us: at.as_us(),
                ..SwitchRecord::default()
            });
        }
        self.switches.last_mut().expect("just ensured")
    }
}

impl Observer for Collector {
    fn on_event(&mut self, at: SimTime, _src: u32, ev: &ObsEvent) {
        self.counters.events += 1;
        match *ev {
            ObsEvent::BgTick { .. } => self.counters.bg_ticks += 1,
            ObsEvent::DiskRequest {
                wait_us,
                service_us,
                ..
            } => {
                self.disk_wait.record(wait_us);
                self.disk_service.record(service_us);
            }
            ObsEvent::FaultService { wait_us, .. } => self.fault_service.record(wait_us),
            ObsEvent::BarrierWait { skew_us, .. } => self.barrier_skew.record(skew_us),
            ObsEvent::SwitchPhase {
                switch,
                phase,
                dur_us,
            } => {
                let rec = self.record_mut(switch, at);
                match phase {
                    SwitchPhaseKind::Stop => rec.stop_us = dur_us,
                    SwitchPhaseKind::PageOut => rec.page_out_us = dur_us,
                    SwitchPhaseKind::PageIn => rec.page_in_us = dur_us,
                    SwitchPhaseKind::Cont => rec.cont_us = dur_us,
                }
            }
            ObsEvent::SwitchDone { switch, total_us } => {
                self.record_mut(switch, at).total_us = total_us;
                self.switch_total.record(total_us);
            }
            ObsEvent::NodeGauge { .. } | ObsEvent::ProcGauge { .. } => {
                self.counters.gauge_samples += 1;
            }
            ObsEvent::IoRetry { .. } => self.counters.fault_io_retries += 1,
            ObsEvent::NodeCrash { .. } => self.counters.fault_node_crashes += 1,
            ObsEvent::NodeRestart { .. } => self.counters.fault_node_restarts += 1,
            ObsEvent::JobRequeued { .. } => self.counters.fault_jobs_requeued += 1,
            ObsEvent::BarrierTimeout { .. } => self.counters.fault_barrier_timeouts += 1,
            ObsEvent::MemPressure { target, .. } => {
                self.counters.fault_mem_pressure_pages += target;
            }
            ObsEvent::AiDegraded { .. } => self.counters.fault_ai_degrades += 1,
            // Counted by the run itself (`RunResult`), or per-page and
            // incident detail the flight recorder captures raw.
            ObsEvent::PageFault { .. }
            | ObsEvent::MajorFault { .. }
            | ObsEvent::ReadaheadHit { .. }
            | ObsEvent::EvictBatch { .. }
            | ObsEvent::Evict { .. }
            | ObsEvent::Reclaim { .. }
            | ObsEvent::AggressiveOut { .. }
            | ObsEvent::ReplayPage { .. }
            | ObsEvent::Replay { .. }
            | ObsEvent::DiskError { .. }
            | ObsEvent::DiskSlowdown { .. }
            | ObsEvent::IoExhausted { .. }
            | ObsEvent::BarrierExhausted { .. }
            | ObsEvent::WatchdogTrip { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(c: &mut Collector, evs: &[ObsEvent]) {
        for (i, ev) in evs.iter().enumerate() {
            c.on_event(SimTime::from_us(i as u64), 0, ev);
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Collector::new();
        feed(
            &mut c,
            &[
                ObsEvent::PageFault {
                    pid: 1,
                    page: 0,
                    major: true,
                },
                ObsEvent::PageFault {
                    pid: 1,
                    page: 1,
                    major: false,
                },
                ObsEvent::MajorFault {
                    pid: 1,
                    page: 0,
                    readahead: 3,
                    write_pages: 0,
                    read_pages: 4,
                },
                ObsEvent::Evict {
                    pid: 2,
                    page: 9,
                    false_eviction: true,
                    recorded: false,
                },
                ObsEvent::Evict {
                    pid: 2,
                    page: 10,
                    false_eviction: false,
                    recorded: true,
                },
                ObsEvent::Reclaim {
                    target: 16,
                    freed: 12,
                    write_pages: 8,
                },
                ObsEvent::DiskRequest {
                    write: true,
                    extents: 1,
                    pages: 8,
                    wait_us: 5,
                    seek_us: 20,
                    service_us: 100,
                },
                ObsEvent::DiskRequest {
                    write: false,
                    extents: 1,
                    pages: 4,
                    wait_us: 0,
                    seek_us: 0,
                    service_us: 50,
                },
                ObsEvent::BarrierWait {
                    ranks: 2,
                    skew_us: 77,
                    lag_us: 200,
                },
            ],
        );
        // Paging and disk counts are the run's (`RunResult`); the
        // collector keeps the event total and the latency shapes.
        assert_eq!(c.counters.events, 9);
        assert_eq!(c.disk_wait.count(), 2);
        assert_eq!(c.disk_service.sum(), 150);
        assert_eq!(c.barrier_skew.count(), 1);
        assert_eq!(c.barrier_skew.max(), 77);
    }

    #[test]
    fn switch_records_assemble_from_phases() {
        let mut c = Collector::new();
        let at = SimTime::from_secs(10);
        for (phase, dur) in [
            (SwitchPhaseKind::Stop, 0),
            (SwitchPhaseKind::PageOut, 300),
            (SwitchPhaseKind::PageIn, 700),
            (SwitchPhaseKind::Cont, 0),
        ] {
            c.on_event(
                at,
                u32::MAX,
                &ObsEvent::SwitchPhase {
                    switch: 1,
                    phase,
                    dur_us: dur,
                },
            );
        }
        c.on_event(
            at,
            u32::MAX,
            &ObsEvent::SwitchDone {
                switch: 1,
                total_us: 1000,
            },
        );
        let recs = c.switch_records();
        assert_eq!(recs.len(), 1);
        let r = recs[0];
        assert_eq!(r.switch, 1);
        assert_eq!(r.at_us, 10_000_000);
        assert_eq!(r.page_out_us, 300);
        assert_eq!(r.page_in_us, 700);
        assert_eq!(r.total_us, 1000);
        assert_eq!(r.phase_sum_us(), r.total_us);
        assert_eq!(c.switch_total.count(), 1);
    }

    #[test]
    fn consecutive_switches_get_separate_records() {
        let mut c = Collector::new();
        for sw in 0..3u64 {
            let at = SimTime::from_secs(sw);
            c.on_event(
                at,
                0,
                &ObsEvent::SwitchPhase {
                    switch: sw,
                    phase: SwitchPhaseKind::PageOut,
                    dur_us: sw,
                },
            );
            c.on_event(
                at,
                0,
                &ObsEvent::SwitchDone {
                    switch: sw,
                    total_us: sw,
                },
            );
        }
        assert_eq!(c.switch_records().len(), 3);
        assert_eq!(c.switch_records()[2].page_out_us, 2);
    }

    #[test]
    fn zero_length_quantum_switch_is_recorded_as_all_zero() {
        // A zero-length quantum produces a switch whose four phases and
        // total are all zero; it must still get a record and count.
        let mut c = Collector::new();
        let at = SimTime::from_us(77);
        for phase in [
            SwitchPhaseKind::Stop,
            SwitchPhaseKind::PageOut,
            SwitchPhaseKind::PageIn,
            SwitchPhaseKind::Cont,
        ] {
            c.on_event(
                at,
                u32::MAX,
                &ObsEvent::SwitchPhase {
                    switch: 0,
                    phase,
                    dur_us: 0,
                },
            );
        }
        c.on_event(
            at,
            u32::MAX,
            &ObsEvent::SwitchDone {
                switch: 0,
                total_us: 0,
            },
        );
        let recs = c.switch_records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].total_us, 0);
        assert_eq!(recs[0].phase_sum_us(), 0);
        assert_eq!(recs[0].at_us, 77);
        assert_eq!(c.switch_total.count(), 1);
        // The zero total lands in the histogram's zero bucket, not lost.
        assert_eq!(c.switch_total.percentile(100.0), 0);
    }

    #[test]
    fn switch_without_page_traffic_leaves_disk_counters_untouched() {
        let mut c = Collector::new();
        let at = SimTime::from_secs(3);
        c.on_event(
            at,
            u32::MAX,
            &ObsEvent::SwitchPhase {
                switch: 2,
                phase: SwitchPhaseKind::PageOut,
                dur_us: 0,
            },
        );
        c.on_event(
            at,
            u32::MAX,
            &ObsEvent::SwitchDone {
                switch: 2,
                total_us: 0,
            },
        );
        assert_eq!(c.disk_wait.count(), 0);
        assert_eq!(c.disk_service.count(), 0);
        assert_eq!(c.switch_records().len(), 1);
        assert_eq!(c.counters.events, 2);
    }

    #[test]
    fn empty_stream_yields_a_default_collector() {
        // A collector that never saw an event reads back as all-default and answers percentile
        // queries with zero rather than panicking.
        let c = Collector::new();
        assert_eq!(c.counters, ObsCounters::default());
        assert!(c.switch_records().is_empty());
        assert_eq!(c.switch_total.count(), 0);
        assert_eq!(c.fault_service.percentile(99.0), 0);
        assert_eq!(c.disk_wait.percentile(50.0), 0);
        assert_eq!(c.barrier_skew.max(), 0);
    }
}
