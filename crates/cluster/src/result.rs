//! Results of one simulation run.

use agp_core::{EngineStats, PolicyConfig};
use agp_disk::DiskStats;
use agp_metrics::ActivityTrace;
use agp_sim::{SimDur, SimTime};
use agp_workload::WorkloadSpec;

use crate::config::ScheduleMode;

/// Outcome of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Job name from the config.
    pub name: String,
    /// Workload it ran.
    pub workload: WorkloadSpec,
    /// Instant the last rank finished.
    pub completion: SimTime,
    /// Work iterations completed (sanity: equals the spec's count).
    pub iterations: u32,
}

/// Per-node accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Paging-device statistics.
    pub disk: DiskStats,
    /// Paging-engine statistics.
    pub engine: EngineStats,
    /// Pages cleaned by the background writer.
    pub bg_cleaned_pages: u64,
    /// Paging-activity trace.
    pub trace: ActivityTrace,
}

/// Everything a finished run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Policy the run used.
    pub policy: PolicyConfig,
    /// Scheduling mode.
    pub mode: ScheduleMode,
    /// Seed the run used.
    pub seed: u64,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// Time at which every job had finished.
    pub makespan: SimDur,
    /// Per-node accounting.
    pub nodes: Vec<NodeReport>,
    /// Gang switches performed.
    pub switches: u64,
    /// Events processed (diagnostics).
    pub events: u64,
    /// Invariant sweeps performed (0 unless the run was started with
    /// `check_invariants`; each sweep covers every node's kernel and
    /// engine). A run that returns at all had zero violations — a
    /// violation aborts with an error.
    pub invariant_checks: u64,
}

impl RunResult {
    /// Completion time of the job named `name`.
    pub fn completion_of(&self, name: &str) -> Option<SimTime> {
        self.jobs
            .iter()
            .find(|j| j.name == name)
            .map(|j| j.completion)
    }

    /// Mean job completion time (the metric Moreira et al. report for the
    /// motivation experiment).
    pub fn mean_completion(&self) -> SimDur {
        if self.jobs.is_empty() {
            return SimDur::ZERO;
        }
        let total: SimDur = self
            .jobs
            .iter()
            .map(|j| j.completion.since(SimTime::ZERO))
            .sum();
        total / self.jobs.len() as u64
    }

    /// Total pages paged in across all nodes.
    pub fn total_pages_in(&self) -> u64 {
        self.nodes.iter().map(|n| n.disk.pages_read).sum()
    }

    /// Total pages paged out across all nodes.
    pub fn total_pages_out(&self) -> u64 {
        self.nodes.iter().map(|n| n.disk.pages_written).sum()
    }

    /// All nodes' traces merged into one cluster-wide activity series.
    pub fn merged_trace(&self) -> ActivityTrace {
        let mut it = self.nodes.iter();
        let Some(first) = it.next() else {
            return ActivityTrace::new(agp_sim::SimDur::from_secs(10));
        };
        let mut merged = first.trace.clone();
        for n in it {
            merged.merge(&n.trace);
        }
        merged
    }

    /// Per-job *solo* durations implied by a batch-mode run: in batch the
    /// jobs execute back to back, so job i's solo time is the gap between
    /// consecutive completions. Returns `None` for gang-mode results
    /// (completions overlap there).
    pub fn solo_durations(&self) -> Option<Vec<SimDur>> {
        if self.mode != ScheduleMode::Batch {
            return None;
        }
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| self.jobs[i].completion);
        let mut prev = SimTime::ZERO;
        let mut out = vec![SimDur::ZERO; self.jobs.len()];
        for idx in order {
            out[idx] = self.jobs[idx].completion.since(prev);
            prev = self.jobs[idx].completion;
        }
        Some(out)
    }

    /// Per-job slowdown relative to a batch run of the same jobs:
    /// `gang_completion / solo_duration`. This is the responsiveness
    /// metric gang scheduling exists to improve — a job's turnaround
    /// under timesharing versus running alone.
    ///
    /// Returns `None` when the shapes don't match or `batch` is not a
    /// batch-mode result.
    pub fn slowdowns_vs(&self, batch: &RunResult) -> Option<Vec<f64>> {
        let solos = batch.solo_durations()?;
        if solos.len() != self.jobs.len() {
            return None;
        }
        Some(
            self.jobs
                .iter()
                .zip(&solos)
                .map(|(j, solo)| {
                    if solo.as_us() == 0 {
                        1.0
                    } else {
                        j.completion.as_us() as f64 / solo.as_us() as f64
                    }
                })
                .collect(),
        )
    }

    /// Mean of [`RunResult::slowdowns_vs`].
    pub fn mean_slowdown_vs(&self, batch: &RunResult) -> Option<f64> {
        let s = self.slowdowns_vs(batch)?;
        if s.is_empty() {
            return None;
        }
        Some(s.iter().sum::<f64>() / s.len() as f64)
    }

    /// Aggregate engine statistics across nodes.
    pub fn total_engine_stats(&self) -> EngineStats {
        let mut acc = EngineStats::default();
        for n in &self.nodes {
            acc += n.engine;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_workload::{Benchmark, Class};

    fn finished_at(completions: &[SimTime]) -> RunResult {
        let job = |i: usize, &completion: &SimTime| JobResult {
            name: format!("job{i}"),
            workload: WorkloadSpec::serial(Benchmark::IS, Class::A),
            completion,
            iterations: 0,
        };
        RunResult {
            policy: PolicyConfig::original(),
            mode: ScheduleMode::Gang,
            seed: 0,
            jobs: completions
                .iter()
                .enumerate()
                .map(|(i, c)| job(i, c))
                .collect(),
            makespan: SimDur::ZERO,
            nodes: Vec::new(),
            switches: 0,
            events: 0,
            invariant_checks: 0,
        }
    }

    #[test]
    fn mean_completion_saturates_instead_of_overflowing() {
        let r = finished_at(&[SimTime::from_us(10), SimTime::from_us(21)]);
        assert_eq!(r.mean_completion(), SimDur::from_us(15));
        let r = finished_at(&[SimTime::MAX, SimTime::MAX]);
        assert_eq!(r.mean_completion(), SimDur::from_us(u64::MAX / 2));
        assert_eq!(finished_at(&[]).mean_completion(), SimDur::ZERO);
    }
}
