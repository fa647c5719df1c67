//! Cluster and experiment configuration.

use agp_core::PolicyConfig;
use agp_disk::DiskParams;
use agp_faults::FaultPlan;
use agp_net::NetParams;
use agp_sim::units::pages_from_mib;
use agp_sim::SimDur;
use agp_workload::WorkloadSpec;

/// How jobs share the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Gang scheduling: round-robin quanta with coordinated switches.
    Gang,
    /// Batch: jobs run to completion one after the other — the paper's
    /// zero-switch baseline.
    Batch,
}

/// One job submitted to the cluster.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name ("LU.B #1").
    pub name: String,
    /// The workload it runs. `workload.nprocs` ranks are placed on nodes
    /// `0..nprocs`, one per node.
    pub workload: WorkloadSpec,
    /// Per-job quantum override (the paper gives SP 7 minutes, §4.2).
    pub quantum: Option<SimDur>,
}

impl JobSpec {
    /// A job with the default quantum.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec) -> Self {
        JobSpec {
            name: name.into(),
            workload,
            quantum: None,
        }
    }
}

/// Full description of one simulation run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (the paper's testbed: 4 compute nodes + 1
    /// scheduler node; only compute nodes are simulated).
    pub nodes: u32,
    /// Physical memory per node, MiB (paper: 1024).
    pub mem_mib: u64,
    /// Memory wired down per node, MiB — the paper's `mlock()` trick that
    /// reduces usable memory (e.g. 1024 − 350 = 674 for the Fig. 6 setup).
    pub wired_mib: u64,
    /// Paging-device parameters (per node).
    pub disk: DiskParams,
    /// Interconnect parameters.
    pub net: NetParams,
    /// Swap-in read-ahead window override (`None` = Linux 2.2 default 16).
    pub readahead: Option<usize>,
    /// Default gang quantum (paper: 5 minutes).
    pub quantum: SimDur,
    /// Paging policy under test.
    pub policy: PolicyConfig,
    /// Scheduling mode.
    pub mode: ScheduleMode,
    /// Jobs to run.
    pub jobs: Vec<JobSpec>,
    /// Master seed; fixes workload randomness.
    pub seed: u64,
    /// Paging-trace bucket width (Fig. 6 resolution).
    pub trace_bucket: SimDur,
    /// Background-writer tick interval.
    pub bg_tick: SimDur,
    /// Executor chunk size in pages: the granularity at which CPU time is
    /// charged and stops take effect. Smaller = finer interleaving,
    /// more events.
    pub chunk_pages: u32,
    /// Hard wall on simulated time (guards against thrashing livelock in
    /// misconfigured runs).
    pub max_sim_time: SimDur,
    /// Run the conservation/coherence invariant sweep during the
    /// simulation: after every coordinated switch, at each job completion,
    /// periodically in the event loop, and once at the end. A violation
    /// aborts the run with a diagnostic instead of producing silently
    /// wrong results. Enabled by `agp sim --check-invariants` and by
    /// default in the crate's own tests; off in production runs (the sweep
    /// walks every page table).
    pub check_invariants: bool,
    /// Telemetry sampling cadence. When set (and an observer is attached),
    /// the event loop emits [`agp_obs::ObsEvent::NodeGauge`] and
    /// [`agp_obs::ObsEvent::ProcGauge`] snapshots for every node on this
    /// fixed sim-time period. `None` (the default) schedules no sampling
    /// events at all, so unsampled runs are identical to the seed
    /// simulation event for event.
    pub sample_every: Option<SimDur>,
    /// Deterministic fault plan (chaos injection). `None` (the default)
    /// runs the seed simulation untouched — no injector is built, no
    /// RNG stream is forked, and the event stream is byte-identical to
    /// a build without the faults subsystem. Set by
    /// `agp sim --faults <plan.json>` and `agp chaos`.
    pub faults: Option<FaultPlan>,
}

impl ClusterConfig {
    /// The paper's testbed defaults: 1 GiB nodes, 350 MiB usable, 100 Mbps
    /// Ethernet, circa-2003 paging disk, 5-minute quanta, original paging.
    pub fn paper_defaults(nodes: u32) -> Self {
        ClusterConfig {
            nodes,
            mem_mib: 1024,
            wired_mib: 1024 - 350,
            disk: DiskParams::default(),
            net: NetParams::default(),
            readahead: None,
            quantum: SimDur::from_mins(5),
            policy: PolicyConfig::original(),
            mode: ScheduleMode::Gang,
            jobs: Vec::new(),
            seed: 0x5EED_600D,
            trace_bucket: SimDur::from_secs(10),
            bg_tick: SimDur::from_ms(60),
            chunk_pages: 1024,
            max_sim_time: SimDur::from_mins(1_440), // 24 h
            check_invariants: false,
            sample_every: None,
            faults: None,
        }
    }

    /// The run's label in incident dumps, derived from the config shape:
    /// `"{jobs}j/{nodes}n {policy} {mode}"`.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}j/{}n {} {:?}",
            self.jobs.len(),
            self.nodes,
            self.policy.label(),
            self.mode
        )
    }

    /// Usable (non-wired) memory per node, in pages.
    pub fn usable_pages(&self) -> usize {
        pages_from_mib(self.mem_mib.saturating_sub(self.wired_mib))
    }

    /// Validate the configuration; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.nodes > 64 {
            return Err(format!("nodes must be 1..=64, got {}", self.nodes));
        }
        if self.wired_mib >= self.mem_mib {
            return Err(format!(
                "wired memory {} MiB swallows all of {} MiB",
                self.wired_mib, self.mem_mib
            ));
        }
        if self.jobs.is_empty() {
            return Err("no jobs configured".into());
        }
        if self.chunk_pages == 0 {
            return Err("chunk_pages must be positive".into());
        }
        // A zero quantum expires the instant it starts: the scheduler
        // switches forever at one sim instant, so `max_sim_time` never
        // fires.
        if self.quantum == SimDur::ZERO {
            return Err("quantum must be positive".into());
        }
        // The same holds for the other self-rescheduling timers: a zero
        // sampling period or background-writer tick repeats at one
        // instant, and a zero trace bucket cannot bin a paging trace.
        if self.sample_every == Some(SimDur::ZERO) {
            return Err("sample_every must be positive".into());
        }
        if self.bg_tick == SimDur::ZERO {
            return Err("bg_tick must be positive".into());
        }
        if self.trace_bucket == SimDur::ZERO {
            return Err("trace_bucket must be positive".into());
        }
        // A page table stores `block + 1` in 32 bits.
        if self.disk.blocks > u64::from(u32::MAX) {
            return Err(format!(
                "disk.blocks must be below 2^32, got {}",
                self.disk.blocks
            ));
        }
        for job in &self.jobs {
            if job.quantum == Some(SimDur::ZERO) {
                return Err(format!("job '{}' quantum must be positive", job.name));
            }
            if job.workload.nprocs > self.nodes {
                return Err(format!(
                    "job '{}' wants {} ranks but the cluster has {} nodes",
                    job.name, job.workload.nprocs, self.nodes
                ));
            }
            let rank_pages = job.workload.footprint_pages_per_rank() as usize;
            // A single rank larger than usable memory + swap cannot run.
            if rank_pages > self.usable_pages() + self.disk.blocks as usize {
                return Err(format!(
                    "job '{}' footprint {} pages exceeds memory+swap",
                    job.name, rank_pages
                ));
            }
        }
        // Swap must hold the worst case: every job's rank image on the
        // most loaded node simultaneously.
        let per_node_pages: usize = self
            .jobs
            .iter()
            .filter(|j| j.workload.nprocs >= 1)
            .map(|j| j.workload.footprint_pages_per_rank() as usize)
            .sum();
        if per_node_pages > self.disk.blocks as usize {
            return Err(format!(
                "swap of {} blocks cannot back {} pages of job images per node",
                self.disk.blocks, per_node_pages
            ));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self.nodes as usize, self.jobs.len())
                .map_err(|e| format!("fault plan: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_workload::{Benchmark, Class};

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::paper_defaults(4);
        c.jobs.push(JobSpec::new(
            "LU.C #1",
            WorkloadSpec::parallel(Benchmark::LU, Class::C, 4),
        ));
        c
    }

    #[test]
    fn paper_defaults_match_section_4() {
        let c = cfg();
        assert_eq!(c.usable_pages(), pages_from_mib(350));
        assert_eq!(c.quantum, SimDur::from_mins(5));
        assert_eq!(c.trace_bucket, SimDur::from_secs(10));
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut c = cfg();
        c.nodes = 0;
        assert!(c.validate().is_err());

        let mut c = cfg();
        c.wired_mib = c.mem_mib;
        assert!(c.validate().is_err());

        let mut c = cfg();
        c.jobs.clear();
        assert!(c.validate().is_err());

        let mut c = cfg();
        c.jobs[0].workload.nprocs = 9;
        assert!(c.validate().is_err());

        let mut c = cfg();
        c.disk.blocks = 16;
        assert!(c.validate().is_err(), "swap too small");

        let mut c = cfg();
        c.quantum = SimDur::ZERO;
        assert!(c.validate().is_err(), "zero quantum");

        let mut c = cfg();
        c.jobs[0].quantum = Some(SimDur::ZERO);
        assert!(c.validate().is_err(), "zero per-job quantum");

        let mut c = cfg();
        c.sample_every = Some(SimDur::ZERO);
        assert!(c.validate().is_err(), "zero sampling period");

        let mut c = cfg();
        c.bg_tick = SimDur::ZERO;
        assert!(c.validate().is_err(), "zero background-writer tick");

        let mut c = cfg();
        c.trace_bucket = SimDur::ZERO;
        assert!(c.validate().is_err(), "zero trace bucket");

        let mut c = cfg();
        c.disk.blocks = 1 << 32;
        assert!(c.validate().is_err(), "swap past 32-bit block slots");
        c.disk.blocks = u64::from(u32::MAX);
        c.validate().unwrap();
    }

    #[test]
    fn quantum_override_travels_with_job() {
        let mut c = cfg();
        c.jobs[0].quantum = Some(SimDur::from_mins(7));
        c.validate().unwrap();
        assert_eq!(c.jobs[0].quantum, Some(SimDur::from_mins(7)));
    }
}
