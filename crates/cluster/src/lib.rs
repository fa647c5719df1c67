//! # agp-cluster — node assembly and the master simulation loop
//!
//! This crate turns the substrates into the paper's testbed: a cluster of
//! nodes (each with a VM kernel, a paging engine, and a paging disk),
//! connected by a network, running gang-scheduled synthetic NPB2 jobs.
//!
//! The architecture mirrors the paper's Fig. 5:
//!
//! ```text
//!   GangScheduler (user level)          agp-gang
//!        │ STOP / CONT signals
//!        │ adaptive_page_out / adaptive_page_in / start_bgwrite
//!        ▼
//!   PagingEngine (kernel policy)        agp-core
//!        ▼ mechanisms
//!   Kernel (VM)  ── swap I/O ──▶ Disk   agp-mem / agp-disk
//! ```
//!
//! [`ClusterSim`] owns the event queue; processes execute their workload
//! programs step by step, faulting against their node's kernel, blocking
//! on the node's FIFO paging disk, and synchronizing through barriers.
//! Everything is deterministic given [`ClusterConfig::seed`].
//!
//! Two scheduling modes reproduce the paper's comparisons:
//! * [`ScheduleMode::Gang`] — round-robin quanta with the full switch
//!   protocol (STOP → adaptive paging → CONT);
//! * [`ScheduleMode::Batch`] — jobs run back-to-back, the `batch` baseline
//!   whose completion time anchors the overhead metrics (§4.1).

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod harness;
pub mod proc;
pub mod result;
pub mod sim;
mod watchdog;

pub use config::{ClusterConfig, JobSpec, ScheduleMode};
pub use error::SimError;
pub use harness::{classify, counter_tiling_violation, VerdictReport};
pub use result::{JobResult, NodeReport, RunResult};
pub use sim::ClusterSim;
pub use watchdog::{incident_dump, Watchdog};

/// Run a configuration to completion (convenience wrapper).
///
/// Errors are typed ([`SimError`]) with node/time provenance;
/// `From<SimError> for String` keeps legacy string-error callers
/// compiling through `?`.
pub fn run(config: ClusterConfig) -> Result<RunResult, SimError> {
    ClusterSim::new(config)?.run()
}

/// Run a configuration with an observation link attached (see
/// [`ClusterSim::attach_observer`] for how sinks and source tags are
/// wired).
pub fn run_observed(config: ClusterConfig, link: &agp_obs::ObsLink) -> Result<RunResult, SimError> {
    let mut sim = ClusterSim::new(config)?;
    sim.attach_observer(link);
    sim.run()
}
