//! # agp-explain — causal switch-latency attribution
//!
//! The paper's numbers say *how much* gang-switch latency each paging
//! policy removes; this crate says *why*. It consumes the deterministic
//! [`agp_obs::ObsEvent`] stream of a run and
//!
//! 1. finds each gang switch's **critical path**: the longest of its
//!    disk requests' `queue wait → seek → transfer` chains (each
//!    request's queue wait already holds the FIFO ahead of it, so no
//!    chain waits on another; the switch ends with the last, as in the
//!    simulator's §3.2 switch protocol), and buckets every critical
//!    microsecond into a stable [`Cause`] taxonomy — per-switch buckets
//!    sum to the switch latency `agp profile` reports, exactly;
//! 2. detects the paper-specific pathologies as typed [`Diagnostic`]s
//!    with event provenance: **false-eviction refaults** (§3.1),
//!    **redundant page-ins** (pages staged by adaptive page-in, thrown
//!    away unused, then re-read), and **dirty-flush storms** at switch
//!    edges (what selective page-out and background writing exist to
//!    prevent, §3.3–3.4);
//! 3. explains **differentially**: [`ExplainDiff`] attributes the
//!    end-to-end delta between two same-seed runs differing in one
//!    policy bit to cause buckets — the Fig. 9 ablation as a
//!    machine-checkable report;
//! 4. explains **incidents**: [`postmortem`] reloads a flight-recorder
//!    dump ([`agp_obs::flight::IncidentDump`]), triages its event window
//!    by subsystem, and replays it through the same analyzer — the
//!    `agp postmortem` report.
//!
//! Everything is byte-deterministic: reports serialize via
//! [`agp_metrics::Json`] with fixed field order and are golden-pinned.

#![warn(missing_docs)]

pub mod analyze;
pub mod causes;
pub mod dag;
pub mod diff;
pub mod postmortem;
pub mod report;

pub use analyze::{Analyzer, Diagnostic, JobStalls, SwitchExplain, STORM_THRESHOLD_PAGES};
pub use causes::{Cause, CauseBuckets};
pub use dag::{CriticalPath, ReqInfo, Segment, SwitchRequests};
pub use diff::{Delta, ExplainDiff};
pub use postmortem::{
    load_dump, triage_class, PostmortemReport, CULPRIT_LIMIT, POSTMORTEM_SCHEMA_VERSION,
    TRIAGE_CLASSES,
};
pub use report::{ExplainReport, RunMeta, EXPLAIN_SCHEMA_VERSION, SWITCH_DETAIL_LIMIT};

use agp_cluster::{ClusterConfig, RunResult, ScheduleMode};
use agp_obs::{shared, unwrap_shared, ObsLink};

/// Run `cfg` with an attached [`Analyzer`] and assemble the
/// [`ExplainReport`]. `experiment` and `scale` label the report's meta
/// block; policy, mode, and seed are taken from the config itself.
///
/// This is the single entry point both `agp explain` and the golden
/// tests use, so the CLI's JSON and the pinned golden are byte-equal by
/// construction.
pub fn explain_run(
    cfg: &ClusterConfig,
    experiment: &str,
    scale: &str,
) -> Result<(RunResult, ExplainReport), String> {
    let sink = shared(Analyzer::with_jobs(&agp_cluster::run_meta(cfg)));
    let link = ObsLink::to(sink.clone());
    let result = agp_cluster::run_observed(cfg.clone(), &link)?;
    drop(link);
    let analyzer = unwrap_shared(sink)?;
    let meta = RunMeta {
        experiment: experiment.into(),
        scale: scale.into(),
        policy: cfg.policy.label(),
        mode: match cfg.mode {
            ScheduleMode::Gang => "gang".into(),
            ScheduleMode::Batch => "batch".into(),
        },
        seed: cfg.seed,
    };
    let report = ExplainReport::build(analyzer, meta, result.makespan.as_us(), result.switches);
    Ok((result, report))
}
