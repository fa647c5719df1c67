//! **Admission control comparison** — Batat & Feitelson's alternative
//! (§5 related work \[15\]): "exercising the admission control that allows
//! only those jobs that fit into the available memory gives overall
//! improvement in performance while suffering from delayed job
//! execution."
//!
//! The workload is the one gang scheduling exists for (§1: "improved
//! system response under mixed workloads"): a *long* LU and a *short* IS
//! submitted together, with memory that holds either working set but not
//! both. Three disciplines:
//!
//! 1. **admission control** — refuse to co-schedule what doesn't fit: the
//!    short job waits behind the whole long one ("delayed job
//!    execution");
//! 2. **gang + original paging** — responsive, but the §2 switch storms
//!    tax both jobs;
//! 3. **gang + adaptive paging** — the paper's answer: the short job's
//!    slowdown drops toward the ideal 2× of fair timesharing.

use agp_cluster::{ClusterConfig, JobSpec, RunResult, ScheduleMode};
use agp_core::PolicyConfig;
use agp_metrics::Table;
use agp_sim::{SimDur, SimTime};
use agp_workload::{Benchmark, Class, WorkloadSpec};

use crate::common::{mins, ExperimentOutput, Scale};

fn config(scale: Scale, policy: PolicyConfig, mode: ScheduleMode) -> ClusterConfig {
    let (class, mem, wired, quantum) = match scale {
        Scale::Paper => (Class::B, 1024, 624, SimDur::from_mins(5)),
        Scale::Quick => (Class::A, 128, 78, SimDur::from_secs(25)),
    };
    let mut cfg = ClusterConfig::paper_defaults(1);
    cfg.mem_mib = mem;
    cfg.wired_mib = wired;
    cfg.quantum = quantum;
    cfg.policy = policy;
    cfg.mode = mode;
    cfg.jobs = vec![
        JobSpec::new("LU (long)", WorkloadSpec::serial(Benchmark::LU, class)),
        JobSpec::new("IS (short)", WorkloadSpec::serial(Benchmark::IS, class)),
    ];
    cfg
}

fn short_completion(r: &RunResult) -> Result<SimTime, String> {
    r.completion_of("IS (short)")
        .ok_or_else(|| "the short job is missing from the run".to_string())
}

/// Run the comparison.
pub fn run(scale: Scale) -> Result<ExperimentOutput, String> {
    // Admission control over-commits nothing: with either-but-not-both
    // memory, it serializes — identical to the batch discipline.
    let admission = agp_cluster::run(config(scale, PolicyConfig::original(), ScheduleMode::Batch))?;
    let gang_orig = agp_cluster::run(config(scale, PolicyConfig::original(), ScheduleMode::Gang))?;
    let gang_full = agp_cluster::run(config(scale, PolicyConfig::full(), ScheduleMode::Gang))?;

    let solos = admission
        .solo_durations()
        .ok_or("the admission run is not in batch mode")?;
    let short_solo = solos[1];

    let mut t = Table::new(
        "Admission control vs gang scheduling — long LU + short IS, one node",
        &[
            "discipline",
            "makespan (min)",
            "short-job completion (min)",
            "short-job slowdown",
            "mean slowdown",
            "pages in",
        ],
    );
    for (name, r) in [
        ("admission (serialize)", &admission),
        ("gang + orig", &gang_orig),
        ("gang + so/ao/ai/bg", &gang_full),
    ] {
        let short = short_completion(r)?;
        let short_slow = short.as_us() as f64 / short_solo.as_us().max(1) as f64;
        let mean = r
            .mean_slowdown_vs(&admission)
            .map(|s| format!("{s:.2}"))
            .unwrap_or_else(|| "—".into());
        t.row(vec![
            name.into(),
            mins(r.makespan),
            format!("{:.1}", short.as_mins_f64()),
            format!("{short_slow:.2}"),
            mean,
            r.total_pages_in().to_string(),
        ]);
    }

    let s_adm = short_completion(&admission)?;
    let s_full = short_completion(&gang_full)?;
    Ok(ExperimentOutput {
        id: "admission".into(),
        title: "Extension: admission control vs adaptive gang scheduling (§5 [15])".into(),
        tables: vec![t],
        traces: Vec::new(),
        notes: vec![
            format!(
                "delayed job execution: under admission control the short job finishes at {} \
                 (after the entire long job); under adaptive gang scheduling it finishes at {}",
                mins(s_adm.since(SimTime::ZERO)),
                mins(s_full.since(SimTime::ZERO)),
            ),
            "the ideal two-way timeshare gives the short job slowdown ≈ 2; original paging \
             pushes it well past that, adaptive paging pulls it back — responsiveness without \
             a-priori memory information, which both admission control and reservations require"
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_admission_tradeoff_shape() {
        let out = run(Scale::Quick).unwrap();
        let t = &out.tables[0];
        // Admission pages nothing (jobs run alone in sufficient memory).
        let pages_admission: u64 = t.cell(0, 5).parse().unwrap();
        assert_eq!(pages_admission, 0, "fits-in-memory jobs never page solo");
        // The short job is more responsive under adaptive gang scheduling
        // than when serialized behind the long job.
        let short_adm: f64 = t.cell(0, 3).parse().unwrap();
        let short_orig: f64 = t.cell(1, 3).parse().unwrap();
        let short_full: f64 = t.cell(2, 3).parse().unwrap();
        assert!(
            short_full < short_adm,
            "adaptive gang ({short_full}) must beat admission's delayed execution ({short_adm})"
        );
        assert!(
            short_full <= short_orig + 1e-9,
            "adaptive ({short_full}) must not be less responsive than orig ({short_orig})"
        );
        // Gang + adaptive must also beat gang + orig on makespan.
        let mk_orig: f64 = t.cell(1, 1).parse().unwrap();
        let mk_full: f64 = t.cell(2, 1).parse().unwrap();
        assert!(mk_full <= mk_orig + 1e-9);
    }
}
