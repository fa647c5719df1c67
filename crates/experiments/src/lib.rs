//! # agp-experiments — the paper's evaluation, experiment by experiment
//!
//! One module per figure/table of *Adaptive Memory Paging for Efficient
//! Gang Scheduling of Parallel Applications* (§4), plus the motivation
//! experiment from §1 and two ablations the paper discusses in prose:
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig6`] | Fig. 6 — paging-activity traces, LU class C on 4 nodes (also demonstrates the Fig. 1 compaction claim) |
//! | [`fig7`] | Fig. 7(a–c) — serial class B completion / overhead / reduction |
//! | [`fig8`] | Fig. 8(a–f) — parallel benchmarks on 2 and 4 nodes |
//! | [`fig9`] | Fig. 9(a–c) — LU under every policy combination |
//! | [`moreira`] | §1 — Moreira et al. 3×45 MB jobs, 128 vs 256 MB |
//! | [`bg_ablation`] | §3.4 — background-writing window sweep ("last 10 % is best") |
//! | [`quantum_sweep`] | §5 (Wang et al.) — overhead vs quantum length |
//!
//! Extensions beyond the published evaluation (each grounded in the
//! paper's own text):
//!
//! | module | grounding |
//! |--------|-----------|
//! | [`scale16`] | §6/footnote 2 — the announced 8/16-node follow-up |
//! | [`mpl`] | §1 — overhead vs multiprogramming level |
//! | [`admission`] | §5 \[15\] — Batat & Feitelson admission control comparator |
//!
//! Every experiment runs at two scales: [`Scale::Paper`] reproduces the
//! testbed geometry (1 GiB nodes, 5-minute quanta, class B/C inputs;
//! seconds of wall time per run), and [`Scale::Quick`] shrinks memory and
//! classes for CI while preserving the pressure geometry (the working set
//! of one job fits memory, two do not).
//!
//! Where the paper varied the `mlock()` amount per experiment ("different
//! input data sizes and memory locking sizes were used", §4.3), the
//! per-benchmark lock sizes used here are recorded in each module and in
//! EXPERIMENTS.md.

#![warn(missing_docs)]

pub mod admission;
pub mod bg_ablation;
pub mod common;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod moreira;
pub mod mpl;
pub mod parity;
pub mod quantum_sweep;
pub mod registry;
pub mod scale16;

pub use common::{chaos_demo, run_pool, ExperimentOutput, Scale};
pub use fig9::explain_pair;
pub use parity::{add_output, default_tolerances, manifest_of, scale_name, REPORT_SEED};
pub use registry::{all_experiments, find, profile_config, ExperimentInfo};
