//! # agp-mem — the simulated virtual-memory subsystem
//!
//! A page-granular model of the memory-management machinery the paper
//! modifies (Linux 2.2.19): physical frames, per-process page tables with
//! reference/dirty bits, a swap-space bitmap allocator, watermark-driven
//! reclaim (`freepages.min` / `freepages.high`), swap-in read-ahead, and
//! working-set-size tracking.
//!
//! ## Mechanism vs. policy
//!
//! This crate is **mechanism only**. It can evict a page, map a page in,
//! sweep reference bits, and allocate swap extents — but it never decides
//! *which* page to evict or *when*. Those decisions (the original
//! clock/LRU baseline and the paper's four adaptive mechanisms) live in
//! `agp-core` and are expressed against [`Kernel`]'s mechanism API. The
//! split mirrors the paper's own architecture (§3.5): the kernel exposes
//! primitives; gang-schedule knowledge arrives from the outside.
//!
//! ## Simplifications (documented; see DESIGN.md §3)
//!
//! * Frames are fungible counters, not identities — no effect on any
//!   quantity the paper measures.
//! * A page's frame is freed at eviction time while the writeback I/O is
//!   queued asynchronously; because each node's paging disk services
//!   requests FIFO, any subsequent swap-in still pays for the write ahead
//!   of it, so the *time* cost of eviction is preserved.
//! * Swap-in read-ahead only pulls pages of the faulting process. Linux
//!   2.2 read clusters regardless of owner; since batch evictions are
//!   per-process, contiguous swap runs essentially always belong to one
//!   process anyway.

#![warn(missing_docs)]

pub mod kernel;
pub mod ptable;
pub mod swap;
pub mod types;

pub use kernel::{EvictOutcome, Kernel, MapInOutcome, TouchOutcome, Toucher};
pub use ptable::{PageState, PageTable, Resident};
pub use swap::SwapSpace;
pub use types::{MemError, PageNum, ProcId, VmParams};
