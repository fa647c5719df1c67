//! # agp-obs — structured simulation-event tracing
//!
//! The paper's entire argument is about *when* paging I/O happens relative
//! to the quantum boundary (Fig. 6's activity traces, §4.1's
//! switching-overhead decomposition). The run-level aggregates
//! (`EngineStats`, `ActivityTrace`) cannot see inside a single gang
//! switch; this crate provides the event-level view:
//!
//! * [`ObsEvent`] — a typed, sim-time-stamped event taxonomy covering the
//!   fault path, eviction/reclaim, the four adaptive-paging policies, the
//!   background writer, the paging disk, barriers, and the switch
//!   protocol's four phases (STOP → page-out → page-in → CONT);
//! * [`Observer`] / [`ObsLink`] — the emission seam. Instrumented
//!   components hold an [`ObsLink`]; a link with no sinks is the no-op
//!   default whose `emit` is a single branch and never constructs the
//!   event (the closure argument is not called), so the hot path pays
//!   nothing when tracing is off;
//! * [`Collector`] — an aggregating sink: the counts only the event
//!   stream carries ([`ObsCounters`]: events, background bursts, gauge
//!   samples, fault-recovery actions), log2 latency histograms (switch
//!   duration, fault service time, disk wait/service, barrier skew) and a
//!   per-switch [`SwitchRecord`] decomposing each gang switch into its
//!   four phases. Paging and disk counts are the run's own: read them
//!   from its `RunResult`;
//! * [`RingBuffer`] — a last-K sink with an exact drop count, behind
//!   `agp sim --obs-budget` and the flight recorder (truncation is never
//!   silent);
//! * [`JsonlWriter`] — a line-per-event exporter whose output is
//!   **byte-identical for identical seeds** (hand-rolled encoding with a
//!   fixed field order; no float formatting), turning the simulator's
//!   determinism guarantee into a diffable artifact. [`trace_diff`]
//!   pinpoints the first divergent event between two such streams;
//! * [`flight`] — the black-box incident dump: a run's flight recorder
//!   is a [`RingBuffer`] of its last [`flight::RING_EVENTS`] events in
//!   its own fanout, and an aborted run freezes it into a
//!   byte-deterministic dump for `agp postmortem`.
//!
//! The crate holds no process-global state: every sink, clock and ring
//! belongs to the one link or run it was created for, so runs fanned out
//! over worker threads cannot see each other's events.
//!
//! ## Source tags
//!
//! Every delivered event carries a `src` tag identifying the emitting
//! component: the node index for kernel/engine/disk events, the job index
//! for barrier events, and [`SRC_CLUSTER`] for cluster-level events
//! (switch phases, fault service times).
//!
//! ## Zero dependencies
//!
//! Only `agp-sim` (for [`agp_sim::SimTime`]) and `agp-perf` (for the
//! shared [`LatencyHistogram`] and the `obs.emit` span); no serde, no
//! external crates. The JSONL encoding is hand-rolled precisely so that
//! byte stability is owned by this crate and not by a serializer's
//! formatting choices.

#![warn(missing_docs)]

mod collector;
mod event;
pub mod flight;
mod observer;
mod sink;

pub use agp_perf::LatencyHistogram;
pub use collector::{Collector, ObsCounters, SwitchRecord};
pub use event::{ObsEvent, SwitchPhaseKind, WatchdogRule, SRC_CLUSTER};
pub use observer::{shared, ObsLink, Observer, SharedSink};
pub use sink::{
    trace_diff, JsonlWriter, RingBuffer, TraceDivergence, TracedEvent, DIFF_CONTEXT_LINES,
};
