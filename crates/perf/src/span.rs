//! The static span registry.
//!
//! Every instrumented hot path in the workspace is named here, once, so
//! that span ids are dense `usize` indices (per-span aggregation is an
//! array lookup, not a map probe) and every surface — the `agp perf`
//! table, collapsed stacks, the BENCH manifest — agrees on the taxonomy.
//!
//! Naming convention: `<layer>.<operation>`, where the layer matches the
//! crate doing the work (`sim` = the cluster event loop, `mem` = the
//! kernel/paging engine, `disk`/`net` = device models, `obs` = event
//! emission). [`Span::Run`] is the root: it encloses one complete
//! `ClusterSim::run` and is what per-span exclusive times tile against.

/// One instrumented code region. The discriminant is the dense span id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Span {
    /// The whole simulation run (root span; encloses the event loop).
    Run = 0,
    /// `Event::Dispatch` handling: process execution until block/yield.
    SimDispatch = 1,
    /// `Event::IoDone` handling: fault-I/O completion wakeups.
    SimIoDone = 2,
    /// `Event::QuantumExpire` handling: gang-scheduler rotation decisions.
    SimQuantum = 3,
    /// `Event::BarrierRelease` / `Event::BarrierRetry` handling.
    SimBarrier = 4,
    /// `Event::BgStart` / `Event::BgTick` handling: background writing.
    SimBgWrite = 5,
    /// `Event::Chaos` handling: timed fault application.
    SimChaos = 6,
    /// `Event::Sample` handling: telemetry gauge sampling.
    SimSample = 7,
    /// One coordinated gang switch (`do_switch`), whatever triggered it.
    SimSwitch = 8,
    /// `Kernel::touch_run`: page-table walk + reference bookkeeping.
    MemTouch = 9,
    /// `PagingEngine::on_fault`: fault service planning (eviction,
    /// readahead, replay).
    MemFault = 10,
    /// `PagingEngine::adaptive_page_out` at the switch boundary.
    MemPageOut = 11,
    /// `PagingEngine::adaptive_page_in` at the switch boundary.
    MemPageIn = 12,
    /// `PagingEngine::free_pages`: explicit reclaim (memory pressure).
    MemReclaim = 13,
    /// `PagingEngine::bgwrite_tick`: background-writer burst planning.
    MemBgTick = 14,
    /// `Disk::submit` (and its slowed/failing variants): extent pricing.
    DiskSubmit = 15,
    /// `Barrier::arrive`: barrier bookkeeping + skew computation.
    NetBarrier = 16,
    /// `ObsLink` delivery: constructing + fanning out one `ObsEvent`.
    ObsEmit = 17,
}

/// Number of registered spans (array-aggregate size).
pub const SPAN_COUNT: usize = 18;

/// Every span, in id order.
pub const ALL_SPANS: [Span; SPAN_COUNT] = [
    Span::Run,
    Span::SimDispatch,
    Span::SimIoDone,
    Span::SimQuantum,
    Span::SimBarrier,
    Span::SimBgWrite,
    Span::SimChaos,
    Span::SimSample,
    Span::SimSwitch,
    Span::MemTouch,
    Span::MemFault,
    Span::MemPageOut,
    Span::MemPageIn,
    Span::MemReclaim,
    Span::MemBgTick,
    Span::DiskSubmit,
    Span::NetBarrier,
    Span::ObsEmit,
];

impl Span {
    /// The dense id (index into per-span aggregate arrays).
    #[inline]
    pub fn id(self) -> usize {
        self as usize
    }

    /// The stable dotted name used by every exposition surface.
    pub fn name(self) -> &'static str {
        match self {
            Span::Run => "sim.run",
            Span::SimDispatch => "sim.dispatch",
            Span::SimIoDone => "sim.io_done",
            Span::SimQuantum => "sim.quantum",
            Span::SimBarrier => "sim.barrier",
            Span::SimBgWrite => "sim.bg_write",
            Span::SimChaos => "sim.chaos",
            Span::SimSample => "sim.sample",
            Span::SimSwitch => "sim.switch",
            Span::MemTouch => "mem.touch_run",
            Span::MemFault => "mem.fault",
            Span::MemPageOut => "mem.page_out",
            Span::MemPageIn => "mem.page_in",
            Span::MemReclaim => "mem.reclaim",
            Span::MemBgTick => "mem.bg_tick",
            Span::DiskSubmit => "disk.submit",
            Span::NetBarrier => "net.barrier",
            Span::ObsEmit => "obs.emit",
        }
    }

    /// Look a span up by dense id.
    pub fn from_id(id: usize) -> Option<Span> {
        ALL_SPANS.get(id).copied()
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_dense_and_named_uniquely() {
        let mut names = Vec::new();
        for (i, s) in ALL_SPANS.iter().enumerate() {
            assert_eq!(s.id(), i, "span {s} has a non-dense id");
            assert_eq!(Span::from_id(i), Some(*s));
            names.push(s.name());
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate span names");
        assert_eq!(Span::from_id(SPAN_COUNT), None);
    }

    #[test]
    fn names_follow_the_layer_dot_op_convention() {
        for s in ALL_SPANS {
            let name = s.name();
            assert!(
                name.split('.').count() == 2
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_'),
                "bad span name {name}"
            );
        }
    }
}
