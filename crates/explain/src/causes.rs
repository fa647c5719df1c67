//! The stable cause taxonomy every critical-path microsecond is bucketed
//! into, and the fixed-size accumulator that keeps cause totals exact.
//!
//! The names are part of the `agp explain` JSON schema: they are emitted
//! verbatim (snake_case, in declaration order) and pinned by the golden
//! test, so renaming or reordering a variant is a schema change.

use std::fmt;

/// Where a slice of switch critical-path time went.
///
/// The first seven causes are the slices of a switch's critical request
/// chain (§3.2 of the paper's switch protocol: drain page-out writes,
/// then drain page-in reads). [`Cause::Other`] absorbs any remainder the
/// recorded disk requests cannot explain, so per-switch buckets always
/// sum to the switch latency exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// A page-out write sat in the disk FIFO behind earlier requests.
    PageoutQueueWait,
    /// Head movement before a page-out write's transfer.
    PageoutSeek,
    /// Raw data transfer of a page-out write.
    PageoutTransfer,
    /// A page-in read waited while interleaved page-out writes drained
    /// (the §3.2 "interleaved page-out" phase ahead of it in the queue).
    InterleavedPageoutWait,
    /// A page-in read sat in the disk FIFO beyond the page-out drain.
    PageinQueueWait,
    /// Head movement before a page-in read's transfer.
    PageinSeek,
    /// Raw data transfer of a page-in read.
    PageinTransfer,
    /// Injected disk errors at the switch edge: device time burned by
    /// failing attempts plus the retry backoff the recovery policy
    /// waited (chaos runs only — always zero on a fault-free run).
    FaultIoError,
    /// Injected disk latency spikes that inflated switch-edge request
    /// service times (chaos runs only).
    FaultDiskSlow,
    /// Critical-path time the recorded requests cannot account for.
    Other,
}

impl Cause {
    /// Every cause, in the (stable) schema order.
    pub const ALL: [Cause; 10] = [
        Cause::PageoutQueueWait,
        Cause::PageoutSeek,
        Cause::PageoutTransfer,
        Cause::InterleavedPageoutWait,
        Cause::PageinQueueWait,
        Cause::PageinSeek,
        Cause::PageinTransfer,
        Cause::FaultIoError,
        Cause::FaultDiskSlow,
        Cause::Other,
    ];

    /// The fault-free causes — the report schema before chaos existed.
    /// Reports emit these unconditionally and the fault causes only when
    /// nonzero, so fault-free explain JSON is byte-identical to the
    /// pre-chaos golden.
    pub const CORE: [Cause; 8] = [
        Cause::PageoutQueueWait,
        Cause::PageoutSeek,
        Cause::PageoutTransfer,
        Cause::InterleavedPageoutWait,
        Cause::PageinQueueWait,
        Cause::PageinSeek,
        Cause::PageinTransfer,
        Cause::Other,
    ];

    /// Whether this cause comes from the fault-injection taxonomy.
    pub fn is_fault(self) -> bool {
        matches!(self, Cause::FaultIoError | Cause::FaultDiskSlow)
    }

    /// The stable snake_case schema name.
    pub fn name(self) -> &'static str {
        match self {
            Cause::PageoutQueueWait => "pageout_queue_wait",
            Cause::PageoutSeek => "pageout_seek",
            Cause::PageoutTransfer => "pageout_transfer",
            Cause::InterleavedPageoutWait => "interleaved_pageout_wait",
            Cause::PageinQueueWait => "pagein_queue_wait",
            Cause::PageinSeek => "pagein_seek",
            Cause::PageinTransfer => "pagein_transfer",
            Cause::FaultIoError => "fault_io_error",
            Cause::FaultDiskSlow => "fault_disk_slow",
            Cause::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Cause::PageoutQueueWait => 0,
            Cause::PageoutSeek => 1,
            Cause::PageoutTransfer => 2,
            Cause::InterleavedPageoutWait => 3,
            Cause::PageinQueueWait => 4,
            Cause::PageinSeek => 5,
            Cause::PageinTransfer => 6,
            Cause::FaultIoError => 7,
            Cause::FaultDiskSlow => 8,
            Cause::Other => 9,
        }
    }
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Microseconds attributed to each [`Cause`], iterated in schema order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CauseBuckets {
    us: [u64; 10],
}

impl CauseBuckets {
    /// All-zero buckets.
    pub fn new() -> Self {
        CauseBuckets::default()
    }

    /// Add `us` microseconds to `cause`.
    pub fn add(&mut self, cause: Cause, us: u64) {
        self.us[cause.index()] += us;
    }

    /// Microseconds currently attributed to `cause`.
    pub fn get(&self, cause: Cause) -> u64 {
        self.us[cause.index()]
    }

    /// Sum over every bucket; equals the switch latency for per-switch
    /// buckets (asserted by the explain golden test).
    pub fn total_us(&self) -> u64 {
        self.us.iter().sum()
    }

    /// Move up to `us` microseconds from `from` to `to`, clamped to what
    /// `from` actually holds so the bucket total is preserved exactly.
    /// Returns the amount moved.
    pub fn reassign(&mut self, from: Cause, to: Cause, us: u64) -> u64 {
        let moved = us.min(self.us[from.index()]);
        self.us[from.index()] -= moved;
        self.us[to.index()] += moved;
        moved
    }

    /// Fold another set of buckets into this one.
    pub fn merge(&mut self, other: &CauseBuckets) {
        for (a, b) in self.us.iter_mut().zip(other.us.iter()) {
            *a += b;
        }
    }

    /// `(cause, us)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, u64)> + '_ {
        Cause::ALL.iter().map(move |&c| (c, self.us[c.index()]))
    }

    /// The cause holding the most time (first in schema order on ties),
    /// or `None` when every bucket is zero.
    pub fn dominant(&self) -> Option<Cause> {
        let mut best: Option<(Cause, u64)> = None;
        for (c, us) in self.iter() {
            if us > 0 && best.map(|(_, b)| us > b).unwrap_or(true) {
                best = Some((c, us));
            }
        }
        best.map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_in_order() {
        let names: Vec<_> = Cause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "pageout_queue_wait",
                "pageout_seek",
                "pageout_transfer",
                "interleaved_pageout_wait",
                "pagein_queue_wait",
                "pagein_seek",
                "pagein_transfer",
                "fault_io_error",
                "fault_disk_slow",
                "other",
            ]
        );
        let core: Vec<_> = Cause::CORE.iter().map(|c| c.name()).collect();
        assert!(!core.iter().any(|n| n.starts_with("fault_")));
        assert_eq!(core.len() + 2, Cause::ALL.len());
    }

    #[test]
    fn reassign_is_clamped_and_total_preserving() {
        let mut b = CauseBuckets::new();
        b.add(Cause::Other, 100);
        assert_eq!(b.reassign(Cause::Other, Cause::FaultIoError, 60), 60);
        assert_eq!(b.reassign(Cause::Other, Cause::FaultDiskSlow, 90), 40);
        assert_eq!(b.get(Cause::Other), 0);
        assert_eq!(b.get(Cause::FaultIoError), 60);
        assert_eq!(b.get(Cause::FaultDiskSlow), 40);
        assert_eq!(b.total_us(), 100);
    }

    #[test]
    fn buckets_sum_and_merge() {
        let mut a = CauseBuckets::new();
        a.add(Cause::PageinSeek, 5);
        a.add(Cause::Other, 7);
        let mut b = CauseBuckets::new();
        b.add(Cause::PageinSeek, 3);
        b.merge(&a);
        assert_eq!(b.get(Cause::PageinSeek), 8);
        assert_eq!(b.total_us(), 15);
        assert_eq!(b.dominant(), Some(Cause::PageinSeek));
        assert_eq!(CauseBuckets::new().dominant(), None);
    }
}
