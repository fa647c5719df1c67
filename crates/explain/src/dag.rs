//! The per-switch critical path: the longest request chain.
//!
//! Every gang switch submits its selective/aggressive page-out writes and
//! its adaptive page-in replay reads to the per-node disk FIFOs in the
//! same simulated instant; the switch completes when the last of those
//! requests drains (§3.2). Each observed
//! [`agp_obs::ObsEvent::DiskRequest`] is one chain from the switch
//! instant — `queue wait → seek → transfer`, `wait_us + max(seek_us,
//! service_us)` long — and no chain waits on another: FIFO order is
//! already inside each request's `wait_us`. The switch's critical path
//! is therefore its single longest chain, and [`SwitchRequests`] keeps
//! only the longest write and the longest read as requests arrive.
//!
//! The path is then *attributed*: clamped or padded against the switch
//! latency the simulator actually reported, walking backwards from the
//! completion so the terminal transfer stays intact and any unexplained
//! remainder lands in [`Cause::Other`]. The resulting segments always
//! sum to the reported latency exactly — the invariant the explain
//! golden test pins against `agp profile`.

use crate::causes::Cause;

/// One disk request observed at a switch instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqInfo {
    /// Analyzer-local sequence number of the `DiskRequest` event.
    pub seq: u64,
    /// Emitting node index.
    pub src: u32,
    /// Write (page-out) vs read (page-in replay).
    pub write: bool,
    /// Pages moved.
    pub pages: u64,
    /// FIFO queue wait ahead of service, µs.
    pub wait_us: u64,
    /// Seek portion of the service time, µs.
    pub seek_us: u64,
    /// Total service time (seek + transfer), µs.
    pub service_us: u64,
}

impl ReqInfo {
    /// Length of the request's chain from the switch instant, µs.
    pub fn chain_us(&self) -> u64 {
        self.wait_us + self.seek_us.max(self.service_us)
    }
}

/// One critical-path slice: `dur_us` microseconds attributed to `cause`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Why this slice of the switch took time.
    pub cause: Cause,
    /// Slice length, µs.
    pub dur_us: u64,
}

/// The disk requests submitted at one switch instant, reduced to what
/// the critical path and the dirty-flush-storm diagnostic read.
#[derive(Clone, Copy, Debug, Default)]
pub struct SwitchRequests {
    /// Earliest longest write.
    write: Option<ReqInfo>,
    /// Earliest longest read.
    read: Option<ReqInfo>,
    /// Pages moved by all writes.
    pub write_pages: u64,
    /// Write requests.
    pub writes: u64,
}

/// The critical path of one switch.
#[derive(Default)]
pub struct CriticalPath {
    /// Path slices in temporal order (zero-length slices dropped).
    pub segments: Vec<Segment>,
    /// Provenance of the terminal request, e.g.
    /// `"read req#1042 (node 0, 32 pages)"`; empty when no request
    /// chain is longer than 0.
    pub terminal: String,
}

impl SwitchRequests {
    /// Record one request, in observation order.
    pub fn push(&mut self, r: ReqInfo) {
        let longest = if r.write {
            self.write_pages += r.pages;
            self.writes += 1;
            &mut self.write
        } else {
            &mut self.read
        };
        if !longest.is_some_and(|l| l.chain_us() >= r.chain_us()) {
            *longest = Some(r);
        }
    }

    /// The critical path: the slices of its terminal request, which is
    /// the earliest longest write, unless some read is strictly longer,
    /// then the earliest longest read. There is none when no chain is
    /// longer than 0.
    ///
    /// `pageout_us` is the reported page-out phase length; it splits a
    /// read's queue wait into the interleaved-page-out portion and the
    /// residual page-in queue wait.
    pub fn critical_path(&self, pageout_us: u64) -> CriticalPath {
        let write = self.write.filter(|w| w.chain_us() > 0);
        let terminal = match self.read {
            Some(r) if r.chain_us() > write.map_or(0, |w| w.chain_us()) => Some(r),
            _ => write,
        };
        let Some(r) = terminal else {
            return CriticalPath::default();
        };
        let mut segments = Vec::with_capacity(4);
        let mut slice = |cause, dur_us| {
            if dur_us > 0 {
                segments.push(Segment { cause, dur_us });
            }
        };
        let xfer = r.service_us.saturating_sub(r.seek_us);
        if r.write {
            slice(Cause::PageoutQueueWait, r.wait_us);
            slice(Cause::PageoutSeek, r.seek_us);
            slice(Cause::PageoutTransfer, xfer);
        } else {
            let interleaved = r.wait_us.min(pageout_us);
            slice(Cause::InterleavedPageoutWait, interleaved);
            slice(Cause::PageinQueueWait, r.wait_us - interleaved);
            slice(Cause::PageinSeek, r.seek_us);
            slice(Cause::PageinTransfer, xfer);
        }
        CriticalPath {
            segments,
            terminal: format!(
                "{} req#{} (node {}, {} pages)",
                if r.write { "write" } else { "read" },
                r.seq,
                r.src,
                r.pages
            ),
        }
    }
}

impl CriticalPath {
    /// Reconcile the path against the switch latency the simulator
    /// reported, producing segments that sum to `total_us` *exactly*.
    ///
    /// Walking backwards from the completion, each segment keeps
    /// `min(remaining, len)` — so if stray same-instant requests made
    /// the path longer than the switch, the earliest (wait) slices are
    /// trimmed, and the terminal transfer survives. Any shortfall the
    /// requests cannot explain is prepended as [`Cause::Other`].
    pub fn attributed(&self, total_us: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut remaining = total_us;
        for s in self.segments.iter().rev() {
            if remaining == 0 {
                break;
            }
            let take = s.dur_us.min(remaining);
            out.push(Segment {
                cause: s.cause,
                dur_us: take,
            });
            remaining -= take;
        }
        if remaining > 0 {
            out.push(Segment {
                cause: Cause::Other,
                dur_us: remaining,
            });
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(seq: u64, wait: u64, seek: u64, service: u64) -> ReqInfo {
        ReqInfo {
            seq,
            src: 0,
            write: false,
            pages: 16,
            wait_us: wait,
            seek_us: seek,
            service_us: service,
        }
    }

    fn write(seq: u64, wait: u64, seek: u64, service: u64) -> ReqInfo {
        ReqInfo {
            write: true,
            ..read(seq, wait, seek, service)
        }
    }

    fn path(pageout_us: u64, reqs: &[ReqInfo]) -> CriticalPath {
        let mut s = SwitchRequests::default();
        for r in reqs {
            s.push(*r);
        }
        s.critical_path(pageout_us)
    }

    fn slices(segs: &[Segment]) -> Vec<(Cause, u64)> {
        segs.iter().map(|s| (s.cause, s.dur_us)).collect()
    }

    #[test]
    fn empty_dag_has_zero_critical_path() {
        let cp = path(0, &[]);
        assert!(cp.segments.is_empty());
        assert!(cp.terminal.is_empty());
        assert_eq!(cp.attributed(0), Vec::new());
    }

    #[test]
    fn read_terminal_path_splits_wait_at_the_pageout_boundary() {
        // One write draining 300us, one read queued 300us behind it
        // then 200us more, seek 50, transfer 450.
        let reqs = [write(1, 0, 100, 300), read(2, 500, 50, 500)];
        let cp = path(300, &reqs);
        assert_eq!(cp.terminal, "read req#2 (node 0, 16 pages)");
        let total = 1_000; // 500 wait + 500 service
        let segs = cp.attributed(total);
        let sum: u64 = segs.iter().map(|s| s.dur_us).sum();
        assert_eq!(sum, total);
        assert_eq!(
            segs.iter().map(|s| s.cause).collect::<Vec<_>>(),
            vec![
                Cause::InterleavedPageoutWait,
                Cause::PageinQueueWait,
                Cause::PageinSeek,
                Cause::PageinTransfer,
            ]
        );
        assert_eq!(segs[0].dur_us, 300);
        assert_eq!(segs[1].dur_us, 200);
        assert_eq!(segs[3].dur_us, 450);
    }

    #[test]
    fn write_terminal_path_uses_pageout_causes() {
        let reqs = [write(1, 120, 80, 400)];
        let segs = path(520, &reqs).attributed(520);
        assert_eq!(
            slices(&segs),
            vec![
                (Cause::PageoutQueueWait, 120),
                (Cause::PageoutSeek, 80),
                (Cause::PageoutTransfer, 320),
            ]
        );
    }

    #[test]
    fn shortfall_pads_other_and_excess_trims_waits() {
        let reqs = [read(1, 100, 10, 90)];
        // Simulator reports more than the requests explain.
        let padded = path(0, &reqs).attributed(250);
        assert_eq!(padded[0].cause, Cause::Other);
        assert_eq!(padded[0].dur_us, 60);
        assert_eq!(padded.iter().map(|s| s.dur_us).sum::<u64>(), 250);
        // Simulator reports less: the wait is trimmed, transfer intact.
        let trimmed = path(0, &reqs).attributed(120);
        assert_eq!(trimmed.iter().map(|s| s.dur_us).sum::<u64>(), 120);
        assert_eq!(trimmed.last().map(|s| s.cause), Some(Cause::PageinTransfer));
        assert_eq!(trimmed.last().map(|s| s.dur_us), Some(80));
    }

    #[test]
    fn longest_chain_wins_among_parallel_requests() {
        let reqs = [
            read(1, 0, 10, 200),
            read(2, 50, 20, 400), // 450 total — the critical one
            write(3, 0, 30, 100),
        ];
        let cp = path(100, &reqs);
        assert_eq!(cp.terminal, "read req#2 (node 0, 16 pages)");
        assert_eq!(cp.segments.iter().map(|s| s.dur_us).sum::<u64>(), 450);
    }

    #[test]
    fn an_equally_long_write_and_read_give_the_write() {
        let cp = path(0, &[read(1, 100, 0, 200), write(2, 0, 50, 300)]);
        assert_eq!(cp.terminal, "write req#2 (node 0, 16 pages)");
        assert_eq!(
            slices(&cp.segments),
            vec![(Cause::PageoutSeek, 50), (Cause::PageoutTransfer, 250)]
        );
    }

    #[test]
    fn equally_long_reads_give_the_earlier_one() {
        let cp = path(40, &[read(1, 100, 20, 200), read(2, 0, 10, 300)]);
        assert_eq!(cp.terminal, "read req#1 (node 0, 16 pages)");
        assert_eq!(
            slices(&cp.segments),
            vec![
                (Cause::InterleavedPageoutWait, 40),
                (Cause::PageinQueueWait, 60),
                (Cause::PageinSeek, 20),
                (Cause::PageinTransfer, 180),
            ]
        );
    }

    #[test]
    fn all_zero_requests_have_no_terminal() {
        let cp = path(0, &[write(1, 0, 0, 0), read(2, 0, 0, 0)]);
        assert!(cp.segments.is_empty());
        assert!(cp.terminal.is_empty());
        assert_eq!(
            cp.attributed(70),
            vec![Segment {
                cause: Cause::Other,
                dur_us: 70
            }]
        );
    }

    #[test]
    fn a_seek_longer_than_the_service_drops_the_transfer() {
        let cp = path(0, &[write(1, 5, 90, 60)]);
        assert_eq!(cp.terminal, "write req#1 (node 0, 16 pages)");
        assert_eq!(
            slices(&cp.segments),
            vec![(Cause::PageoutQueueWait, 5), (Cause::PageoutSeek, 90)]
        );
    }

    #[test]
    fn write_totals_count_every_write() {
        let mut s = SwitchRequests::default();
        for r in [write(1, 0, 0, 10), read(2, 0, 0, 99), write(3, 0, 0, 5)] {
            s.push(r);
        }
        assert_eq!((s.writes, s.write_pages), (2, 32));
    }
}
