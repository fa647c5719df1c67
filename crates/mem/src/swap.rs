//! Swap-space allocator.
//!
//! A bitmap with one bit per block, set while the block is allocated.
//! Allocation is first-fit over the maximal free runs in block order, so
//! batch allocations (whole-working-set page-outs) carve large contiguous
//! runs, which is what later makes block page-in cheap — the same
//! dependence on swap layout that real block-paging systems exploit
//! (paper §1, VM/HPO reference \[6\]). Freeing is a bit clear: every write
//! to a page with a clean swap copy frees that copy (the Linux swap-cache
//! rule), so frees sit on the touch path and must cost O(1).

use crate::ptable::word_spans;
use crate::types::MemError;
use agp_disk::Extent;

/// Allocator over `[0, total)` swap blocks.
#[derive(Clone, Debug)]
pub struct SwapSpace {
    /// Bit `b % 64` of word `b / 64` is set while block `b` is allocated.
    /// The vector grows to the highest block ever allocated; blocks past
    /// its end are free.
    used: Vec<u64>,
    free_blocks: u64,
    total: u64,
}

impl SwapSpace {
    /// A fully free swap device of `total` blocks. Allocates nothing.
    pub fn new(total: u64) -> Self {
        SwapSpace {
            used: Vec::new(),
            free_blocks: total,
            total,
        }
    }

    /// Device size in blocks.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Blocks currently unallocated.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// Blocks currently allocated.
    pub fn used_blocks(&self) -> u64 {
        self.total - self.free_blocks
    }

    /// Whether `block` is allocated.
    pub fn is_allocated(&self, block: u64) -> bool {
        self.used
            .get((block / 64) as usize)
            .is_some_and(|&w| w & (1 << (block % 64)) != 0)
    }

    /// Allocate `n` blocks, preferring contiguity: the first maximal free
    /// run that fits the whole request is used; otherwise the request is
    /// satisfied by concatenating the largest-first free runs (ties go to
    /// the higher start).
    ///
    /// Returns the allocated extents sorted by start. Each lies in a
    /// different maximal free run, so no two are adjacent: handing out
    /// their blocks in order and keeping a prefix (`keep_prefix`)
    /// yields already coalesced extents. Fails with
    /// [`MemError::SwapFull`] if fewer than `n` blocks are free, in which
    /// case nothing is allocated.
    pub fn alloc(&mut self, n: u64) -> Result<Vec<Extent>, MemError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        if n > self.free_blocks {
            return Err(MemError::SwapFull {
                wanted: n,
                free: self.free_blocks,
            });
        }
        // First-fit for a single run that covers the request.
        let fit = self.runs().find(|&(_, len)| len >= n);
        if let Some((start, _)) = fit {
            self.take(start, n);
            return Ok(vec![Extent::new(start, n)]);
        }
        // Fragmented path: grab largest runs first to minimize the number
        // of pieces.
        let mut by_len: Vec<(u64, u64)> = self.runs().map(|(s, l)| (l, s)).collect();
        by_len.sort_unstable_by(|a, b| b.cmp(a));
        let mut out = Vec::new();
        let mut remaining = n;
        for (len, start) in by_len {
            if remaining == 0 {
                break;
            }
            let take = len.min(remaining);
            self.take(start, take);
            out.push(Extent::new(start, take));
            remaining -= take;
        }
        debug_assert_eq!(remaining, 0);
        out.sort_unstable_by_key(|e| e.start);
        Ok(out)
    }

    /// Mark the free blocks `start..start + n` allocated.
    fn take(&mut self, start: u64, n: u64) {
        let end = start + n;
        let words = end.div_ceil(64) as usize;
        if words > self.used.len() {
            self.used.resize(words, 0);
        }
        for (w, m) in word_spans(start as usize, end as usize) {
            self.used[w] |= m;
        }
        self.free_blocks -= n;
    }

    /// Keep the first `used` blocks of an allocation from [`Self::alloc`],
    /// in block order, and free the rest. Returns the kept extents.
    pub(crate) fn keep_prefix(&mut self, mut extents: Vec<Extent>, used: u64) -> Vec<Extent> {
        let mut left = used;
        extents.retain_mut(|e| {
            let keep = left.min(e.len);
            self.free_extent(Extent::new(e.start + keep, e.len - keep));
            e.len = keep;
            left -= keep;
            keep > 0
        });
        debug_assert_eq!(left, 0, "kept more blocks than allocated");
        extents
    }

    /// Return one block to the free pool.
    ///
    /// Panics (debug) on double-free — that is a simulation bug.
    pub fn free_block(&mut self, block: u64) {
        self.free_extent(Extent::new(block, 1));
    }

    /// Return an extent to the free pool.
    pub fn free_extent(&mut self, e: Extent) {
        if e.len == 0 {
            return;
        }
        debug_assert!(e.end() <= self.total, "free past end of swap");
        let spans = || word_spans(e.start as usize, e.end() as usize);
        debug_assert!(
            spans().all(|(w, m)| self.used.get(w).is_some_and(|&u| u & m == m)),
            "double free of swap extent {e:?}"
        );
        for (w, m) in spans() {
            if let Some(word) = self.used.get_mut(w) {
                *word &= !m;
            }
        }
        self.free_blocks += e.len;
    }

    /// The maximal free runs `(start, len)`, in block order.
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let start = self.seek(at, false);
            (start < self.total).then(|| {
                at = self.seek(start, true);
                (start, at - start)
            })
        })
    }

    /// The first block at or after `from` that is allocated (`used`) or
    /// free (`!used`); `total` if there is none.
    fn seek(&self, from: u64, used: bool) -> u64 {
        let flip = if used { 0 } else { !0 };
        let mut w = (from / 64) as usize;
        let mut keep = !0u64 << (from % 64);
        while let Some(&word) = self.used.get(w) {
            let bits = (word ^ flip) & keep;
            if bits != 0 {
                let b = w as u64 * 64 + u64::from(bits.trailing_zeros());
                return b.min(self.total);
            }
            w += 1;
            keep = !0;
        }
        // Every block past the bitmap is free.
        if used {
            self.total
        } else {
            (w as u64 * 64).max(from).min(self.total)
        }
    }

    /// Number of maximal free runs (fragmentation indicator, used in
    /// tests and metrics).
    pub fn fragments(&self) -> usize {
        self.runs().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_swap_allocates_contiguously() {
        let mut s = SwapSpace::new(1000);
        let a = s.alloc(100).unwrap();
        assert_eq!(a, vec![Extent::new(0, 100)]);
        let b = s.alloc(50).unwrap();
        assert_eq!(b, vec![Extent::new(100, 50)]);
        assert_eq!(s.used_blocks(), 150);
    }

    #[test]
    fn zero_alloc_is_empty() {
        let mut s = SwapSpace::new(10);
        assert!(s.alloc(0).unwrap().is_empty());
        assert_eq!(s.free_blocks(), 10);
    }

    #[test]
    fn alloc_failure_leaves_state_untouched() {
        let mut s = SwapSpace::new(10);
        let e = s.alloc(11).unwrap_err();
        assert_eq!(
            e,
            MemError::SwapFull {
                wanted: 11,
                free: 10
            }
        );
        assert_eq!(s.free_blocks(), 10);
        assert_eq!(s.fragments(), 1);
    }

    #[test]
    fn free_coalesces_both_sides() {
        let mut s = SwapSpace::new(100);
        let a = s.alloc(100).unwrap();
        assert_eq!(a.len(), 1);
        // Free three pieces out of order; they must merge back into one.
        s.free_extent(Extent::new(0, 30));
        s.free_extent(Extent::new(60, 40));
        s.free_extent(Extent::new(30, 30));
        assert_eq!(s.fragments(), 1);
        assert_eq!(s.free_blocks(), 100);
        // And the whole device is allocatable as one extent again.
        assert_eq!(s.alloc(100).unwrap(), vec![Extent::new(0, 100)]);
    }

    #[test]
    fn fragmented_alloc_spans_extents() {
        let mut s = SwapSpace::new(100);
        s.alloc(100).unwrap();
        // Free blocks 10..20 and 50..90 -> fragments of 10 and 40.
        s.free_extent(Extent::new(10, 10));
        s.free_extent(Extent::new(50, 40));
        let got = s.alloc(45).unwrap();
        // Must take the 40-run plus 5 from the 10-run, sorted by start.
        assert_eq!(got, vec![Extent::new(10, 5), Extent::new(50, 40)]);
        assert_eq!(s.free_blocks(), 5);
    }

    #[test]
    fn first_fit_prefers_single_extent() {
        let mut s = SwapSpace::new(100);
        s.alloc(100).unwrap();
        s.free_extent(Extent::new(0, 10)); // small first
        s.free_extent(Extent::new(40, 60)); // big later
        let got = s.alloc(20).unwrap();
        assert_eq!(
            got,
            vec![Extent::new(40, 20)],
            "skips too-small leading extent"
        );
    }

    #[test]
    fn keep_prefix_frees_the_tail() {
        // Holes 10..20 and 50..90; an allocation of 45 takes 10..15 and
        // 50..90.
        let fragmented = || {
            let mut s = SwapSpace::new(100);
            s.alloc(100).unwrap();
            s.free_extent(Extent::new(10, 10));
            s.free_extent(Extent::new(50, 40));
            let got = s.alloc(45).unwrap();
            assert_eq!(got, vec![Extent::new(10, 5), Extent::new(50, 40)]);
            (s, got)
        };
        // Cut inside the second extent: its tail goes back.
        let (mut s, got) = fragmented();
        assert_eq!(
            s.keep_prefix(got, 12),
            vec![Extent::new(10, 5), Extent::new(50, 7)]
        );
        assert_eq!(s.free_blocks(), 5 + 33);
        assert!(s.is_allocated(56) && !s.is_allocated(57));
        // Cut inside the first: the second goes back whole.
        let (mut s, got) = fragmented();
        assert_eq!(s.keep_prefix(got, 3), vec![Extent::new(10, 3)]);
        assert_eq!(s.free_blocks(), 47);
        assert_eq!(s.fragments(), 2);
        assert!(s.keep_prefix(Vec::new(), 0).is_empty());
    }

    #[test]
    fn free_single_blocks_then_reuse() {
        let mut s = SwapSpace::new(16);
        s.alloc(16).unwrap();
        for b in (0..16).step_by(2) {
            s.free_block(b);
        }
        assert_eq!(s.fragments(), 8);
        assert_eq!(s.free_blocks(), 8);
        let got = s.alloc(8).unwrap();
        assert_eq!(got.len(), 8, "fully fragmented allocation");
    }

    #[test]
    #[should_panic(expected = "double free")]
    #[cfg(debug_assertions)]
    fn double_free_panics_in_debug() {
        let mut s = SwapSpace::new(10);
        s.alloc(10).unwrap();
        s.free_block(3);
        s.free_block(3);
    }

    #[test]
    fn empty_device() {
        let mut s = SwapSpace::new(0);
        assert_eq!(s.total(), 0);
        assert!(s.alloc(1).is_err());
        assert_eq!(s.fragments(), 0);
        assert!(!s.is_allocated(0));
    }

    #[test]
    fn bitmap_grows_to_the_highest_block() {
        let mut s = SwapSpace::new(512 * 1024);
        assert_eq!(s.used.capacity(), 0, "nothing allocated up front");
        assert_eq!(s.fragments(), 1);
        assert_eq!(s.alloc(1).unwrap(), vec![Extent::new(0, 1)]);
        assert_eq!(s.used.len(), 1);
        assert_eq!(s.alloc(100).unwrap(), vec![Extent::new(1, 100)]);
        assert_eq!(s.used.len(), 2);
        assert!(s.is_allocated(100) && !s.is_allocated(101));
        assert!(!s.is_allocated(512 * 1024), "past the device");
    }

    #[test]
    fn runs_span_word_edges() {
        let mut s = SwapSpace::new(200);
        s.alloc(200).unwrap();
        // Holes of 10 (60..70) and 5 (126..131, across the second edge).
        s.free_extent(Extent::new(60, 10));
        s.free_extent(Extent::new(126, 5));
        assert_eq!(s.fragments(), 2);
        assert!(!s.is_allocated(127) && s.is_allocated(131));
        assert_eq!(
            s.alloc(12).unwrap(),
            vec![Extent::new(60, 10), Extent::new(126, 2)]
        );
        // The rest of the hole and the tail past the last word edge
        // coalesce into one run.
        s.free_extent(Extent::new(131, 69));
        assert_eq!(s.fragments(), 1);
        assert_eq!(s.alloc(72).unwrap(), vec![Extent::new(128, 72)]);
        assert_eq!(s.free_blocks(), 0);
        assert_eq!(s.fragments(), 0);
    }
}
