//! The reference swap allocator: first-fit over a map of coalesced free
//! extents, written the plain way. The kernel's bitmap `SwapSpace` must
//! hand out exactly the extents this does, since its maximal free runs
//! are this map's extents.

use agp_disk::Extent;
use agp_mem::{MemError, SwapSpace};
use std::collections::BTreeMap;

/// Allocator over `[0, total)` swap blocks.
pub struct ExtentSwap {
    /// Free extents keyed by start block; invariants: disjoint, coalesced
    /// (no two adjacent extents), lengths ≥ 1.
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
    total: u64,
}

impl ExtentSwap {
    pub fn new(total: u64) -> Self {
        let mut free = BTreeMap::new();
        if total > 0 {
            free.insert(0, total);
        }
        ExtentSwap {
            free,
            free_blocks: total,
            total,
        }
    }

    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    pub fn used_blocks(&self) -> u64 {
        self.total - self.free_blocks
    }

    pub fn fragments(&self) -> usize {
        self.free.len()
    }

    pub fn is_allocated(&self, block: u64) -> bool {
        let mut before = self.free.range(..=block);
        let in_free = before.next_back().filter(|&(&s, &l)| block < s + l);
        block < self.total && in_free.is_none()
    }

    /// First free extent that fits all `n` blocks; otherwise the largest
    /// extents first (ties to the higher start), returned sorted by start.
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
        if let Some((&start, &len)) = self.free.iter().find(|&(_, &len)| len >= n) {
            self.take(start, len, n);
            return Ok(vec![Extent::new(start, n)]);
        }
        let mut by_len: Vec<(u64, u64)> = self.free.iter().map(|(&s, &l)| (l, s)).collect();
        by_len.sort_unstable_by(|a, b| b.cmp(a));
        let mut out = Vec::new();
        let mut remaining = n;
        for (len, start) in by_len {
            if remaining == 0 {
                break;
            }
            let take = len.min(remaining);
            self.take(start, len, take);
            out.push(Extent::new(start, take));
            remaining -= take;
        }
        out.sort_unstable_by_key(|e| e.start);
        Ok(out)
    }

    /// Carve `take` blocks from the front of free extent `(start, len)`.
    fn take(&mut self, start: u64, len: u64, take: u64) {
        self.free.remove(&start);
        if take < len {
            self.free.insert(start + take, len - take);
        }
        self.free_blocks -= take;
    }

    pub fn free_block(&mut self, block: u64) {
        self.free_extent(Extent::new(block, 1));
    }

    /// Return an extent, coalescing with both neighbors.
    pub fn free_extent(&mut self, e: Extent) {
        if e.len == 0 {
            return;
        }
        assert!(
            (e.start..e.end()).all(|b| self.is_allocated(b)),
            "reference: double free of {e:?}"
        );
        let (mut start, mut len) = (e.start, e.len);
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        if let Some((&ns, &nl)) = self.free.range(start + len..).next() {
            if start + len == ns {
                self.free.remove(&ns);
                len += nl;
            }
        }
        self.free.insert(start, len);
        self.free_blocks += e.len;
    }
}

/// Device sizes the allocator tests run on: empty, one block, and each
/// side of the first word edge.
pub const DEVICES: [u64; 6] = [0, 1, 63, 64, 65, 4096];

/// One allocator operation. The free operations pick from the blocks the
/// test holds (`pick`, `at` and `len` are reduced against them), so any
/// values form a valid operation; with nothing held they do nothing.
#[derive(Clone, Debug)]
pub enum SwapOp {
    /// `alloc(n)`.
    Alloc(u64),
    /// `free_extent` of one held block.
    FreeBlock { pick: usize, at: u64 },
    /// `free_extent` of part of one held extent.
    FreeExtent { pick: usize, at: u64, len: u64 },
}

impl SwapOp {
    /// Decode an operation from raw draws: `kind` picks the variant.
    pub fn from_raw(kind: u8, n: u64, pick: usize, at: u64, len: u64) -> SwapOp {
        match kind % 3 {
            0 => SwapOp::Alloc(n % 300),
            1 => SwapOp::FreeBlock { pick, at },
            _ => SwapOp::FreeExtent { pick, at, len },
        }
    }
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, bitmap: T, reference: T) -> Result<(), String> {
    if bitmap == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: bitmap {bitmap:?}, reference {reference:?}"
        ))
    }
}

/// Take `at..at + len` (reduced to fit) out of held extent `pick`, leaving
/// what remains of it held. Returns the removed extent; `len` 0 takes one
/// block.
pub fn release(held: &mut Vec<Extent>, pick: usize, at: u64, len: u64) -> Option<Extent> {
    if held.is_empty() {
        return None;
    }
    let h = held.swap_remove(pick % held.len());
    let start = h.start + at % h.len;
    let len = 1 + len % (h.end() - start);
    let gone = Extent::new(start, len);
    held.extend(
        [
            Extent::new(h.start, start - h.start),
            Extent::new(gone.end(), h.end() - gone.end()),
        ]
        .into_iter()
        .filter(|e| e.len > 0),
    );
    Some(gone)
}

/// Apply `ops` to a bitmap [`SwapSpace`] and an [`ExtentSwap`] of `total`
/// blocks; fail at the first step where a result, `free_blocks`,
/// `fragments` or the allocation state of a block they touched differs.
/// At the end every block, and one past the device, must agree.
pub fn check_swap_ops(total: u64, ops: &[SwapOp]) -> Result<(), String> {
    let mut bitmap = SwapSpace::new(total);
    let mut reference = ExtentSwap::new(total);
    let mut held: Vec<Extent> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let at = |e: String| format!("step {step} {op:?}: {e}");
        let touched = match *op {
            SwapOp::Alloc(n) => {
                let got = bitmap.alloc(n);
                same("alloc", &got, &reference.alloc(n)).map_err(at)?;
                let got = got.unwrap_or_default();
                held.extend(&got);
                got
            }
            SwapOp::FreeBlock { pick, at: off } => {
                let gone = release(&mut held, pick, off, 0);
                if let Some(e) = gone {
                    bitmap.free_extent(Extent::new(e.start, 1));
                    reference.free_block(e.start);
                }
                gone.into_iter().collect()
            }
            SwapOp::FreeExtent { pick, at: off, len } => {
                let gone = release(&mut held, pick, off, len);
                if let Some(e) = gone {
                    bitmap.free_extent(e);
                    reference.free_extent(e);
                }
                gone.into_iter().collect()
            }
        };
        same("free_blocks", bitmap.free_blocks(), reference.free_blocks()).map_err(at)?;
        same("fragments", bitmap.fragments(), reference.fragments()).map_err(at)?;
        for b in touched.iter().flat_map(|e| [e.start, e.end() - 1]) {
            same(
                &format!("block {b} allocated"),
                bitmap.is_allocated(b),
                reference.is_allocated(b),
            )
            .map_err(at)?;
        }
    }
    for b in 0..=total {
        same(
            &format!("block {b} allocated at the end"),
            bitmap.is_allocated(b),
            reference.is_allocated(b),
        )?;
    }
    Ok(())
}
