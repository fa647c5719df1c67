//! Per-process page tables: page state, reference/dirty bits, age, and a
//! per-process clock hand for Linux-2.2-style sweeps.
//!
//! The table is a structure of arrays: a 4-byte swap-block slot and an
//! 8-byte age per page, plus `u64`-word bitsets for the resident,
//! referenced, dirty and touched-this-epoch bits (about 12.5 bytes per
//! page). Touch runs, clock sweeps and dirty sweeps work a word (64
//! pages) at a time.
//! [`PageTable::state`] decodes one page into a [`PageState`] for code
//! that wants the whole picture.

use crate::types::PageNum;
use agp_sim::{SimDur, SimTime};

/// Metadata for a page currently held in a physical frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resident {
    /// Hardware reference bit: set on every touch, cleared by clock sweeps.
    pub referenced: bool,
    /// Set on write touches; a dirty page must reach the swap device before
    /// its frame can be reused without losing data.
    pub dirty: bool,
    /// Instant of the most recent touch — the "age" used by the paper's
    /// selective page-out ("in the order of decreasing age", §3.1).
    pub last_ref: SimTime,
    /// Block of a still-valid swap copy, if one exists. A clean resident
    /// page with a valid copy can be reclaimed with **no** I/O (Linux's
    /// swap cache); a dirty page never holds one (a write frees it).
    pub swap_copy: Option<u64>,
    /// Whether the page was mapped in or touched in the current
    /// working-set epoch (see `Kernel` WSS tracking).
    pub in_epoch: bool,
}

/// State of one virtual page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Never touched: the first access demand-zeroes a frame, no disk I/O.
    Untouched,
    /// Held in a physical frame.
    Resident(Resident),
    /// Only on the swap device, at the given block.
    Swapped {
        /// Swap block holding the page image.
        block: u64,
    },
}

impl PageState {
    /// Whether the page occupies a frame.
    pub fn is_resident(&self) -> bool {
        matches!(self, PageState::Resident(_))
    }
}

/// A page's swap-block slot: `block + 1`, or [`NO_BLOCK`] for a page
/// with no swap image. Every block of a swap device of fewer than 2^32
/// blocks fits.
type BlockSlot = u32;

/// Slot of a page with no swap image. It is zero, so a fresh table's
/// slots come from zeroed memory and a page that never gets a block
/// costs no resident memory.
const NO_BLOCK: BlockSlot = 0;

const _: () = assert!(std::mem::size_of::<BlockSlot>() == 4);

/// Blocks a slot can address: `0..MAX_BLOCKS`.
const MAX_BLOCKS: u64 = BlockSlot::MAX as u64;

/// The slot holding `block`.
fn slot(block: u64) -> BlockSlot {
    debug_assert!(block < MAX_BLOCKS, "block {block} has no slot");
    (block + 1) as BlockSlot
}

/// The block held in `slot`, if any.
fn slot_block(slot: BlockSlot) -> Option<u64> {
    slot.checked_sub(1).map(u64::from)
}

/// Mask of bits `lo..hi` of one word (`lo <= hi <= 64`).
fn mask(lo: usize, hi: usize) -> u64 {
    if hi - lo == 64 {
        !0
    } else {
        ((1u64 << (hi - lo)) - 1) << lo
    }
}

/// Word index and in-range mask of every word covering pages `lo..hi`.
pub(crate) fn word_spans(lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> {
    (lo / 64..hi.div_ceil(64)).map(move |w| {
        let base = w * 64;
        (w, mask(lo.max(base) - base, hi.min(base + 64) - base))
    })
}

/// Length of the run of pages from `first`, at most `max`, whose bit in
/// `bits` equals `set`. Scans a word at a time.
fn bit_run(bits: &[u64], set: bool, first: usize, max: usize) -> usize {
    let end = first + max;
    let mut i = first;
    while i < end {
        let off = i % 64;
        let word = if set { !bits[i / 64] } else { bits[i / 64] };
        let run = ((word >> off).trailing_zeros() as usize).min(64 - off);
        i += run;
        if run < 64 - off {
            break;
        }
    }
    i.min(end) - first
}

/// Page numbers of the set bits of word `w`, ascending.
pub(crate) fn pages_of(w: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            w * 64 + b
        })
    })
}

/// Of the candidate bits `cand` (already limited to `lo..hi`), keep at
/// most `want`. Returns the kept bits and the end of the visited span,
/// which stops just past the last kept bit once `want` are kept.
fn take_bits(cand: u64, hi: usize, want: usize) -> (u64, usize) {
    if (cand.count_ones() as usize) < want {
        return (cand, hi);
    }
    let kept = low_bits(cand, want as u32);
    (kept, 64 - kept.leading_zeros() as usize)
}

/// The lowest `k` set bits of `bits` (all of them if it has fewer).
pub(crate) fn low_bits(bits: u64, k: u32) -> u64 {
    if k >= bits.count_ones() {
        return bits;
    }
    let mut rest = bits;
    for _ in 0..k {
        rest &= rest - 1;
    }
    bits & !rest
}

/// A page list as word masks `(w, bits)`, in list order: consecutive
/// entries that ascend within one word share a mask, so every entry is
/// one bit of exactly one mask. A list that does not ascend within a
/// word gives one mask per entry.
pub(crate) fn word_masks(pages: &[PageNum]) -> impl Iterator<Item = (usize, u64)> + '_ {
    let mut rest = pages;
    std::iter::from_fn(move || {
        let (&first, tail) = rest.split_first()?;
        let (w, mut last) = (first.idx() / 64, first.idx());
        let mut bits = 1u64 << (last % 64);
        let joined = tail
            .iter()
            .take_while(|p| {
                let next = p.idx() / 64 == w && p.idx() > last;
                if next {
                    last = p.idx();
                    bits |= 1 << (last % 64);
                }
                next
            })
            .count();
        rest = &tail[joined..];
        Some((w, bits))
    })
}

/// Coalesces blocks, pushed in turn, into runs of consecutive blocks,
/// and hands each run to `out` as `(first, len)` once it ends.
pub(crate) struct BlockRuns<F: FnMut(u64, u64)> {
    first: u64,
    len: u64,
    out: F,
}

impl<F: FnMut(u64, u64)> BlockRuns<F> {
    pub(crate) fn new(out: F) -> Self {
        BlockRuns {
            first: 0,
            len: 0,
            out,
        }
    }

    pub(crate) fn push(&mut self, block: u64) {
        if self.len > 0 && self.first + self.len == block {
            self.len += 1;
        } else {
            self.finish();
            (self.first, self.len) = (block, 1);
        }
    }

    /// Hand out the open run, if any.
    pub(crate) fn finish(&mut self) {
        if self.len > 0 {
            (self.out)(self.first, self.len);
            self.len = 0;
        }
    }
}

/// One process's page table plus bookkeeping counters.
#[derive(Clone, Debug)]
pub struct PageTable {
    /// Slot of the swap image of a swapped page, or of the clean copy of
    /// a resident page; [`NO_BLOCK`] when there is none.
    block: Vec<BlockSlot>,
    /// Instant of the most recent touch (meaningful while resident).
    last_ref: Vec<SimTime>,
    /// Residency bitset. The referenced and dirty bitsets are subsets of
    /// it: eviction clears both.
    present: Vec<u64>,
    referenced: Vec<u64>,
    dirty: Vec<u64>,
    /// Pages mapped in or touched since the last [`PageTable::new_epoch`]
    /// (meaningful while resident: `map_in` sets the bit again).
    seen: Vec<u64>,
    resident: usize,
    dirty_resident: usize,
    /// Persistent clock position for sweep-style scans, so repeated sweeps
    /// make progress instead of rescanning the same prefix (mirrors the
    /// kernel keeping `swap_address` per mm in Linux 2.2).
    hand: usize,
}

impl PageTable {
    /// A table of `n` untouched pages.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        PageTable {
            block: vec![NO_BLOCK; n],
            last_ref: vec![SimTime::ZERO; n],
            present: vec![0; words],
            referenced: vec![0; words],
            dirty: vec![0; words],
            seen: vec![0; words],
            resident: 0,
            dirty_resident: 0,
            hand: 0,
        }
    }

    /// Address-space size in pages.
    pub fn len(&self) -> usize {
        self.block.len()
    }

    /// Whether the address space is empty.
    pub fn is_empty(&self) -> bool {
        self.block.is_empty()
    }

    /// Number of pages currently resident (the process RSS).
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Number of resident pages whose frame content is newer than any swap
    /// copy.
    pub fn dirty_resident(&self) -> usize {
        self.dirty_resident
    }

    /// Current clock-hand position.
    pub fn hand(&self) -> usize {
        self.hand
    }

    fn bit(bits: &[u64], i: usize) -> bool {
        bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether page `p` occupies a frame.
    pub fn is_resident(&self, p: PageNum) -> bool {
        Self::bit(&self.present, p.idx())
    }

    /// Whether page `p` is resident and dirty.
    pub(crate) fn is_dirty(&self, p: PageNum) -> bool {
        Self::bit(&self.dirty, p.idx())
    }

    /// Swap block of page `p`: its image if swapped, its clean copy if
    /// resident.
    pub(crate) fn block(&self, p: PageNum) -> Option<u64> {
        slot_block(self.block[p.idx()])
    }

    /// Whether page `p` was never touched: not resident, no swap image.
    pub fn is_untouched(&self, p: PageNum) -> bool {
        !self.is_resident(p) && self.block[p.idx()] == NO_BLOCK
    }

    /// How many pages have been touched (are resident, or hold a swap
    /// image), counted a word at a time.
    pub(crate) fn touched(&self) -> usize {
        let held = |slots: &[BlockSlot]| {
            (0u32..)
                .zip(slots)
                .fold(0u64, |bits, (b, &s)| bits | u64::from(s != NO_BLOCK) << b)
        };
        self.present
            .iter()
            .zip(self.block.chunks(64))
            .map(|(&present, slots)| (present | held(slots)).count_ones() as usize)
            .sum()
    }

    /// How many of the `len` pages from `first` are not resident,
    /// counted a word at a time.
    pub fn absent(&self, first: PageNum, len: usize) -> usize {
        let held: u32 = word_spans(first.idx(), first.idx() + len)
            .map(|(w, m)| (self.present[w] & m).count_ones())
            .sum();
        len - held as usize
    }

    /// State of page `p`, decoded from the arrays.
    pub fn state(&self, p: PageNum) -> PageState {
        let i = p.idx();
        if self.is_resident(p) {
            PageState::Resident(Resident {
                referenced: Self::bit(&self.referenced, i),
                dirty: self.is_dirty(p),
                last_ref: self.last_ref[i],
                swap_copy: self.block(p),
                in_epoch: Self::bit(&self.seen, i),
            })
        } else {
            self.block(p)
                .map_or(PageState::Untouched, |block| PageState::Swapped { block })
        }
    }

    /// Iterate over `(PageNum, PageState)` for all pages.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, PageState)> + '_ {
        (0..self.len()).map(|i| {
            let p = PageNum(i as u32);
            (p, self.state(p))
        })
    }

    /// Instant of the most recent touch of page `p`, if it is resident.
    pub fn last_ref(&self, p: PageNum) -> Option<SimTime> {
        self.is_resident(p).then(|| self.last_ref[p.idx()])
    }

    /// `(page, last touch)` of every resident page, ascending by page.
    pub fn resident_ages(&self) -> impl Iterator<Item = (PageNum, SimTime)> + '_ {
        self.present
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| pages_of(w, bits))
            .map(|i| (PageNum(i as u32), self.last_ref[i]))
    }

    /// Resident pages sorted oldest-first (by `last_ref`, ties by page
    /// number). This is the ordering selective/aggressive page-out uses.
    ///
    /// The pages come in ascending order, so a stable sort by age alone
    /// breaks ties by page. A process sweeping its address space leaves
    /// the ages in a few ascending runs, which the stable sort merges in
    /// near-linear time.
    pub fn resident_oldest_first(&self) -> Vec<PageNum> {
        let mut v = Vec::with_capacity(self.resident);
        v.extend(self.resident_ages().map(|(p, _)| p));
        v.sort_by_key(|p| self.last_ref[p.idx()]);
        v
    }

    /// Length of the run of resident pages starting at `first`, at most
    /// `max`. Scans a word at a time.
    pub(crate) fn resident_prefix(&self, first: PageNum, max: usize) -> usize {
        bit_run(&self.present, true, first.idx(), max)
    }

    /// Length of the run of non-resident pages starting at `first`, at
    /// most `max`. Scans a word at a time.
    pub(crate) fn absent_prefix(&self, first: PageNum, max: usize) -> usize {
        bit_run(&self.present, false, first.idx(), max)
    }

    /// Length of the run of untouched pages (not resident, no swap block)
    /// starting at `first`, at most `max`: the residency bits a word at a
    /// time, then the block slots of the non-resident prefix.
    pub(crate) fn untouched_prefix(&self, first: PageNum, max: usize) -> usize {
        let lo = first.idx();
        let absent = self.absent_prefix(first, max);
        self.block[lo..lo + absent]
            .iter()
            .position(|&s| s != NO_BLOCK)
            .unwrap_or(absent)
    }

    /// Touch the `len` pages from `first`, all of which must be resident:
    /// set their reference and epoch bits and their age, and on a `write`
    /// their dirty bits. A write makes each newly dirtied page's swap copy
    /// stale; `stale` receives those blocks as runs `(first, len)` of
    /// consecutive blocks, in page order, so a dirty page never holds a
    /// copy. Returns how many pages were not yet touched in the current
    /// epoch.
    pub(crate) fn touch_resident(
        &mut self,
        first: PageNum,
        len: usize,
        now: SimTime,
        write: bool,
        stale: impl FnMut(u64, u64),
    ) -> usize {
        let range = first.idx()..first.idx() + len;
        self.last_ref[range.clone()].fill(now);
        let mut fresh = 0;
        let mut freed = BlockRuns::new(stale);
        // In steady state every page is in the epoch already and, on a
        // write, dirty already: such a word costs one OR, with no popcount.
        for (w, m) in word_spans(range.start, range.end) {
            debug_assert_eq!(self.present[w] & m, m, "touch of a non-resident page");
            self.referenced[w] |= m;
            let new = m & !self.seen[w];
            if new != 0 {
                fresh += new.count_ones() as usize;
                self.seen[w] |= new;
            }
            let newly = if write { m & !self.dirty[w] } else { 0 };
            if newly != 0 {
                self.dirty[w] |= newly;
                self.dirty_resident += newly.count_ones() as usize;
                for i in pages_of(w, newly) {
                    let copy = std::mem::replace(&mut self.block[i], NO_BLOCK);
                    if let Some(block) = slot_block(copy) {
                        freed.push(block);
                    }
                }
            }
        }
        freed.finish();
        fresh
    }

    /// Map non-resident page `p` into a frame at `now`: referenced, clean,
    /// touched in the current epoch. A swapped page keeps its block as a
    /// clean copy; the block is returned (it must be read in).
    pub(crate) fn map_in(&mut self, p: PageNum, now: SimTime) -> Option<u64> {
        let mut read = None;
        self.map_run(p, 1, now, |_, block| read = block);
        read
    }

    /// [`PageTable::map_in`] of the `len` pages from `first`, none of
    /// them resident, a word at a time. `each` sees every page in order,
    /// with the block to read in, if any.
    pub(crate) fn map_run(
        &mut self,
        first: PageNum,
        len: usize,
        now: SimTime,
        mut each: impl FnMut(PageNum, Option<u64>),
    ) {
        let range = first.idx()..first.idx() + len;
        for (w, m) in word_spans(range.start, range.end) {
            debug_assert_eq!(self.present[w] & m, 0, "map_in of a resident page");
            self.present[w] |= m;
            self.referenced[w] |= m;
            self.seen[w] |= m;
        }
        self.last_ref[range.clone()].fill(now);
        self.resident += len;
        for i in range {
            each(PageNum(i as u32), slot_block(self.block[i]));
        }
    }

    /// `m` one-page first touches from resident page `first` (A) in one
    /// pass. Touch j, for j in 1..=m, touches A+j−1 at `now + (j−1)·step`
    /// and maps untouched page A+j at `now + j·step`, and the table ends
    /// as `touch_resident(A+j−1, 1, ..)` then `map_in(A+j, ..)` per page
    /// would leave it: the age ramp, the residency bits of A+1..=A+m, the
    /// reference and epoch bits of A..=A+m, and on a `write` the dirty
    /// bits of A..A+m. `stale` receives A's swap copy, as a run of one
    /// block, if the write makes it stale. Returns how many touched pages
    /// were new to the epoch.
    pub(crate) fn first_touch(
        &mut self,
        first: PageNum,
        m: usize,
        now: SimTime,
        step: SimDur,
        write: bool,
        mut stale: impl FnMut(u64, u64),
    ) -> usize {
        let (a, last) = (first.idx(), first.idx() + m);
        debug_assert!(m > 0, "first touch of no pages");
        debug_assert!(
            self.is_resident(first),
            "first touch from a non-resident page"
        );
        debug_assert!(
            self.block[a + 1..=last].iter().all(|&s| s == NO_BLOCK),
            "first touch maps a page with a swap block"
        );
        // A is the one touched page not mapped here, so the only one that
        // can be new to the epoch, dirty already, or hold a swap copy.
        let fresh = usize::from(!Self::bit(&self.seen, a));
        if write && self.is_dirty(first) {
            self.dirty_resident += m - 1;
        } else if write {
            self.dirty_resident += m;
            if let Some(block) = slot_block(std::mem::replace(&mut self.block[a], NO_BLOCK)) {
                stale(block, 1);
            }
        }
        for (j, age) in (0u64..).zip(&mut self.last_ref[a..=last]) {
            *age = now + step * j;
        }
        for (w, span) in word_spans(a, last + 1) {
            let bit = |i: usize| if i / 64 == w { 1u64 << (i % 64) } else { 0 };
            debug_assert_eq!(
                self.present[w] & span & !bit(a),
                0,
                "first touch of a resident page"
            );
            self.present[w] |= span & !bit(a);
            self.referenced[w] |= span;
            self.seen[w] |= span;
            if write {
                self.dirty[w] |= span & !bit(last);
            }
        }
        self.resident += m;
        fresh
    }

    /// Start a new working-set epoch: no page has been touched in it yet.
    pub(crate) fn new_epoch(&mut self) {
        self.seen.fill(0);
    }

    /// Mask of the pages of word `w` that lie in the table.
    fn in_table(&self, w: usize) -> u64 {
        match self.len().saturating_sub(w * 64) {
            0 => 0,
            n => mask(0, n.min(64)),
        }
    }

    /// How many entries of `pages` are dirty, an entry listed twice
    /// counting twice, a word mask ([`word_masks`]) at a time. Fails with
    /// the first entry, in list order, that lies past the table.
    pub(crate) fn dirty_entries(&self, pages: &[PageNum]) -> Result<u64, PageNum> {
        word_masks(pages).try_fold(0, |n, (w, m)| match m & !self.in_table(w) {
            0 => Ok(n + u64::from((m & self.dirty[w]).count_ones())),
            past => Err(PageNum((w * 64) as u32 + past.trailing_zeros())),
        })
    }

    /// Drop the resident pages among `m` (word `w`) from their frames. A
    /// clean page keeps its copy (it becomes swapped) or, without one,
    /// becomes untouched. Returns the dropped pages and, of those, the
    /// dirty ones: they hold no block yet, and the caller must give each
    /// the block its image is written to ([`PageTable::set_blocks`]).
    pub(crate) fn evict_word(&mut self, w: usize, m: u64) -> (u64, u64) {
        let gone = m & self.present[w];
        let dirty = gone & self.dirty[w];
        self.present[w] &= !gone;
        self.referenced[w] &= !gone;
        self.dirty[w] &= !dirty;
        self.resident -= gone.count_ones() as usize;
        self.dirty_resident -= dirty.count_ones() as usize;
        (gone, dirty)
    }

    /// Mark the dirty pages among `m` (word `w`) clean, and return them:
    /// the caller must give each the block its image is written to, which
    /// becomes its swap copy ([`PageTable::set_blocks`]).
    pub(crate) fn clean_word(&mut self, w: usize, m: u64) -> u64 {
        let dirty = m & self.dirty[w];
        self.dirty[w] &= !dirty;
        self.dirty_resident -= dirty.count_ones() as usize;
        dirty
    }

    /// Give the pages of `m` (word `w`), in page order, the blocks
    /// `first, first + 1, …`. None of them may hold a block.
    pub(crate) fn set_blocks(&mut self, w: usize, m: u64, first: u64) {
        for (i, block) in pages_of(w, m).zip(first..) {
            debug_assert_eq!(self.block[i], NO_BLOCK, "page {i} holds a block");
            self.block[i] = slot(block);
        }
    }

    /// The blocks the table holds, in page order, as runs `(first, len)`
    /// of consecutive blocks.
    pub(crate) fn block_runs(&self, out: impl FnMut(u64, u64)) {
        let mut runs = BlockRuns::new(out);
        for block in self.block.iter().filter_map(|&s| slot_block(s)) {
            runs.push(block);
        }
        runs.finish();
    }

    /// Clock sweep from the stored hand position: visit up to `max_scan`
    /// pages; referenced resident pages get their bit cleared, and
    /// unreferenced resident pages are collected as eviction candidates
    /// (up to `max_victims`). The hand advances past every visited page.
    pub fn clock_sweep(&mut self, max_scan: usize, max_victims: usize) -> Vec<PageNum> {
        let n = self.len();
        if n == 0 || max_victims == 0 {
            return Vec::new();
        }
        let mut budget = max_scan.min(n);
        let mut victims = Vec::with_capacity(max_victims.min(budget));
        while budget > 0 && victims.len() < max_victims {
            let (w, lo) = (self.hand / 64, self.hand % 64);
            let hi = (lo + budget).min(64).min(n - w * 64);
            let cand = self.present[w] & !self.referenced[w] & mask(lo, hi);
            let (take, end) = take_bits(cand, hi, max_victims - victims.len());
            // Referenced bits are a subset of the residency bits, so this
            // clears exactly the referenced resident pages visited.
            self.referenced[w] &= !mask(lo, end);
            victims.extend(pages_of(w, take).map(|i| PageNum(i as u32)));
            budget -= end - lo;
            self.hand = (self.hand + end - lo) % n;
        }
        victims
    }

    /// Sweep from position `hand`, collecting up to `max_collect` dirty
    /// resident pages while visiting at most `max_scan` entries. Returns
    /// the victims and the new hand position.
    pub(crate) fn dirty_sweep(
        &self,
        hand: usize,
        max_scan: usize,
        max_collect: usize,
    ) -> (Vec<PageNum>, usize) {
        let n = self.len();
        if n == 0 {
            return (Vec::new(), 0);
        }
        let mut hand = hand % n;
        let mut out = Vec::new();
        let mut budget = max_scan.min(n);
        while budget > 0 && out.len() < max_collect {
            let (w, lo) = (hand / 64, hand % 64);
            let hi = (lo + budget).min(64).min(n - w * 64);
            let (take, end) = take_bits(self.dirty[w] & mask(lo, hi), hi, max_collect - out.len());
            out.extend(pages_of(w, take).map(|i| PageNum(i as u32)));
            budget -= end - lo;
            hand = (hand + end - lo) % n;
        }
        (out, hand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::from_us(1);

    /// `pt` with pages `pages` mapped in at `t` and touched (`dirty` makes
    /// the touch a write).
    fn mapped(pt: &mut PageTable, pages: impl IntoIterator<Item = u32>, t: u64, dirty: bool) {
        for i in pages {
            pt.map_in(PageNum(i), SimTime::from_us(t));
            pt.touch_resident(PageNum(i), 1, SimTime::from_us(t), dirty, |_, _| {});
        }
    }

    /// Evict resident page `p`; a dirty one is written to `write_to`.
    fn evict(pt: &mut PageTable, p: u32, write_to: Option<u64>) {
        let (w, bit) = (p as usize / 64, 1u64 << (p % 64));
        let (gone, dirty) = pt.evict_word(w, bit);
        assert_eq!(gone, bit, "evict of a non-resident page");
        assert_eq!(dirty != 0, write_to.is_some(), "write iff dirty");
        if let Some(block) = write_to {
            pt.set_blocks(w, dirty, block);
        }
    }

    /// Write dirty page `p` to `block`, keeping it resident.
    fn clean(pt: &mut PageTable, p: u32, block: u64) {
        let (w, bit) = (p as usize / 64, 1u64 << (p % 64));
        assert_eq!(
            pt.clean_word(w, bit),
            bit,
            "clean of a page that is not dirty"
        );
        pt.set_blocks(w, bit, block);
    }

    fn unreferenced(n: usize) -> PageTable {
        let mut pt = PageTable::new(n);
        mapped(&mut pt, 0..n as u32, 1, false);
        pt.clock_sweep(n, n);
        pt
    }

    #[test]
    fn counters_follow_transitions() {
        let mut pt = PageTable::new(4);
        assert_eq!(pt.resident(), 0);
        mapped(&mut pt, [0], 1, false);
        mapped(&mut pt, [1], 2, true);
        assert_eq!(pt.resident(), 2);
        assert_eq!(pt.dirty_resident(), 1);
        evict(&mut pt, 1, Some(9));
        assert_eq!(pt.state(PageNum(1)), PageState::Swapped { block: 9 });
        assert_eq!(pt.resident(), 1);
        assert_eq!(pt.dirty_resident(), 0);
        evict(&mut pt, 0, None);
        assert_eq!(pt.state(PageNum(0)), PageState::Untouched);
        assert_eq!(pt.resident(), 0);
    }

    #[test]
    fn block_slots_hold_block_zero_and_the_highest_block() {
        let mut pt = PageTable::new(2);
        mapped(&mut pt, [0, 1], 1, true);
        evict(&mut pt, 0, Some(0));
        evict(&mut pt, 1, Some(MAX_BLOCKS - 1));
        assert_eq!(pt.state(PageNum(0)), PageState::Swapped { block: 0 });
        assert_eq!(
            pt.state(PageNum(1)),
            PageState::Swapped {
                block: MAX_BLOCKS - 1
            }
        );
    }

    #[test]
    fn state_decodes_every_field() {
        let mut pt = PageTable::new(3);
        mapped(&mut pt, [0], 5, true);
        evict(&mut pt, 0, Some(7));
        pt.new_epoch();
        assert_eq!(pt.map_in(PageNum(0), SimTime::from_us(6)), Some(7));
        assert_eq!(
            pt.state(PageNum(0)),
            PageState::Resident(Resident {
                referenced: true,
                dirty: false,
                last_ref: SimTime::from_us(6),
                swap_copy: Some(7),
                in_epoch: true,
            })
        );
        assert_eq!(pt.map_in(PageNum(1), T), None);
        assert_eq!(pt.state(PageNum(2)), PageState::Untouched);
    }

    #[test]
    fn clean_keeps_page_resident_with_copy() {
        let mut pt = PageTable::new(2);
        mapped(&mut pt, [1], 1, true);
        clean(&mut pt, 1, 4);
        assert_eq!(pt.dirty_resident(), 0);
        assert!(matches!(
            pt.state(PageNum(1)),
            PageState::Resident(Resident {
                dirty: false,
                swap_copy: Some(4),
                ..
            })
        ));
    }

    #[test]
    fn oldest_first_ordering() {
        let mut pt = PageTable::new(5);
        mapped(&mut pt, [0], 50, false);
        mapped(&mut pt, [2], 10, false);
        mapped(&mut pt, [4], 30, false);
        assert_eq!(
            pt.resident_oldest_first(),
            vec![PageNum(2), PageNum(4), PageNum(0)]
        );
    }

    #[test]
    fn oldest_first_tie_breaks_by_page_number() {
        let mut pt = PageTable::new(3);
        mapped(&mut pt, 0..3, 7, false);
        assert_eq!(
            pt.resident_oldest_first(),
            vec![PageNum(0), PageNum(1), PageNum(2)]
        );
    }

    #[test]
    fn resident_prefix_crosses_word_edges() {
        let mut pt = PageTable::new(200);
        mapped(&mut pt, 10..150, 1, false);
        assert_eq!(pt.resident_prefix(PageNum(10), 140), 140);
        assert_eq!(pt.resident_prefix(PageNum(10), 190), 140, "stops at 150");
        assert_eq!(pt.resident_prefix(PageNum(63), 2), 2, "straddles 64");
        assert_eq!(pt.resident_prefix(PageNum(64), 64), 64, "whole word");
        assert_eq!(pt.resident_prefix(PageNum(127), 30), 23);
        assert_eq!(pt.resident_prefix(PageNum(5), 40), 0);
        assert_eq!(pt.resident_prefix(PageNum(150), 50), 0);
        assert_eq!(pt.resident_prefix(PageNum(20), 0), 0);
    }

    #[test]
    fn resident_prefix_reaches_last_partial_word() {
        // 200 pages = 3 full words + 8 pages.
        let mut pt = PageTable::new(200);
        mapped(&mut pt, 0..200, 1, false);
        assert_eq!(pt.resident_prefix(PageNum(0), 200), 200);
        assert_eq!(pt.resident_prefix(PageNum(190), 10), 10);
        assert_eq!(pt.resident_prefix(PageNum(199), 1), 1);
        evict(&mut pt, 199, None);
        assert_eq!(pt.resident_prefix(PageNum(180), 20), 19);
    }

    #[test]
    fn write_run_frees_each_copy_once() {
        let mut pt = PageTable::new(130);
        // Clean pages with copies at blocks 1000+i, straddling two words.
        for i in 60..130u32 {
            mapped(&mut pt, [i], 1, true);
            clean(&mut pt, i, 1000 + u64::from(i));
        }
        let mut freed = Vec::new();
        let t = SimTime::from_us(2);
        pt.touch_resident(PageNum(60), 70, t, true, |b, n| freed.push((b, n)));
        assert_eq!(freed, [(1060, 70)], "one run across the word edge");
        assert_eq!(pt.dirty_resident(), 70);
        // Already dirty: a second write run has nothing left to free.
        pt.touch_resident(PageNum(60), 70, t, true, |b, n| freed.push((b, n)));
        assert_eq!(freed.len(), 1);
        assert!((60..130).all(|i| pt.block(PageNum(i)).is_none()));
    }

    #[test]
    fn touch_counts_fresh_epochs() {
        let mut pt = PageTable::new(100);
        mapped(&mut pt, 0..100, 1, false);
        let t = SimTime::from_us(2);
        assert_eq!(pt.touch_resident(PageNum(0), 70, t, false, |_, _| {}), 0);
        pt.new_epoch();
        assert_eq!(pt.touch_resident(PageNum(0), 70, t, false, |_, _| {}), 70);
        assert_eq!(pt.touch_resident(PageNum(50), 50, t, false, |_, _| {}), 30);
        pt.new_epoch();
        assert_eq!(pt.touch_resident(PageNum(50), 0, t, false, |_, _| {}), 0);
    }

    #[test]
    fn clock_sweep_second_chance() {
        let mut pt = PageTable::new(3);
        mapped(&mut pt, 0..3, 1, false);
        // First sweep clears all reference bits, evicts nothing.
        let v1 = pt.clock_sweep(3, 3);
        assert!(v1.is_empty());
        // Second sweep finds all pages unreferenced.
        let v2 = pt.clock_sweep(3, 3);
        assert_eq!(v2.len(), 3);
    }

    #[test]
    fn clock_sweep_respects_victim_cap() {
        let mut pt = unreferenced(10);
        let v = pt.clock_sweep(10, 4);
        assert_eq!(v.len(), 4);
        // Hand advanced past exactly the scanned pages (the first sweep
        // went all the way round).
        assert_eq!(pt.hand(), 4);
    }

    #[test]
    fn clock_sweep_skips_nonresident() {
        let mut pt = PageTable::new(4);
        mapped(&mut pt, [1], 1, true);
        evict(&mut pt, 1, Some(3));
        mapped(&mut pt, [3], 1, false);
        pt.clock_sweep(4, 4);
        let v = pt.clock_sweep(4, 4);
        assert_eq!(v, vec![PageNum(3)]);
    }

    #[test]
    fn clock_sweep_wraps_over_partial_last_word() {
        let mut pt = unreferenced(70);
        assert_eq!(
            pt.clock_sweep(70, 3),
            vec![PageNum(0), PageNum(1), PageNum(2)]
        );
        let v = pt.clock_sweep(70, 70);
        assert_eq!(v.len(), 70);
        assert_eq!(v[0], PageNum(3));
        assert_eq!(v[66], PageNum(69));
        assert_eq!(v[67], PageNum(0), "wrapped past the partial word");
        assert_eq!(pt.hand(), 3);
    }

    #[test]
    fn dirty_sweep_collects_across_words() {
        let mut pt = PageTable::new(150);
        mapped(&mut pt, (0..150).filter(|i| i % 3 == 0), 1, true);
        mapped(&mut pt, (0..150).filter(|i| i % 3 == 1), 1, false);
        let (v, hand) = pt.dirty_sweep(140, 30, 4);
        assert_eq!(v, [141, 144, 147, 0].map(PageNum));
        assert_eq!(hand, 1);
        let (v, hand) = pt.dirty_sweep(hand, 10, 100);
        assert_eq!(v, [3, 6, 9].map(PageNum));
        assert_eq!(hand, 11);
    }

    #[test]
    fn dirty_sweep_without_room_keeps_the_hand() {
        let mut pt = PageTable::new(150);
        mapped(&mut pt, 0..150, 1, true);
        assert_eq!(pt.dirty_sweep(140, 30, 0), (Vec::new(), 140));
        assert_eq!(pt.dirty_sweep(170, 30, 0), (Vec::new(), 20), "hand wraps");
        assert_eq!(pt.dirty_sweep(140, 0, 5), (Vec::new(), 140));
    }

    #[test]
    fn empty_table_is_safe() {
        let mut pt = PageTable::new(0);
        assert!(pt.is_empty());
        assert!(pt.clock_sweep(10, 10).is_empty());
        assert_eq!(pt.dirty_sweep(3, 10, 10), (Vec::new(), 0));
        assert_eq!(pt.resident_prefix(PageNum(0), 0), 0);
        assert_eq!(pt.hand(), 0);
    }
}
