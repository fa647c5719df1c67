//! The per-node memory-management kernel: frames, page tables, swap, and
//! the mechanism API that paging *policies* (in `agp-core`) are written
//! against.

use crate::ptable::{low_bits, pages_of, word_masks, PageState, PageTable};
use crate::swap::SwapSpace;
use crate::types::{MemError, PageNum, ProcId, VmParams};
use agp_disk::Extent;
use agp_obs::{ObsEvent, ObsLink};
use agp_sim::{SimDur, SimTime};
use std::collections::BTreeMap;
use std::ops::Range;

/// Result of touching a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was resident; bits updated, no fault.
    Hit,
    /// Major fault: the page image must be read from the given swap block.
    NeedsSwapIn {
        /// Swap block holding the page.
        block: u64,
    },
    /// Minor fault: first touch ever; a frame must be zero-filled (no I/O).
    NeedsZeroFill,
}

/// Result of mapping a page into a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapInOutcome {
    /// Page image must be read from this swap block (disk read required).
    Read {
        /// Swap block to read.
        block: u64,
    },
    /// Demand-zero fill; no disk traffic.
    Zeroed,
}

/// What eviction of a single page cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictOutcome {
    /// Clean page with a valid swap copy, or never-written page: frame
    /// reclaimed with no I/O.
    Dropped,
    /// Dirty page: its image must be written to this swap block.
    Write {
        /// Destination swap block.
        block: u64,
    },
}

/// Per-process memory bookkeeping.
#[derive(Clone, Debug)]
pub struct ProcMem {
    /// The page table.
    pub pt: PageTable,
    /// Whether the process has been granted a quantum. Each grant starts
    /// a new working-set epoch in the page table.
    started: bool,
    /// Distinct pages referenced in the current epoch: each counts when
    /// its epoch bit in the page table is first set.
    wss_current: usize,
    /// Distinct pages referenced in the last completed epoch — the paper's
    /// WSS estimate ("using the page references during the incoming
    /// process' previous time quanta", §3.2).
    wss_last: Option<usize>,
}

impl ProcMem {
    fn new(pages: usize) -> Self {
        ProcMem {
            pt: PageTable::new(pages),
            started: false,
            wss_current: 0,
            wss_last: None,
        }
    }

    /// Resident set size in pages.
    pub fn rss(&self) -> usize {
        self.pt.resident()
    }

    /// Distinct pages referenced so far in the current quantum.
    pub fn wss_current(&self) -> usize {
        self.wss_current
    }

    /// Distinct pages referenced during the previously completed quantum.
    pub fn wss_last(&self) -> Option<usize> {
        self.wss_last
    }
}

/// Owner-map entries per chunk: 32 KiB of entries.
const CHUNK: usize = 4096;

/// A packed owner-map entry: the owning pid in the high 32 bits and the
/// page in the low 32, or [`Owner::NONE`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Owner(u64);

const _: () = assert!(std::mem::size_of::<Owner>() == 8);

impl Owner {
    /// An empty entry. It would read as page `u32::MAX` of pid
    /// `u32::MAX`, which would take a table of 2^32 pages.
    const NONE: Owner = Owner(u64::MAX);

    fn new((pid, page): (ProcId, PageNum)) -> Self {
        Owner(u64::from(pid.0) << 32 | u64::from(page.0))
    }

    fn get(self) -> Option<(ProcId, PageNum)> {
        (self != Owner::NONE).then_some((ProcId((self.0 >> 32) as u32), PageNum(self.0 as u32)))
    }
}

/// Reverse map from each swap block holding a valid, current page image
/// to the page that owns it, indexed by block. The blocks are split into
/// fixed chunks of [`CHUNK`] entries, and a chunk is allocated on the
/// first insert that reaches it. A kernel that never pages out allocates
/// nothing, and growing the map copies no entries: a table grown by
/// reallocation copies itself at each doubling and leaves the old,
/// already-touched buffer in the heap.
#[derive(Clone, Debug, Default)]
struct SwapOwners {
    /// Chunk `c` holds the entries of blocks `c * CHUNK..(c + 1) * CHUNK`.
    chunks: Vec<Option<Box<[Owner; CHUNK]>>>,
    len: usize,
}

impl SwapOwners {
    /// Chunk index and offset of `block`.
    fn at(block: u64) -> (usize, usize) {
        let b = block as usize;
        (b / CHUNK, b % CHUNK)
    }

    /// Chunk index and offsets of every chunk slice covering the `len`
    /// blocks from `first`, in block order.
    fn slices(first: u64, len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
        let (lo, hi) = (first as usize, first as usize + len);
        (lo / CHUNK..hi.div_ceil(CHUNK)).map(move |c| {
            let base = c * CHUNK;
            (c, lo.max(base) - base..hi.min(base + CHUNK) - base)
        })
    }

    fn get(&self, block: u64) -> Option<(ProcId, PageNum)> {
        let (c, i) = Self::at(block);
        self.chunks.get(c)?.as_ref()?[i].get()
    }

    /// Make `owners`, `len` of them, the owners of the blocks from
    /// `first` on, in turn, a chunk slice at a time.
    fn insert_run(
        &mut self,
        first: u64,
        len: usize,
        owners: impl IntoIterator<Item = (ProcId, PageNum)>,
    ) {
        let mut owners = owners.into_iter().map(Owner::new);
        for (c, range) in Self::slices(first, len) {
            if c >= self.chunks.len() {
                self.chunks.resize_with(c + 1, || None);
            }
            let chunk = self.chunks[c].get_or_insert_with(|| Box::new([Owner::NONE; CHUNK]));
            for (entry, owner) in chunk[range].iter_mut().zip(&mut owners) {
                debug_assert_ne!(owner, Owner::NONE, "owner packs to the empty entry");
                if std::mem::replace(entry, owner) == Owner::NONE {
                    self.len += 1;
                }
            }
        }
    }

    /// Empty the entries of the `len` blocks from `first`.
    fn remove_run(&mut self, first: u64, len: u64) {
        for (c, range) in Self::slices(first, len as usize) {
            let Some(Some(chunk)) = self.chunks.get_mut(c) else {
                continue;
            };
            for entry in &mut chunk[range] {
                if std::mem::replace(entry, Owner::NONE) != Owner::NONE {
                    self.len -= 1;
                }
            }
        }
    }

    /// How many entries from block `first` on, at most `max`, name
    /// `owner` and then the pages after it in turn: the same pid, one
    /// page further each block. Compares a chunk slice at a time, across
    /// chunk edges.
    fn run_len(&self, first: u64, owner: (ProcId, PageNum), max: usize) -> usize {
        // A pid's consecutive pages pack to consecutive entries.
        let want = Owner::new(owner).0;
        let mut n = 0;
        for (c, range) in Self::slices(first, max) {
            let Some(Some(chunk)) = self.chunks.get(c) else {
                break;
            };
            let slice = &chunk[range];
            let same = (want + n as u64..)
                .zip(slice)
                .take_while(|&(w, entry)| entry.0 == w)
                .count();
            n += same;
            if same < slice.len() {
                break;
            }
        }
        n
    }

    fn iter(&self) -> impl Iterator<Item = (u64, (ProcId, PageNum))> + '_ {
        (0u64..)
            .step_by(CHUNK)
            .zip(&self.chunks)
            .filter_map(|(base, chunk)| Some((base, chunk.as_deref()?)))
            .flat_map(|(base, chunk)| (base..).zip(chunk).filter_map(|(b, o)| Some((b, o.get()?))))
    }
}

/// The blocks of a fresh allocation ([`SwapSpace::alloc`]), handed out in
/// block order as runs.
struct FreshBlocks<'a> {
    extents: &'a [Extent],
    /// Blocks handed out, from the start of the allocation.
    used: u64,
    /// Extent the next block comes from, and blocks already taken of it.
    at: usize,
    taken: u64,
}

impl<'a> FreshBlocks<'a> {
    fn new(extents: &'a [Extent]) -> Self {
        FreshBlocks {
            extents,
            used: 0,
            at: 0,
            taken: 0,
        }
    }

    /// Give the pages `dirty` of word `w` of `pid`'s table, in page
    /// order, the next blocks, and record each page as its block's owner.
    /// The allocation holds a block for each.
    fn write(
        &mut self,
        pt: &mut PageTable,
        owners: &mut SwapOwners,
        pid: ProcId,
        w: usize,
        mut dirty: u64,
    ) {
        while dirty != 0 {
            let e = self.extents[self.at];
            let len = (e.len - self.taken).min(u64::from(dirty.count_ones()));
            let first = e.start + self.taken;
            let run = low_bits(dirty, len as u32);
            pt.set_blocks(w, run, first);
            let pages = pages_of(w, run).map(|i| (pid, PageNum(i as u32)));
            owners.insert_run(first, len as usize, pages);
            dirty &= !run;
            self.used += len;
            self.taken += len;
            if self.taken == e.len {
                (self.at, self.taken) = (self.at + 1, 0);
            }
        }
    }
}

/// The simulated per-node kernel memory manager.
///
/// All state transitions preserve the frame-conservation invariant
/// `free + Σ rss == usable`; [`Kernel::check_invariants`] verifies it (and
/// swap/owner-map consistency) and is exercised heavily in tests.
#[derive(Clone, Debug)]
pub struct Kernel {
    params: VmParams,
    free: usize,
    swap: SwapSpace,
    procs: BTreeMap<ProcId, ProcMem>,
    /// Blocks that hold a *valid, current* page image → owning page.
    /// Covers both `Swapped` pages and clean resident pages' `swap_copy`.
    /// Used by read-ahead to chase swap-contiguous neighbors.
    swap_owner: SwapOwners,
    obs: ObsLink,
}

impl Kernel {
    /// A kernel managing `params.usable_frames()` frames and a swap device
    /// of `swap_blocks` blocks, which must be fewer than 2^32: a page
    /// table holds each block in 32 bits.
    pub fn new(params: VmParams, swap_blocks: u64) -> Self {
        let free = params.usable_frames();
        Kernel {
            params,
            free,
            swap: SwapSpace::new(swap_blocks),
            procs: BTreeMap::new(),
            swap_owner: SwapOwners::default(),
            obs: ObsLink::disabled(),
        }
    }

    /// Attach an observation link (fault and eviction events).
    pub fn set_observer(&mut self, obs: ObsLink) {
        self.obs = obs;
    }

    /// Kernel tuning parameters.
    pub fn params(&self) -> &VmParams {
        &self.params
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> usize {
        self.free
    }

    /// Whether free memory has fallen below `freepages.min` (reclaim must
    /// run before more frames are handed out).
    pub fn below_min(&self) -> bool {
        self.free < self.params.freepages_min
    }

    /// How many frames reclaim should free right now to honor the
    /// watermark model: to `freepages.high` if below `freepages.min`,
    /// otherwise nothing.
    pub fn reclaim_target(&self) -> usize {
        if self.below_min() {
            self.params.freepages_high.saturating_sub(self.free)
        } else {
            0
        }
    }

    /// The swap allocator (metrics / tests).
    pub fn swap(&self) -> &SwapSpace {
        &self.swap
    }

    /// Register a process with an address space of `pages` pages.
    pub fn register_proc(&mut self, pid: ProcId, pages: usize) {
        let prev = self.procs.insert(pid, ProcMem::new(pages));
        debug_assert!(prev.is_none(), "duplicate process registration {pid}");
    }

    /// Remove a process, releasing its frames and swap blocks.
    pub fn unregister_proc(&mut self, pid: ProcId) -> Result<(), MemError> {
        let pm = self.procs.remove(&pid).ok_or(MemError::NoSuchProc(pid))?;
        self.free += pm.pt.resident();
        pm.pt.block_runs(|first, len| {
            self.swap.free_extent(Extent::new(first, len));
            self.swap_owner.remove_run(first, len);
        });
        Ok(())
    }

    /// Access a process's bookkeeping.
    pub fn proc(&self, pid: ProcId) -> Result<&ProcMem, MemError> {
        self.procs.get(&pid).ok_or(MemError::NoSuchProc(pid))
    }

    fn proc_mut(&mut self, pid: ProcId) -> Result<&mut ProcMem, MemError> {
        self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))
    }

    /// Iterate over `(pid, rss)` for all registered processes.
    pub fn procs_rss(&self) -> impl Iterator<Item = (ProcId, usize)> + '_ {
        self.procs.iter().map(|(&p, m)| (p, m.rss()))
    }

    /// The process with the largest RSS, excluding `exclude` — the victim
    /// Linux 2.2's `swap_out()` picks ("examines the process that has the
    /// largest memory size", paper §2).
    pub fn largest_rss_proc(&self, exclude: Option<ProcId>) -> Option<ProcId> {
        self.procs
            .iter()
            .filter(|(&p, _)| Some(p) != exclude)
            .max_by_key(|(&p, m)| (m.rss(), std::cmp::Reverse(p)))
            .filter(|(_, m)| m.rss() > 0)
            .map(|(&p, _)| p)
    }

    // ------------------------------------------------------------------
    // Touch / fault / map-in
    // ------------------------------------------------------------------

    /// Touch page `p` of `pid` at `now`. On a hit, updates the reference
    /// bit, age, dirty bit and WSS accounting; on a miss, reports what the
    /// fault handler must do (state is not changed until
    /// [`Kernel::map_in`]). A one-page [`Toucher::touch_run`].
    pub fn touch(
        &mut self,
        pid: ProcId,
        p: PageNum,
        write: bool,
        now: SimTime,
    ) -> Result<TouchOutcome, MemError> {
        let (_, fault) = self.toucher(pid)?.touch_run(p, 1, write, now)?;
        Ok(fault.unwrap_or(TouchOutcome::Hit))
    }

    /// One [`Toucher::touch_run`] of `pid`, under the `mem.touch_run`
    /// profiler span.
    pub fn touch_run(
        &mut self,
        pid: ProcId,
        first: PageNum,
        max: usize,
        write: bool,
        now: SimTime,
    ) -> Result<(usize, Option<TouchOutcome>), MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemTouch);
        self.toucher(pid)?.touch_run(first, max, write, now)
    }

    /// `pid`'s page table, looked up once for any number of touch runs.
    pub fn toucher(&mut self, pid: ProcId) -> Result<Toucher<'_>, MemError> {
        let Kernel {
            procs,
            swap,
            swap_owner,
            obs,
            ..
        } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        Ok(Toucher {
            pid,
            pm,
            swap,
            swap_owner,
            obs,
        })
    }

    /// Frames a bulk first touch may take: those above
    /// `max(freepages.min, 1)`. A fill below that floor is one that would
    /// reclaim first, or fail with [`MemError::OutOfFrames`].
    pub fn first_touch_room(&self) -> usize {
        self.free.saturating_sub(self.params.freepages_min.max(1))
    }

    /// The first-touch sweep of `pid`'s touch step in one call. Page
    /// `first` (A) is resident, just zero-filled at `now`; the one-page
    /// path would next run, for j = 1, 2, …, a [`Kernel::touch_run`] of
    /// A+j−1 at `now + (j−1)·step` that faults on untouched A+j, then a
    /// [`Kernel::map_in`] of A+j at `now + j·step`. This applies the
    /// first `m` of those pairs, `m` at most `max`, stopping before a
    /// page that is resident or holds a swap block and before a fill
    /// that would leave fewer free frames than
    /// [`Kernel::first_touch_room`] allows. It emits none of the `m`
    /// minor [`ObsEvent::PageFault`]s the touch runs would, so a caller
    /// with an observer attached takes the one-page path. Returns `m`; 0
    /// when A is not resident.
    pub fn first_touch_run(
        &mut self,
        pid: ProcId,
        first: PageNum,
        max: usize,
        write: bool,
        now: SimTime,
        step: SimDur,
    ) -> Result<usize, MemError> {
        debug_assert!(!self.obs.enabled(), "bulk first touch under an observer");
        let room = self.first_touch_room();
        let Kernel {
            procs,
            swap,
            swap_owner,
            free,
            ..
        } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let next = first.idx() + 1;
        if next > pm.pt.len() {
            return Err(MemError::BadPage(pid, first));
        }
        let max = max.min(room).min(pm.pt.len() - next);
        if max == 0 || !pm.pt.is_resident(first) {
            return Ok(0);
        }
        let m = pm.pt.untouched_prefix(PageNum(next as u32), max);
        if m == 0 {
            return Ok(0);
        }
        let fresh = pm.pt.first_touch(first, m, now, step, write, |b, n| {
            swap_owner.remove_run(b, n);
            swap.free_extent(Extent::new(b, n));
        });
        pm.wss_current += m + fresh;
        *free -= m;
        Ok(m)
    }

    /// Map page `p` of `pid` into a free frame at `now`.
    ///
    /// Consumes one free frame (fails with [`MemError::OutOfFrames`] if
    /// none are available — the caller must reclaim first). The page
    /// becomes resident-referenced-clean; a subsequent touch sets the
    /// dirty bit if the access is a write.
    pub fn map_in(
        &mut self,
        pid: ProcId,
        p: PageNum,
        now: SimTime,
    ) -> Result<MapInOutcome, MemError> {
        if self.free == 0 {
            return Err(MemError::OutOfFrames);
        }
        let pm = self.procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        if p.idx() >= pm.pt.len() {
            return Err(MemError::BadPage(pid, p));
        }
        if pm.pt.is_resident(p) {
            debug_assert!(false, "map_in of already-resident page {pid}/{p:?}");
            return Ok(MapInOutcome::Zeroed);
        }
        let outcome = match pm.pt.map_in(p, now) {
            Some(block) => MapInOutcome::Read { block },
            None => MapInOutcome::Zeroed,
        };
        pm.wss_current += 1;
        self.free -= 1;
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Eviction
    // ------------------------------------------------------------------

    /// Evict a single resident page, freeing its frame.
    ///
    /// * clean, valid swap copy → page transitions to `Swapped`, no I/O;
    /// * clean, never written → back to `Untouched` (zero pages are
    ///   reproducible), no I/O;
    /// * dirty → allocates a swap block and writes (a dirty page never
    ///   holds a swap copy; writes free the stale copy eagerly).
    pub fn evict(&mut self, pid: ProcId, p: PageNum) -> Result<EvictOutcome, MemError> {
        let (evicted, writes) = self.evict_pages(pid, &[p], &mut Vec::new())?;
        if evicted == 0 {
            return Err(MemError::NotResident(pid, p));
        }
        Ok(match writes.first() {
            Some(e) => EvictOutcome::Write { block: e.start },
            None => EvictOutcome::Dropped,
        })
    }

    /// Evict a batch of pages of one process, allocating swap for all
    /// dirty-without-copy pages **contiguously** (this is what gives block
    /// page-out its sequential layout). Returns the coalesced write
    /// extents; appends the evicted pages to `evicted_log` in eviction
    /// order (consumed by the adaptive page-in recorder).
    ///
    /// Pages in the list that are not resident are skipped (candidate
    /// lists can go stale between selection and eviction).
    pub fn evict_batch(
        &mut self,
        pid: ProcId,
        pages: &[PageNum],
        evicted_log: &mut Vec<PageNum>,
    ) -> Result<Vec<Extent>, MemError> {
        let (evicted, writes) = self.evict_pages(pid, pages, evicted_log)?;
        if evicted > 0 {
            self.obs.emit_clock(|| ObsEvent::EvictBatch {
                pid: pid.0,
                pages: evicted as u32,
                write_pages: writes.iter().map(|e| e.len).sum::<u64>() as u32,
            });
        }
        Ok(writes)
    }

    /// [`Kernel::evict_batch`] without the event: the number of pages
    /// evicted and the write extents. The list is walked twice as word
    /// masks ([`word_masks`]): once to bounds-check it and count its dirty
    /// entries for the one allocation, then to evict each mask's resident
    /// pages at once.
    fn evict_pages(
        &mut self,
        pid: ProcId,
        pages: &[PageNum],
        evicted_log: &mut Vec<PageNum>,
    ) -> Result<(usize, Vec<Extent>), MemError> {
        let pt = &self.proc(pid)?.pt;
        let need = pt
            .dirty_entries(pages)
            .map_err(|p| MemError::BadPage(pid, p))?;
        let fresh = self.swap.alloc(need)?;
        let mut blocks = FreshBlocks::new(&fresh);
        let Kernel {
            procs,
            swap,
            swap_owner,
            free,
            ..
        } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        evicted_log.reserve(pages.len());
        let mut evicted = 0;
        // Stale candidates (not resident) are skipped.
        for (w, m) in word_masks(pages) {
            let (gone, dirty) = pm.pt.evict_word(w, m);
            evicted_log.extend(pages_of(w, gone).map(|i| PageNum(i as u32)));
            evicted += gone.count_ones() as usize;
            blocks.write(&mut pm.pt, swap_owner, pid, w, dirty);
        }
        *free += evicted;
        // Skipped stale candidates leave the tail of the allocation unused.
        let written = blocks.used;
        Ok((evicted, swap.keep_prefix(fresh, written)))
    }

    /// Write a dirty resident page to swap *without* evicting it: the page
    /// stays resident but becomes clean with a valid swap copy. This is
    /// the background-writing primitive (paper §3.4). Batch form: swap for
    /// copy-less pages is allocated contiguously; returns coalesced write
    /// extents. Non-dirty / non-resident pages are skipped. Walks the list
    /// as word masks, like [`Kernel::evict_batch`].
    pub fn clean_batch(&mut self, pid: ProcId, pages: &[PageNum]) -> Result<Vec<Extent>, MemError> {
        let pt = &self.proc(pid)?.pt;
        let need = pt
            .dirty_entries(pages)
            .map_err(|p| MemError::BadPage(pid, p))?;
        let fresh = self.swap.alloc(need)?;
        let mut blocks = FreshBlocks::new(&fresh);
        let Kernel {
            procs,
            swap,
            swap_owner,
            ..
        } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        for (w, m) in word_masks(pages) {
            let dirty = pm.pt.clean_word(w, m);
            blocks.write(&mut pm.pt, swap_owner, pid, w, dirty);
        }
        let written = blocks.used;
        Ok(swap.keep_prefix(fresh, written))
    }

    // ------------------------------------------------------------------
    // Scan helpers for policies
    // ------------------------------------------------------------------

    /// Clock-sweep `pid`'s page table (clearing reference bits, collecting
    /// unreferenced resident pages). See [`PageTable::clock_sweep`].
    pub fn clock_sweep_proc(
        &mut self,
        pid: ProcId,
        max_scan: usize,
        max_victims: usize,
    ) -> Result<Vec<PageNum>, MemError> {
        Ok(self.proc_mut(pid)?.pt.clock_sweep(max_scan, max_victims))
    }

    /// `pid`'s resident pages ordered oldest-first (selective/aggressive
    /// page-out order).
    pub fn resident_oldest_first(&self, pid: ProcId) -> Result<Vec<PageNum>, MemError> {
        Ok(self.proc(pid)?.pt.resident_oldest_first())
    }

    /// Sweep `pid`'s page table from position `hand`, collecting up to
    /// `max_collect` dirty resident pages while visiting at most
    /// `max_scan` entries. Returns the victims and the new hand position.
    ///
    /// This is the background writer's scan (paper §3.4), shaped like the
    /// kernel's own bdflush: a cheap cyclic cursor rather than a global
    /// age sort, so each tick costs O(scan) regardless of table size.
    pub fn dirty_sweep(
        &self,
        pid: ProcId,
        hand: usize,
        max_scan: usize,
        max_collect: usize,
    ) -> Result<(Vec<PageNum>, usize), MemError> {
        Ok(self.proc(pid)?.pt.dirty_sweep(hand, max_scan, max_collect))
    }

    /// Swap read-ahead after a major fault of `pid` on `block`: map in the
    /// pages of `pid` swapped out at `block+1, block+2, …`, stopping at the
    /// first block that holds no swapped-out page of `pid` or after
    /// `limit` pages (capped by the free frames). `on_page` sees each page
    /// as it is mapped. Returns the count `n`; the fault's read is then
    /// the single extent of `1 + n` blocks from `block`.
    ///
    /// Each matching owner entry starts a run: the entries after it that
    /// name `pid`'s next pages in turn, cut at the first page already
    /// resident, are mapped at once.
    pub fn map_in_readahead(
        &mut self,
        pid: ProcId,
        block: u64,
        limit: usize,
        now: SimTime,
        mut on_page: impl FnMut(PageNum),
    ) -> Result<usize, MemError> {
        let Kernel {
            procs,
            swap_owner,
            free,
            ..
        } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let limit = limit.min(*free);
        let mut n = 0;
        while n < limit {
            let b = block + 1 + n as u64;
            // Only chase pages that actually need reading (swapped out);
            // resident swap copies are already in memory.
            let page = match swap_owner.get(b) {
                Some((owner, page)) if owner == pid && !pm.pt.is_resident(page) => page,
                _ => break,
            };
            let next = (pid, PageNum(page.0 + 1));
            let run = 1 + swap_owner.run_len(b + 1, next, limit - n - 1);
            let run = pm.pt.absent_prefix(page, run);
            pm.pt.map_run(page, run, now, |p, read| {
                debug_assert_eq!(
                    read,
                    Some(b + u64::from(p.0 - page.0)),
                    "owner map matches the page table"
                );
                on_page(p);
            });
            n += run;
        }
        pm.wss_current += n;
        *free -= n;
        Ok(n)
    }

    /// Adaptive page-in replay of `pid`'s record, the runs `(first, len)`
    /// in record order, in one call. A resident page is skipped. An
    /// absent one is mapped at `now`, as [`Kernel::map_in`] would, while
    /// more than `floor` frames are free; once they are not, every page
    /// left is skipped. Absent sub-runs are mapped a word at a time.
    /// `on_page` sees each mapped page, in order, with the block to read
    /// in, if any. Returns `(mapped, skipped)`.
    pub fn replay(
        &mut self,
        pid: ProcId,
        runs: impl IntoIterator<Item = (PageNum, usize)>,
        floor: usize,
        now: SimTime,
        mut on_page: impl FnMut(PageNum, Option<u64>),
    ) -> Result<(usize, usize), MemError> {
        let Kernel { procs, free, .. } = self;
        let pm = procs.get_mut(&pid).ok_or(MemError::NoSuchProc(pid))?;
        let (mut mapped, mut skipped) = (0, 0);
        for (first, len) in runs {
            let end = first.idx() + len;
            if end > pm.pt.len() {
                let past = pm.pt.len().max(first.idx());
                return Err(MemError::BadPage(pid, PageNum(past as u32)));
            }
            let mut i = first.idx();
            while i < end {
                let room = free.saturating_sub(floor);
                if room == 0 {
                    skipped += end - i;
                    break;
                }
                let held = pm.pt.resident_prefix(PageNum(i as u32), end - i);
                skipped += held;
                i += held;
                let absent = pm.pt.absent_prefix(PageNum(i as u32), (end - i).min(room));
                pm.pt.map_run(PageNum(i as u32), absent, now, &mut on_page);
                mapped += absent;
                *free -= absent;
                i += absent;
            }
        }
        pm.wss_current += mapped;
        Ok((mapped, skipped))
    }

    // ------------------------------------------------------------------
    // Working-set tracking
    // ------------------------------------------------------------------

    /// Note that `pid` has been granted a new quantum: close the previous
    /// reference epoch and start a fresh one.
    pub fn quantum_started(&mut self, pid: ProcId) -> Result<(), MemError> {
        let pm = self.proc_mut(pid)?;
        if pm.started || pm.wss_current > 0 {
            pm.wss_last = Some(pm.wss_current);
        }
        pm.started = true;
        pm.pt.new_epoch();
        pm.wss_current = 0;
        Ok(())
    }

    /// Working-set estimate for `pid` in pages: the reference count from
    /// its previous quantum, falling back to its current RSS + swapped
    /// footprint capped at usable memory when no history exists.
    pub fn wss_estimate(&self, pid: ProcId) -> Result<usize, MemError> {
        let pm = self.proc(pid)?;
        let est = match pm.wss_last {
            Some(w) if w > 0 => w,
            // No completed quantum yet: assume it will want everything it
            // has ever touched.
            _ => pm.pt.touched(),
        };
        Ok(est.min(self.params.usable_frames()))
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Verify frame conservation, counter consistency, swap-owner map
    /// coherence, and that every block a page references is allocated.
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let rss_sum: usize = self.procs.values().map(|m| m.pt.resident()).sum();
        let usable = self.params.usable_frames();
        if self.free + rss_sum != usable {
            return Err(format!(
                "frame conservation violated: free {} + rss {} != usable {}",
                self.free, rss_sum, usable
            ));
        }
        let mut owned_blocks = 0u64;
        for (&pid, pm) in &self.procs {
            let (mut resident, mut dirty) = (0, 0);
            for (p, st) in pm.pt.iter() {
                // Swapped image or clean copy: the allocator must hold it,
                // or the next allocation can hand it to another page.
                if let Some(b) = pm.pt.block(p).filter(|&b| !self.swap.is_allocated(b)) {
                    return Err(format!("{pid}/{p:?} references free swap block {b}"));
                }
                match st {
                    PageState::Resident(r) => {
                        resident += 1;
                        if r.dirty {
                            dirty += 1;
                            if r.swap_copy.is_some() {
                                return Err(format!("dirty page {pid}/{p:?} holds a swap copy"));
                            }
                        }
                        if let Some(b) = r.swap_copy {
                            // Clean copies must be registered for read-ahead.
                            if self.swap_owner.get(b) != Some((pid, p)) {
                                return Err(format!(
                                    "swap copy {b} of {pid}/{p:?} missing from owner map"
                                ));
                            }
                            owned_blocks += 1;
                        }
                    }
                    PageState::Swapped { block } => {
                        if self.swap_owner.get(block) != Some((pid, p)) {
                            return Err(format!(
                                "swapped page {pid}/{p:?} block {block} not in owner map"
                            ));
                        }
                        owned_blocks += 1;
                    }
                    PageState::Untouched => {}
                }
            }
            if resident != pm.pt.resident() {
                return Err(format!(
                    "{pid} resident counter {} != actual {resident}",
                    pm.pt.resident()
                ));
            }
            if dirty != pm.pt.dirty_resident() {
                return Err(format!(
                    "{pid} dirty counter {} != actual {dirty}",
                    pm.pt.dirty_resident()
                ));
            }
        }
        if owned_blocks != self.swap.used_blocks() {
            return Err(format!(
                "swap leak: pages reference {owned_blocks} blocks but allocator has {} in use",
                self.swap.used_blocks()
            ));
        }
        // Reverse direction: every owner-map entry must point at a page that
        // actually references the block, so stale entries cannot linger and
        // feed read-ahead garbage. (The forward pass counted every
        // referencing page, so equal sizes + forward coverage = bijection.)
        if self.swap_owner.len as u64 != owned_blocks {
            return Err(format!(
                "owner map has {} entries but pages reference {owned_blocks} blocks",
                self.swap_owner.len
            ));
        }
        for (block, (pid, p)) in self.swap_owner.iter() {
            let references = self
                .procs
                .get(&pid)
                .is_some_and(|pm| p.idx() < pm.pt.len() && pm.pt.block(p) == Some(block));
            if !references {
                return Err(format!(
                    "stale owner-map entry: block {block} -> {pid}/{p:?} which does not \
                     reference it"
                ));
            }
        }
        Ok(())
    }
}

/// One process's page table and the swap state its touches free, from
/// [`Kernel::toucher`]: the executor runs a rank's touch steps back to
/// back through one handle, with one process lookup.
pub struct Toucher<'a> {
    pid: ProcId,
    pm: &'a mut ProcMem,
    swap: &'a mut SwapSpace,
    swap_owner: &'a mut SwapOwners,
    obs: &'a ObsLink,
}

impl Toucher<'_> {
    /// Touch up to `max` consecutive pages starting at `first`, stopping
    /// at the first non-resident page. Returns `(hits, fault)` where
    /// `hits` is the number of resident pages touched and `fault` is the
    /// outcome for the first non-resident page, if one was reached within
    /// the run.
    ///
    /// This is the executor's hot path (a class B LU run touches ~10⁷
    /// pages): the page table finds and touches the resident prefix a
    /// word of pages at a time.
    pub fn touch_run(
        &mut self,
        first: PageNum,
        max: usize,
        write: bool,
        now: SimTime,
    ) -> Result<(usize, Option<TouchOutcome>), MemError> {
        let Toucher {
            pid,
            pm,
            swap,
            swap_owner,
            obs,
        } = self;
        let end = first.idx() + max;
        if max > 0 && end > pm.pt.len() {
            return Err(MemError::BadPage(*pid, PageNum((end - 1) as u32)));
        }
        let hits = pm.pt.resident_prefix(first, max);
        if hits > 0 {
            // A write makes any swap copy stale; drop it (the Linux swap
            // cache frees the entry on write), so the invariant "dirty ⟹
            // no swap copy" holds.
            pm.wss_current += pm.pt.touch_resident(first, hits, now, write, |b, n| {
                swap_owner.remove_run(b, n);
                swap.free_extent(Extent::new(b, n));
            });
        }
        if hits == max {
            return Ok((hits, None));
        }
        let p = PageNum(first.0 + hits as u32);
        let outcome = match pm.pt.block(p) {
            Some(block) => TouchOutcome::NeedsSwapIn { block },
            None => TouchOutcome::NeedsZeroFill,
        };
        obs.emit(now, || ObsEvent::PageFault {
            pid: pid.0,
            page: p.0,
            major: outcome != TouchOutcome::NeedsZeroFill,
        });
        Ok((hits, Some(outcome)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_disk::extents_from_blocks;

    const T: SimTime = SimTime::from_us(1_000);

    fn kernel(frames: usize) -> Kernel {
        let params = VmParams {
            total_frames: frames,
            wired_frames: 0,
            freepages_min: 4,
            freepages_high: 8,
            readahead: 16,
        };
        Kernel::new(params, 4096)
    }

    /// Process 1 with 16 pages, page 0 zero-filled at `T`: where a
    /// first-touch sweep starts.
    fn swept(frames: usize) -> Kernel {
        let mut k = kernel(frames);
        k.register_proc(ProcId(1), 16);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k
    }

    const C: SimDur = SimDur::from_us(5);

    #[test]
    fn first_touch_run_maps_an_age_ramp_up_to_max() {
        let mut k = swept(64);
        let m = k.first_touch_run(ProcId(1), PageNum(0), 3, true, T, C);
        assert_eq!(m, Ok(3));
        let pm = k.proc(ProcId(1)).unwrap();
        for p in 0..=3 {
            assert_eq!(pm.pt.last_ref(PageNum(p)), Some(T + C * u64::from(p)));
        }
        assert!(pm.pt.is_dirty(PageNum(2)) && !pm.pt.is_dirty(PageNum(3)));
        assert_eq!(pm.pt.state(PageNum(4)), PageState::Untouched);
        assert_eq!(
            (pm.rss(), pm.pt.dirty_resident(), pm.wss_current()),
            (4, 3, 4)
        );
        assert_eq!(k.free_frames(), 60);
        k.check_invariants().unwrap();
    }

    #[test]
    fn first_touch_run_stops_before_a_resident_page() {
        let mut k = swept(64);
        k.map_in(ProcId(1), PageNum(5), T).unwrap();
        assert_eq!(
            k.first_touch_run(ProcId(1), PageNum(0), 16, false, T, C),
            Ok(4)
        );
        // From page 5, the table's end stops it.
        assert_eq!(
            k.first_touch_run(ProcId(1), PageNum(5), 16, false, T, C),
            Ok(10)
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn first_touch_run_stops_before_a_swapped_page() {
        let mut k = swept(64);
        let pid = ProcId(1);
        k.map_in(pid, PageNum(3), T).unwrap();
        k.touch(pid, PageNum(3), true, T).unwrap();
        k.evict(pid, PageNum(3)).unwrap();
        assert_eq!(k.first_touch_run(pid, PageNum(0), 16, true, T, C), Ok(2));
        assert!(matches!(
            k.proc(pid).unwrap().pt.state(PageNum(3)),
            PageState::Swapped { .. }
        ));
        k.check_invariants().unwrap();
    }

    #[test]
    fn first_touch_run_keeps_the_frame_floor() {
        // 10 frames, freepages.min 4: 9 are free after page 0, so five
        // fills reach the floor and a sixth would reclaim.
        let mut k = swept(10);
        assert_eq!(
            k.first_touch_run(ProcId(1), PageNum(0), 16, false, T, C),
            Ok(5)
        );
        assert_eq!(k.free_frames(), 4);
        assert_eq!(
            k.first_touch_run(ProcId(1), PageNum(5), 16, false, T, C),
            Ok(0)
        );
        assert!(!k.below_min());
    }

    #[test]
    fn demand_zero_lifecycle() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 10);
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::NeedsZeroFill
        );
        assert_eq!(
            k.map_in(ProcId(1), PageNum(0), T).unwrap(),
            MapInOutcome::Zeroed
        );
        assert_eq!(k.free_frames(), 63);
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::Hit
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn clean_never_written_page_drops_to_untouched() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(2), T).unwrap();
        let out = k.evict(ProcId(1), PageNum(2)).unwrap();
        assert_eq!(out, EvictOutcome::Dropped);
        assert_eq!(
            k.proc(ProcId(1)).unwrap().pt.state(PageNum(2)),
            PageState::Untouched
        );
        assert_eq!(k.free_frames(), 64);
        assert_eq!(k.swap().used_blocks(), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn dirty_page_roundtrips_through_swap() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.touch(ProcId(1), PageNum(0), true, T).unwrap();
        let EvictOutcome::Write { block } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!("dirty page must be written");
        };
        assert_eq!(k.swap().used_blocks(), 1);
        // Fault it back.
        assert_eq!(
            k.touch(ProcId(1), PageNum(0), false, T).unwrap(),
            TouchOutcome::NeedsSwapIn { block }
        );
        assert_eq!(
            k.map_in(ProcId(1), PageNum(0), T).unwrap(),
            MapInOutcome::Read { block }
        );
        // Now resident, clean, with a valid copy: a second eviction is free.
        assert_eq!(
            k.evict(ProcId(1), PageNum(0)).unwrap(),
            EvictOutcome::Dropped
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn redirty_frees_stale_copy_and_rewrites() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.touch(ProcId(1), PageNum(0), true, T).unwrap();
        let EvictOutcome::Write { .. } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!()
        };
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        assert_eq!(k.swap().used_blocks(), 1, "swap copy retained while clean");
        k.touch(ProcId(1), PageNum(0), true, T).unwrap(); // re-dirty
        assert_eq!(
            k.swap().used_blocks(),
            0,
            "write frees the stale swap copy (swap-cache semantics)"
        );
        let EvictOutcome::Write { .. } = k.evict(ProcId(1), PageNum(0)).unwrap() else {
            panic!("re-dirtied page must be written")
        };
        assert_eq!(k.swap().used_blocks(), 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn write_touch_invalidates_readahead_chain() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        // Build two swapped pages at contiguous blocks.
        for p in 0..2 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let mut log = Vec::new();
        let ext = k
            .evict_batch(ProcId(1), &[PageNum(0), PageNum(1)], &mut log)
            .unwrap();
        assert_eq!(ext.len(), 1, "batch eviction is contiguous");
        let b0 = ext[0].start;
        // Read-ahead from block b0 maps page 1 at b0+1, as map_in would.
        let (mut twin, mut by_map_in) = (k.clone(), k.clone());
        let mut seen = Vec::new();
        let n = twin
            .map_in_readahead(ProcId(1), b0, 16, T, |p| seen.push(p))
            .unwrap();
        assert_eq!((n, seen), (1, vec![PageNum(1)]));
        by_map_in.map_in(ProcId(1), PageNum(1), T).unwrap();
        let (a, b) = (
            twin.proc(ProcId(1)).unwrap(),
            by_map_in.proc(ProcId(1)).unwrap(),
        );
        assert_eq!(a.pt.state(PageNum(1)), b.pt.state(PageNum(1)));
        assert_eq!(a.wss_current(), b.wss_current());
        assert_eq!(twin.free_frames(), by_map_in.free_frames());
        twin.check_invariants().unwrap();
        // Fault page 1 back in and dirty it: its copy is stale, chain is cut.
        k.map_in(ProcId(1), PageNum(1), T).unwrap();
        k.touch(ProcId(1), PageNum(1), true, T).unwrap();
        let n = k
            .map_in_readahead(ProcId(1), b0, 16, T, |p| panic!("mapped {p:?}"))
            .unwrap();
        assert_eq!(n, 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn evict_batch_allocates_contiguous_swap() {
        let mut k = kernel(256);
        k.register_proc(ProcId(1), 100);
        for p in 0..100 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..100).map(PageNum).collect();
        let mut log = Vec::new();
        let ext = k.evict_batch(ProcId(1), &pages, &mut log).unwrap();
        assert_eq!(ext.len(), 1, "fresh swap, one extent");
        assert_eq!(ext[0].len, 100);
        assert_eq!(log.len(), 100);
        assert_eq!(k.free_frames(), 256);
        k.check_invariants().unwrap();
    }

    #[test]
    fn evict_batch_skips_stale_candidates() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        let mut log = Vec::new();
        // Page 1 was never resident; batch must skip it gracefully.
        let ext = k
            .evict_batch(ProcId(1), &[PageNum(0), PageNum(1)], &mut log)
            .unwrap();
        assert!(ext.is_empty(), "clean page: no writes");
        assert_eq!(log, vec![PageNum(0)]);
        assert_eq!(k.swap().used_blocks(), 0, "unused fresh blocks returned");
        k.check_invariants().unwrap();
    }

    #[test]
    fn out_of_frames_is_reported() {
        let mut k = kernel(2);
        k.register_proc(ProcId(1), 4);
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.map_in(ProcId(1), PageNum(1), T).unwrap();
        assert_eq!(
            k.map_in(ProcId(1), PageNum(2), T),
            Err(MemError::OutOfFrames)
        );
    }

    #[test]
    fn watermark_logic() {
        let mut k = kernel(64); // min 4, high 8
        k.register_proc(ProcId(1), 64);
        for p in 0..61 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        assert_eq!(k.free_frames(), 3);
        assert!(k.below_min());
        assert_eq!(k.reclaim_target(), 5);
        // Reclaim to high.
        let pages: Vec<PageNum> = (0..5).map(PageNum).collect();
        k.evict_batch(ProcId(1), &pages, &mut Vec::new()).unwrap();
        assert!(!k.below_min());
        assert_eq!(k.reclaim_target(), 0);
    }

    #[test]
    fn wss_tracking_across_quanta() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        k.quantum_started(ProcId(1)).unwrap();
        for p in 0..10 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        // Touching the same pages again does not inflate WSS.
        for p in 0..10 {
            k.touch(ProcId(1), PageNum(p), false, T).unwrap();
        }
        assert_eq!(k.proc(ProcId(1)).unwrap().wss_current(), 10);
        k.quantum_started(ProcId(1)).unwrap();
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 10);
        // New quantum touches fewer pages.
        for p in 0..3 {
            k.touch(ProcId(1), PageNum(p), false, T).unwrap();
        }
        k.quantum_started(ProcId(1)).unwrap();
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 3);
    }

    #[test]
    fn wss_estimate_without_history_uses_footprint() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        for p in 0..5 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        assert_eq!(k.wss_estimate(ProcId(1)).unwrap(), 5);
    }

    #[test]
    fn largest_rss_selection() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 16);
        k.register_proc(ProcId(2), 16);
        for p in 0..3 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
        }
        for p in 0..7 {
            k.map_in(ProcId(2), PageNum(p), T).unwrap();
        }
        assert_eq!(k.largest_rss_proc(None), Some(ProcId(2)));
        assert_eq!(k.largest_rss_proc(Some(ProcId(2))), Some(ProcId(1)));
        assert_eq!(k.largest_rss_proc(Some(ProcId(2))), Some(ProcId(1)));
    }

    #[test]
    fn unregister_releases_everything() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 8);
        for p in 0..8 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..4).map(PageNum).collect();
        k.evict_batch(ProcId(1), &pages, &mut Vec::new()).unwrap();
        assert!(k.swap().used_blocks() > 0);
        k.unregister_proc(ProcId(1)).unwrap();
        assert_eq!(k.free_frames(), 64);
        assert_eq!(k.swap().used_blocks(), 0);
        assert!(k.check_invariants().is_ok());
    }

    #[test]
    fn clean_batch_keeps_pages_resident() {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 8);
        for p in 0..8 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        let pages: Vec<PageNum> = (0..8).map(PageNum).collect();
        let ext = k.clean_batch(ProcId(1), &pages).unwrap();
        assert_eq!(ext.len(), 1);
        assert_eq!(ext[0].len, 8);
        let pm = k.proc(ProcId(1)).unwrap();
        assert_eq!(pm.rss(), 8, "pages stay resident");
        assert_eq!(pm.pt.dirty_resident(), 0, "pages are now clean");
        // Evicting them later costs nothing.
        let ext2 = k.evict_batch(ProcId(1), &pages, &mut Vec::new()).unwrap();
        assert!(ext2.is_empty());
        k.check_invariants().unwrap();
    }

    #[test]
    fn touch_run_matches_single_touches() {
        let pid = ProcId(1);
        // Build two identical kernels; drive one with touch_run and the
        // other with per-page touch; states must match.
        let mut k1 = kernel(64);
        let mut k2 = kernel(64);
        for k in [&mut k1, &mut k2] {
            k.register_proc(pid, 16);
            for p in 0..8 {
                k.map_in(pid, PageNum(p), T).unwrap();
            }
            // Page 5 swapped out.
            k.touch(pid, PageNum(5), true, T).unwrap();
            k.evict(pid, PageNum(5)).unwrap();
        }
        let t = SimTime::from_us(9_999);
        let (hits, fault) = k1.touch_run(pid, PageNum(0), 16, true, t).unwrap();
        let mut hits2 = 0;
        let mut fault2 = None;
        for p in 0..16 {
            match k2.touch(pid, PageNum(p), true, t).unwrap() {
                TouchOutcome::Hit => hits2 += 1,
                other => {
                    fault2 = Some(other);
                    break;
                }
            }
        }
        assert_eq!(hits, hits2);
        assert_eq!(hits, 5, "pages 0..5 hit, page 5 faults");
        assert_eq!(fault, fault2);
        assert!(matches!(fault, Some(TouchOutcome::NeedsSwapIn { .. })));
        assert_eq!(
            k1.proc(pid).unwrap().wss_current(),
            k2.proc(pid).unwrap().wss_current()
        );
        k1.check_invariants().unwrap();
        k2.check_invariants().unwrap();
    }

    #[test]
    fn touch_run_full_hit_and_bounds() {
        let pid = ProcId(1);
        let mut k = kernel(64);
        k.register_proc(pid, 8);
        for p in 0..8 {
            k.map_in(pid, PageNum(p), T).unwrap();
        }
        let (hits, fault) = k.touch_run(pid, PageNum(2), 6, false, T).unwrap();
        assert_eq!((hits, fault), (6, None));
        assert!(
            k.touch_run(pid, PageNum(4), 5, false, T).is_err(),
            "overruns space"
        );
        assert_eq!(
            k.touch_run(pid, PageNum(0), 0, false, T).unwrap(),
            (0, None)
        );
    }

    #[test]
    fn touch_run_write_frees_stale_copies() {
        let pid = ProcId(1);
        let mut k = kernel(256);
        k.register_proc(pid, 130);
        // Clean-with-copy pages 60..130, straddling two word edges, via
        // evict + fault-back.
        let pages: Vec<PageNum> = (60..130).map(PageNum).collect();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
            k.touch(pid, p, true, T).unwrap();
        }
        k.evict_batch(pid, &pages, &mut Vec::new()).unwrap();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
        }
        assert_eq!(k.swap().used_blocks(), 70);
        let (hits, _) = k.touch_run(pid, PageNum(60), 70, true, T).unwrap();
        assert_eq!(hits, 70);
        assert_eq!(k.swap().used_blocks(), 0, "all copies freed on write");
        assert_eq!(k.swap_owner.len, 0);
        k.check_invariants().unwrap();
        // Already dirty: a second write run frees nothing twice.
        k.touch_run(pid, PageNum(60), 70, true, T).unwrap();
        assert_eq!(k.swap().free_blocks(), 4096);
        k.check_invariants().unwrap();
    }

    #[test]
    fn owner_map_grows_only_on_page_out() {
        let params = VmParams::for_frames(4096, 0);
        let mut k = Kernel::new(params, 512 * 1024);
        assert!(k.swap_owner.chunks.is_empty(), "nothing allocated up front");
        k.register_proc(ProcId(1), 8);
        for p in 0..8 {
            k.map_in(ProcId(1), PageNum(p), T).unwrap();
            k.touch(ProcId(1), PageNum(p), true, T).unwrap();
        }
        assert!(k.swap_owner.chunks.is_empty());
        let EvictOutcome::Write { block } = k.evict(ProcId(1), PageNum(3)).unwrap() else {
            panic!("dirty page must be written");
        };
        assert!(block < CHUNK as u64);
        assert_eq!(k.swap_owner.chunks.len(), 1, "one chunk after the page-out");
        assert!(k.swap_owner.chunks[0].is_some());
        assert_eq!(k.swap_owner.len, 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn readahead_stops_past_owner_table_end() {
        let pid = ProcId(1);
        let mut k = kernel(64);
        k.register_proc(pid, 4);
        let pages: Vec<PageNum> = (0..3).map(PageNum).collect();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
            k.touch(pid, p, true, T).unwrap();
        }
        let ext = k.evict_batch(pid, &pages, &mut Vec::new()).unwrap();
        let b0 = ext[0].start;
        let last = b0 + 2;
        assert_eq!(
            k.swap_owner.chunks.len(),
            1,
            "the table ends at the first chunk"
        );
        assert_eq!(k.swap_owner.get(last + 1), None, "end of the used blocks");
        assert_eq!(k.swap_owner.get(CHUNK as u64), None, "past the last chunk");
        let readahead = |k: &mut Kernel, pid, block, limit| {
            let mut seen = Vec::new();
            k.map_in_readahead(pid, block, limit, T, |p| seen.push(p))
                .map(|n| (n, seen))
        };
        assert_eq!(
            readahead(&mut k.clone(), pid, b0, 16),
            Ok((2, vec![PageNum(1), PageNum(2)]))
        );
        assert_eq!(
            readahead(&mut k.clone(), pid, b0, 1),
            Ok((1, vec![PageNum(1)])),
            "limit"
        );
        assert_eq!(readahead(&mut k, pid, last, 16), Ok((0, vec![])));
        assert_eq!(
            readahead(&mut k, pid, CHUNK as u64 - 1, 16),
            Ok((0, vec![]))
        );
        assert_eq!(readahead(&mut k, pid, 100_000, 16), Ok((0, vec![])));
        // With one frame free, read-ahead stops after one page.
        let mut full = k.clone();
        full.register_proc(ProcId(3), 64);
        for p in 0..full.free_frames() - 1 {
            full.map_in(ProcId(3), PageNum(p as u32), T).unwrap();
        }
        assert_eq!(readahead(&mut full, pid, b0, 16), Ok((1, vec![PageNum(1)])));
        assert_eq!(full.free_frames(), 0);
        full.check_invariants().unwrap();
        // Another process reads nothing over these blocks, and an
        // unregistered pid is an error, over its old blocks too.
        k.register_proc(ProcId(2), 4);
        assert_eq!(readahead(&mut k, ProcId(2), b0, 16), Ok((0, vec![])));
        assert_eq!(
            readahead(&mut k, ProcId(9), b0, 16),
            Err(MemError::NoSuchProc(ProcId(9)))
        );
        k.unregister_proc(pid).unwrap();
        assert_eq!(
            readahead(&mut k, pid, b0, 16),
            Err(MemError::NoSuchProc(pid))
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn batch_eviction_straddles_an_owner_chunk_edge() {
        let pid = ProcId(1);
        let n = CHUNK as u32 + 4;
        let mut k = Kernel::new(VmParams::for_frames(2 * CHUNK, 0), 2 * CHUNK as u64);
        k.register_proc(pid, n as usize);
        let pages: Vec<PageNum> = (0..n).map(PageNum).collect();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
            k.touch(pid, p, true, T).unwrap();
        }
        // One batch from fresh swap: page i lands at block i, so blocks
        // 4095 and 4096 sit on either side of the first chunk edge.
        let ext = k.evict_batch(pid, &pages, &mut Vec::new()).unwrap();
        assert_eq!(ext, vec![Extent::new(0, u64::from(n))]);
        assert_eq!(k.swap_owner.chunks.len(), 2);
        let edge = CHUNK as u64;
        assert_eq!(
            k.swap_owner.get(edge - 1),
            Some((pid, PageNum(CHUNK as u32 - 1)))
        );
        assert_eq!(k.swap_owner.get(edge), Some((pid, PageNum(CHUNK as u32))));
        // Read-ahead chases across the edge and stops at the last block.
        let mut seen = Vec::new();
        let got = k.map_in_readahead(pid, edge - 3, 16, T, |p| seen.push(p));
        assert_eq!(got, Ok(6));
        assert_eq!(seen, (CHUNK as u32 - 2..n).map(PageNum).collect::<Vec<_>>());
        k.check_invariants().unwrap();
        // Past the last chunk, `get` finds nothing and `remove` does
        // nothing.
        let past = 2 * edge + 7;
        assert_eq!(k.swap_owner.get(past), None);
        let len = k.swap_owner.len;
        k.swap_owner.remove_run(past, 1);
        assert_eq!(k.swap_owner.len, len);
        assert_eq!(k.swap_owner.chunks.len(), 2);
        k.check_invariants().unwrap();
    }

    /// Ten pages whose swap copies sit at blocks 0..10, of which pages 2
    /// and 5 have been re-dirtied (freeing their blocks), plus dirty page
    /// 10, on a 12-block device: the free runs are {2}, {5} and {10, 11},
    /// so an allocation of 4 comes back as three extents.
    fn fragmented_swap() -> Kernel {
        let pid = ProcId(1);
        let mut k = Kernel::new(VmParams::for_frames(64, 0), 12);
        k.register_proc(pid, 11);
        let pages: Vec<PageNum> = (0..10).map(PageNum).collect();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
            k.touch(pid, p, true, T).unwrap();
        }
        k.evict_batch(pid, &pages, &mut Vec::new()).unwrap();
        for &p in &pages {
            k.map_in(pid, p, T).unwrap();
        }
        k.map_in(pid, PageNum(10), T).unwrap();
        for p in [2, 5, 10] {
            k.touch(pid, PageNum(p), true, T).unwrap();
        }
        assert_eq!(k.swap().fragments(), 3);
        k
    }

    /// The blocks `pages` of `pid` hold, coalesced the reference way.
    fn written(k: &Kernel, pid: ProcId, pages: &[u32]) -> Vec<Extent> {
        let pt = &k.proc(pid).unwrap().pt;
        let mut blocks: Vec<u64> = pages.iter().filter_map(|&p| pt.block(PageNum(p))).collect();
        extents_from_blocks(&mut blocks)
    }

    /// Whether the allocator holds exactly as many blocks as `pid`'s pages
    /// reference.
    fn holds_exactly(k: &Kernel, pid: ProcId) -> bool {
        let pt = &k.proc(pid).unwrap().pt;
        let referenced = (0..pt.len() as u32).filter(|&p| pt.block(PageNum(p)).is_some());
        referenced.count() as u64 == k.swap().used_blocks()
    }

    #[test]
    fn evict_batch_writes_the_allocation_cut_to_the_blocks_used() {
        let pid = ProcId(1);
        let mut k = fragmented_swap();
        // Four dirty entries but three pages: alloc(4) hands out [2], [5]
        // and [10, 11], and block 11 goes unused.
        let ext = k
            .evict_batch(pid, &[2, 5, 10, 2].map(PageNum), &mut Vec::new())
            .unwrap();
        assert_eq!(
            ext,
            vec![Extent::new(2, 1), Extent::new(5, 1), Extent::new(10, 1)]
        );
        assert_eq!(ext, written(&k, pid, &[2, 5, 10]));
        assert!(holds_exactly(&k, pid), "the unused block is free again");
        assert!(!k.swap().is_allocated(11));
        k.check_invariants().unwrap();
    }

    #[test]
    fn clean_batch_writes_the_allocation_cut_to_the_blocks_used() {
        let pid = ProcId(1);
        let mut k = fragmented_swap();
        // Pages 2 and 5 twice each: alloc(4) hands out [2], [5] and
        // [10, 11], and the whole last extent goes unused.
        let ext = k.clean_batch(pid, &[2, 2, 5, 5].map(PageNum)).unwrap();
        assert_eq!(ext, vec![Extent::new(2, 1), Extent::new(5, 1)]);
        assert_eq!(ext, written(&k, pid, &[2, 5]));
        assert!(holds_exactly(&k, pid), "the unused blocks are free again");
        assert!(!k.swap().is_allocated(10) && !k.swap().is_allocated(11));
        k.check_invariants().unwrap();
    }

    #[test]
    fn invariants_reject_a_page_on_a_freed_block() {
        let pid = ProcId(1);
        let mut k = kernel(64);
        k.register_proc(pid, 4);
        k.map_in(pid, PageNum(0), T).unwrap();
        k.touch(pid, PageNum(0), true, T).unwrap();
        let EvictOutcome::Write { block } = k.evict(pid, PageNum(0)).unwrap() else {
            panic!("dirty page must be written");
        };
        // Leak one block, then free the page's own: the counts still agree
        // (one block referenced, one in use), but the page points at a
        // free block.
        k.swap.alloc(1).unwrap();
        k.swap.free_extent(Extent::new(block, 1));
        assert_eq!(k.swap.used_blocks(), 1);
        let err = k.check_invariants().unwrap_err();
        assert!(err.contains("free swap block"), "{err}");
    }

    #[test]
    fn bad_page_errors() {
        let mut k = kernel(8);
        k.register_proc(ProcId(1), 2);
        assert!(matches!(
            k.touch(ProcId(1), PageNum(5), false, T),
            Err(MemError::BadPage(_, _))
        ));
        assert!(matches!(
            k.touch(ProcId(9), PageNum(0), false, T),
            Err(MemError::NoSuchProc(_))
        ));
        // A batch fails on its first entry past the table, in list order
        // (here inside the table's only word, then past it), before it
        // changes anything.
        k.map_in(ProcId(1), PageNum(0), T).unwrap();
        k.touch(ProcId(1), PageNum(0), true, T).unwrap();
        let list = [0, 1, 3, 70, 2].map(PageNum);
        let bad = Err(MemError::BadPage(ProcId(1), PageNum(3)));
        assert_eq!(k.evict_batch(ProcId(1), &list, &mut Vec::new()), bad);
        assert_eq!(k.clean_batch(ProcId(1), &list), bad);
        let bad = Err(MemError::BadPage(ProcId(1), PageNum(70)));
        assert_eq!(k.clean_batch(ProcId(1), &[PageNum(70), PageNum(3)]), bad);
        assert_eq!(k.proc(ProcId(1)).unwrap().pt.dirty_resident(), 1);
        assert_eq!(k.swap().used_blocks(), 0);
        k.check_invariants().unwrap();
    }
}
