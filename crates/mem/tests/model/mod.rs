//! A reference page table for model-equivalence tests: one
//! [`PageState`] per page in a `Vec`, every operation written the plain
//! page-at-a-time way, next to the reference extent allocator
//! ([`extents::ExtentSwap`]). Driving it and a [`Kernel`] with the same
//! operations must leave both in the same state after every step, down
//! to the swap block of every page.

pub mod extents;

use agp_disk::{extents_from_blocks, Extent};
use agp_mem::{Kernel, MapInOutcome, PageNum, PageState, ProcId, Resident, TouchOutcome, VmParams};
use agp_sim::SimTime;
use extents::ExtentSwap;

const PID: ProcId = ProcId(7);
/// Holds swap blocks `0..fill` from the start of each case.
const FILLER: ProcId = ProcId(8);
/// Two owner chunks of 4096 blocks, so runs can cross the chunk edge.
const SWAP_BLOCKS: u64 = 8192;

/// The order of an eviction or cleaning list. Clock and dirty sweeps
/// pass ascending lists; selective and aggressive page-out pass pages by
/// age, and the global LRU per-process groups of pages by age.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `first, first+1, …`, wrapping at the table end.
    Ascending,
    /// The ascending list backwards.
    Reversed,
    /// The two halves of the ascending list, merged entry by entry.
    Interleaved,
    /// Each page of the ascending list twice in a row.
    Repeating,
}

impl Shape {
    /// `len` pages of a table of `n` pages from `first`, in this order.
    fn list(self, n: usize, first: u16, len: usize) -> Vec<usize> {
        let at = |j: usize| (first as usize + j) % n;
        match self {
            Shape::Ascending => (0..len).map(at).collect(),
            Shape::Reversed => (0..len).rev().map(at).collect(),
            Shape::Interleaved => (0..len)
                .map(|j| at(j / 2 + (j % 2) * len.div_ceil(2)))
                .collect(),
            Shape::Repeating => (0..len).map(|j| at(j / 2)).collect(),
        }
    }
}

/// One operation on a table of `n` pages. Raw fields are reduced modulo
/// the table size when applied, so any values form a valid operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// Map every non-resident page of `first..first+len` (clipped).
    MapIn { first: u16, len: usize },
    /// `touch_run` over `first..first+len` (clipped).
    TouchRun { first: u16, len: usize, write: bool },
    /// `evict_batch` of a list of `len` pages from `first` in `shape`
    /// order, wrapping, so long lists repeat pages.
    EvictBatch {
        first: u16,
        len: usize,
        shape: Shape,
    },
    /// `clean_batch` of the same kind of list.
    CleanBatch {
        first: u16,
        len: usize,
        shape: Shape,
    },
    /// Clock sweep of up to `scan` pages for up to `victims` victims.
    ClockSweep { scan: usize, victims: u16 },
    /// Dirty sweep from `hand` over up to `scan` pages.
    DirtySweep {
        hand: u16,
        scan: usize,
        collect: u16,
    },
    /// Start a new working-set epoch.
    Quantum,
    /// Major fault on the first swapped page at or after `page`
    /// (wrapping): `map_in`, then read-ahead of up to `limit` pages.
    Fault { page: u16, limit: usize },
    /// `replay` of two overlapping runs, `first..first+len` and the `len`
    /// pages from its middle (both clipped), above a frame floor of
    /// `floor` (reduced modulo the frames).
    Replay { first: u16, len: usize, floor: u16 },
}

impl Op {
    /// Decode an operation from raw draws: `kind` picks the variant, the
    /// rest fill its fields.
    pub fn from_raw(kind: u8, a: u16, b: u16, len: usize, write: bool) -> Op {
        let shape = [
            Shape::Ascending,
            Shape::Reversed,
            Shape::Interleaved,
            Shape::Repeating,
        ][usize::from(b % 4)];
        match kind % KINDS {
            0 => Op::MapIn { first: a, len },
            1 => Op::TouchRun {
                first: a,
                len,
                write,
            },
            2 => Op::EvictBatch {
                first: a,
                len,
                shape,
            },
            3 => Op::CleanBatch {
                first: a,
                len,
                shape,
            },
            4 => Op::ClockSweep {
                scan: len,
                victims: b % 100,
            },
            5 => Op::DirtySweep {
                hand: a,
                scan: len,
                collect: b % 100,
            },
            6 => Op::Quantum,
            7 => Op::Fault {
                page: a,
                limit: len % 20,
            },
            _ => Op::Replay {
                first: a,
                len,
                floor: b,
            },
        }
    }
}

/// Number of [`Op`] variants [`Op::from_raw`] decodes.
pub const KINDS: u8 = 9;

/// The reference table of one process.
struct Model {
    pages: Vec<PageState>,
    hand: usize,
    swap: ExtentSwap,
    wss: usize,
}

impl Model {
    fn resident(&self, i: usize) -> Option<Resident> {
        match self.pages[i] {
            PageState::Resident(r) => Some(r),
            _ => None,
        }
    }

    fn map_in(&mut self, i: usize, now: SimTime) {
        let swap_copy = match self.pages[i] {
            PageState::Swapped { block } => Some(block),
            _ => None,
        };
        self.pages[i] = PageState::Resident(Resident {
            referenced: true,
            dirty: false,
            last_ref: now,
            swap_copy,
            in_epoch: true,
        });
        self.wss += 1;
    }

    fn touch_run(
        &mut self,
        first: usize,
        len: usize,
        write: bool,
        now: SimTime,
    ) -> (usize, Option<TouchOutcome>) {
        for i in first..first + len {
            let Some(mut r) = self.resident(i) else {
                let fault = match self.pages[i] {
                    PageState::Swapped { block } => TouchOutcome::NeedsSwapIn { block },
                    _ => TouchOutcome::NeedsZeroFill,
                };
                return (i - first, Some(fault));
            };
            r.referenced = true;
            r.last_ref = now;
            if write {
                r.dirty = true;
                if let Some(b) = r.swap_copy.take() {
                    self.swap.free_block(b);
                }
            }
            if !r.in_epoch {
                r.in_epoch = true;
                self.wss += 1;
            }
            self.pages[i] = PageState::Resident(r);
        }
        (len, None)
    }

    /// Fresh swap for every dirty page of `list`, in list order.
    fn alloc_dirty(&mut self, list: &[usize]) -> Vec<u64> {
        let need = list
            .iter()
            .filter(|&&i| self.resident(i).is_some_and(|r| r.dirty))
            .count();
        let extents = self.swap.alloc(need as u64).expect("model swap fits");
        extents.iter().flat_map(|e| e.start..e.end()).collect()
    }

    fn evict_batch(&mut self, list: &[usize]) -> (Vec<Extent>, Vec<PageNum>) {
        let mut fresh = self.alloc_dirty(list).into_iter();
        let (mut written, mut log) = (Vec::new(), Vec::new());
        for &i in list {
            let Some(r) = self.resident(i) else { continue };
            self.pages[i] = if r.dirty {
                let block = fresh.next().expect("one block per dirty page");
                written.push(block);
                PageState::Swapped { block }
            } else {
                r.swap_copy
                    .map_or(PageState::Untouched, |block| PageState::Swapped { block })
            };
            log.push(PageNum(i as u32));
        }
        fresh.for_each(|b| self.swap.free_block(b));
        (extents_from_blocks(&mut written), log)
    }

    fn clean_batch(&mut self, list: &[usize]) -> Vec<Extent> {
        let mut fresh = self.alloc_dirty(list).into_iter();
        let mut written = Vec::new();
        for &i in list {
            let Some(mut r) = self.resident(i).filter(|r| r.dirty) else {
                continue;
            };
            let block = fresh.next().expect("one block per dirty page");
            r.dirty = false;
            r.swap_copy = Some(block);
            self.pages[i] = PageState::Resident(r);
            written.push(block);
        }
        fresh.for_each(|b| self.swap.free_block(b));
        extents_from_blocks(&mut written)
    }

    /// Read-ahead after a fault on `block`: map the pages swapped out at
    /// `block+1, block+2, …`, at most `limit`, found by searching the
    /// table for each block.
    fn readahead(&mut self, block: u64, limit: usize, now: SimTime) -> Vec<PageNum> {
        let mut mapped = Vec::new();
        for b in (block + 1..).take(limit) {
            let swapped = |s: &PageState| *s == PageState::Swapped { block: b };
            let Some(i) = self.pages.iter().position(swapped) else {
                break;
            };
            self.map_in(i, now);
            mapped.push(PageNum(i as u32));
        }
        mapped
    }

    /// Replay of `runs` page by page: a resident page is skipped, and so
    /// is an absent one once no more than `floor` of the `usable` frames
    /// are free; every other page is mapped.
    fn replay(
        &mut self,
        runs: &[(usize, usize)],
        floor: usize,
        usable: usize,
        now: SimTime,
    ) -> (Vec<(PageNum, Option<u64>)>, usize) {
        let mut resident = self.pages.iter().filter(|s| s.is_resident()).count();
        let (mut mapped, mut skipped) = (Vec::new(), 0);
        for &(first, len) in runs {
            for i in first..first + len {
                if self.resident(i).is_some() || usable - resident <= floor {
                    skipped += 1;
                    continue;
                }
                let block = match self.pages[i] {
                    PageState::Swapped { block } => Some(block),
                    _ => None,
                };
                self.map_in(i, now);
                resident += 1;
                mapped.push((PageNum(i as u32), block));
            }
        }
        (mapped, skipped)
    }

    fn clock_sweep(&mut self, max_scan: usize, max_victims: usize) -> Vec<PageNum> {
        let n = self.pages.len();
        let mut victims = Vec::new();
        if max_victims == 0 {
            return victims;
        }
        let mut scanned = 0;
        while scanned < max_scan.min(n) && victims.len() < max_victims {
            let i = self.hand;
            self.hand = (self.hand + 1) % n;
            scanned += 1;
            if let Some(mut r) = self.resident(i) {
                if r.referenced {
                    r.referenced = false;
                    self.pages[i] = PageState::Resident(r);
                } else {
                    victims.push(PageNum(i as u32));
                }
            }
        }
        victims
    }

    fn dirty_sweep(
        &self,
        hand: usize,
        max_scan: usize,
        max_collect: usize,
    ) -> (Vec<PageNum>, usize) {
        let n = self.pages.len();
        let (mut hand, mut out, mut scanned) = (hand % n, Vec::new(), 0);
        while scanned < max_scan.min(n) && out.len() < max_collect {
            if self.resident(hand).is_some_and(|r| r.dirty) {
                out.push(PageNum(hand as u32));
            }
            hand = (hand + 1) % n;
            scanned += 1;
        }
        (out, hand)
    }
}

fn same<T: PartialEq + std::fmt::Debug>(what: &str, kernel: T, model: T) -> Result<(), String> {
    if kernel == model {
        Ok(())
    } else {
        Err(format!("{what}: kernel {kernel:?}, model {model:?}"))
    }
}

/// Everything observable about the process must agree.
fn compare(k: &Kernel, m: &Model) -> Result<(), String> {
    let pm = k.proc(PID).map_err(|e| e.to_string())?;
    for (i, want) in m.pages.iter().enumerate() {
        same(&format!("page {i}"), pm.pt.state(PageNum(i as u32)), *want)?;
    }
    let resident = m.pages.iter().filter(|s| s.is_resident()).count();
    let dirty = (0..m.pages.len())
        .filter(|&i| m.resident(i).is_some_and(|r| r.dirty))
        .count();
    same("resident", pm.pt.resident(), resident)?;
    same("dirty_resident", pm.pt.dirty_resident(), dirty)?;
    same("hand", pm.pt.hand(), m.hand)?;
    same("wss_current", pm.wss_current(), m.wss)?;
    same("swap in use", k.swap().used_blocks(), m.swap.used_blocks())?;
    k.check_invariants()
}

/// Page out `fill` pages of a filler process, a few at a time, so that
/// swap blocks `0..fill` are in use.
fn fill_swap(k: &mut Kernel, fill: usize) -> Result<(), agp_mem::MemError> {
    k.register_proc(FILLER, fill);
    let t = SimTime::ZERO;
    let pages: Vec<PageNum> = (0..fill as u32).map(PageNum).collect();
    for batch in pages.chunks(16) {
        for &p in batch {
            k.map_in(FILLER, p, t)?;
            k.touch(FILLER, p, true, t)?;
        }
        k.evict_batch(FILLER, batch, &mut Vec::new())?;
    }
    Ok(())
}

/// Apply `ops` to a kernel holding one process of `n` pages and to the
/// reference model; fail at the first step where they disagree. Both
/// start with swap blocks `0..fill` in use (the kernel's by a filler
/// process), so the process's swap runs start at `fill`.
pub fn check_ops(n: usize, fill: usize, ops: &[Op]) -> Result<(), String> {
    let usable = n + 16;
    let params = VmParams {
        total_frames: usable,
        wired_frames: 0,
        freepages_min: 4,
        freepages_high: 8,
        readahead: 16,
    };
    let err = |e: agp_mem::MemError| e.to_string();
    let mut k = Kernel::new(params, SWAP_BLOCKS);
    fill_swap(&mut k, fill).map_err(err)?;
    k.register_proc(PID, n);
    let mut m = Model {
        pages: vec![PageState::Untouched; n],
        hand: 0,
        swap: ExtentSwap::new(SWAP_BLOCKS),
        wss: 0,
    };
    same(
        "filled swap",
        m.swap.alloc(fill as u64).map_err(err)?,
        vec![Extent::new(0, fill as u64)],
    )?;
    same("used blocks", k.swap().used_blocks(), fill as u64)?;
    for (step, op) in ops.iter().enumerate() {
        let now = SimTime::from_us(step as u64 + 1);
        let at = |e: String| format!("step {step} {op:?}: {e}");
        match *op {
            Op::MapIn { first, len } => {
                let first = first as usize % n;
                for i in first..(first + len).min(n) {
                    if m.resident(i).is_none() {
                        k.map_in(PID, PageNum(i as u32), now).map_err(err)?;
                        m.map_in(i, now);
                    }
                }
            }
            Op::TouchRun { first, len, write } => {
                let first = first as usize % n;
                let len = len.min(n - first);
                let got = k
                    .touch_run(PID, PageNum(first as u32), len, write, now)
                    .map_err(err)?;
                same("touch_run", got, m.touch_run(first, len, write, now)).map_err(at)?;
            }
            Op::EvictBatch { first, len, shape } => {
                let list = shape.list(n, first, len);
                let pages: Vec<PageNum> = list.iter().map(|&i| PageNum(i as u32)).collect();
                let mut log = Vec::new();
                let ext = k.evict_batch(PID, &pages, &mut log).map_err(err)?;
                same("evict_batch", (ext, log), m.evict_batch(&list)).map_err(at)?;
            }
            Op::CleanBatch { first, len, shape } => {
                let list = shape.list(n, first, len);
                let pages: Vec<PageNum> = list.iter().map(|&i| PageNum(i as u32)).collect();
                let ext = k.clean_batch(PID, &pages).map_err(err)?;
                same("clean_batch", ext, m.clean_batch(&list)).map_err(at)?;
            }
            Op::ClockSweep { scan, victims } => {
                let got = k
                    .clock_sweep_proc(PID, scan, victims as usize)
                    .map_err(err)?;
                same("clock_sweep", got, m.clock_sweep(scan, victims as usize)).map_err(at)?;
            }
            Op::DirtySweep {
                hand,
                scan,
                collect,
            } => {
                let (hand, collect) = (hand as usize, collect as usize);
                let got = k.dirty_sweep(PID, hand, scan, collect).map_err(err)?;
                same("dirty_sweep", got, m.dirty_sweep(hand, scan, collect)).map_err(at)?;
            }
            Op::Quantum => {
                k.quantum_started(PID).map_err(err)?;
                for s in &mut m.pages {
                    if let PageState::Resident(r) = s {
                        r.in_epoch = false;
                    }
                }
                m.wss = 0;
            }
            Op::Fault { page, limit } => {
                let swapped = |j: usize| {
                    let i = (page as usize + j) % n;
                    match m.pages[i] {
                        PageState::Swapped { block } => Some((i, block)),
                        _ => None,
                    }
                };
                if let Some((i, block)) = (0..n).find_map(swapped) {
                    let read = k.map_in(PID, PageNum(i as u32), now).map_err(err)?;
                    same("map_in", read, MapInOutcome::Read { block }).map_err(at)?;
                    m.map_in(i, now);
                    let mut got = Vec::new();
                    let count = k
                        .map_in_readahead(PID, block, limit, now, |p| got.push(p))
                        .map_err(err)?;
                    let want = m.readahead(block, limit, now);
                    same("readahead", (count, got), (want.len(), want)).map_err(at)?;
                }
            }
            Op::Replay { first, len, floor } => {
                let first = first as usize % n;
                let clip = |lo: usize| (lo.min(n), (lo + len).min(n) - lo.min(n));
                let runs = [clip(first), clip(first + len / 2)];
                let floor = usize::from(floor) % usable;
                let mut got = Vec::new();
                let record = runs.iter().map(|&(p, len)| (PageNum(p as u32), len));
                let counts = k
                    .replay(PID, record, floor, now, |p, block| got.push((p, block)))
                    .map_err(err)?;
                let (want, skipped) = m.replay(&runs, floor, usable, now);
                same("replay", (counts, got), ((want.len(), skipped), want)).map_err(at)?;
            }
        }
        compare(&k, &m).map_err(at)?;
    }
    Ok(())
}

/// Map or re-touch (or, with `evict`, evict) the pages `first..first+len`
/// (clipped) of a table of `n` pages at age `age % 8`, for each step in
/// turn. Ages come from a small set and ranges span words, so equal ages
/// cover several runs. After each step `resident_oldest_first` must
/// equal the `(last_ref, page)` sort of the decoded resident pages.
pub fn check_oldest_first(n: usize, steps: &[(u16, usize, u8, bool)]) -> Result<(), String> {
    let mut k = Kernel::new(VmParams::for_frames(n + 16, 0), SWAP_BLOCKS);
    k.register_proc(PID, n);
    let err = |e: agp_mem::MemError| e.to_string();
    for (step, &(first, len, age, evict)) in steps.iter().enumerate() {
        let now = SimTime::from_us(u64::from(age % 8));
        let first = first as usize % n;
        for p in (first..(first + len).min(n)).map(|i| PageNum(i as u32)) {
            let resident = k.proc(PID).map_err(err)?.pt.is_resident(p);
            match (resident, evict) {
                (true, true) => k.evict(PID, p).map(|_| ()),
                (true, false) => k.touch(PID, p, false, now).map(|_| ()),
                (false, false) => k.map_in(PID, p, now).map(|_| ()),
                (false, true) => Ok(()),
            }
            .map_err(err)?;
        }
        let pt = &k.proc(PID).map_err(err)?.pt;
        let mut want: Vec<(SimTime, PageNum)> = (0..n as u32)
            .map(PageNum)
            .filter_map(|p| match pt.state(p) {
                PageState::Resident(r) => Some((r.last_ref, p)),
                _ => None,
            })
            .collect();
        want.sort_unstable();
        let want: Vec<PageNum> = want.into_iter().map(|(_, p)| p).collect();
        same("oldest first", pt.resident_oldest_first(), want)
            .map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(())
}
