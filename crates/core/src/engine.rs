//! The paging engine: demand-fault handling plus the paper's switch-time
//! API, parameterized by a [`PolicyConfig`].
//!
//! One engine instance exists per node (it plays the role of the node's
//! modified `vmscan.c` + the `/dev/kmem` interface of paper §3.5). It owns
//! the per-process page-in recorders and the background writer, and it is
//! the only component that decides *which* pages are evicted — `agp-mem`
//! supplies mechanisms, the cluster layer supplies time.

use crate::bgwrite::BgWriter;
use crate::policy::PolicyConfig;
use crate::recorder::PageRecorder;
use agp_disk::{extents_from_blocks, Extent};
use agp_mem::{Kernel, MapInOutcome, MemError, PageNum, ProcId};
use agp_obs::{ObsEvent, ObsLink};
use agp_sim::{SimDur, SimTime};
use std::collections::BTreeMap;

/// Disk work produced by a switch-time operation: writes are submitted
/// before reads (and the node's FIFO disk preserves that order).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoPlan {
    /// Page-out extents.
    pub writes: Vec<Extent>,
    /// Page-in extents.
    pub reads: Vec<Extent>,
}

impl IoPlan {
    /// Whether the plan moves no data.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// Total pages written.
    pub fn write_pages(&self) -> u64 {
        self.writes.iter().map(|e| e.len).sum()
    }

    /// Total pages read.
    pub fn read_pages(&self) -> u64 {
        self.reads.iter().map(|e| e.len).sum()
    }
}

/// Disk work produced by one demand fault: any synchronous reclaim writes,
/// then the fault + read-ahead reads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Reclaim write-back extents (empty unless memory was below
    /// `freepages.min`).
    pub writes: Vec<Extent>,
    /// Swap-in extents: at most one, the faulted page plus its
    /// swap-contiguous read-ahead neighbors.
    pub reads: Vec<Extent>,
    /// Pages mapped in by this fault (1 + read-ahead count, or 1 for a
    /// zero fill).
    pub mapped: usize,
}

impl FaultPlan {
    /// Whether the fault required no disk traffic (pure zero fill with no
    /// reclaim).
    pub fn is_io_free(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }
}

/// Cumulative engine statistics; the experiment layer aggregates these
/// across nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Faults that required a swap-in read.
    pub major_faults: u64,
    /// Faults satisfied by zero-filling (first touch).
    pub minor_faults: u64,
    /// Pages brought in by read-ahead (excluding the faulted page).
    pub readahead_pages: u64,
    /// Times the reclaim path ran because free memory fell below
    /// `freepages.min`.
    pub reclaim_calls: u64,
    /// Pages evicted on the demand-reclaim path.
    pub reclaimed_pages: u64,
    /// Demand-reclaim evictions that hit the *currently running* process —
    /// the paper's "false evictions" (§3.1). Selective page-out exists to
    /// drive this to zero.
    pub false_evictions: u64,
    /// Pages evicted by aggressive page-out at switches.
    pub aggressive_evictions: u64,
    /// Pages recorded for adaptive page-in.
    pub recorded_pages: u64,
    /// Pages brought back by adaptive page-in replay.
    pub replayed_pages: u64,
    /// Recorded pages skipped at replay (already resident or frame budget
    /// exhausted).
    pub replay_skipped: u64,
}

/// The one field-by-field sum of engine statistics: per-node totals, and
/// a crashed node's discarded engine carried into its replacement's.
impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, other: EngineStats) {
        let EngineStats {
            major_faults,
            minor_faults,
            readahead_pages,
            reclaim_calls,
            reclaimed_pages,
            false_evictions,
            aggressive_evictions,
            recorded_pages,
            replayed_pages,
            replay_skipped,
        } = other;
        self.major_faults += major_faults;
        self.minor_faults += minor_faults;
        self.readahead_pages += readahead_pages;
        self.reclaim_calls += reclaim_calls;
        self.reclaimed_pages += reclaimed_pages;
        self.false_evictions += false_evictions;
        self.aggressive_evictions += aggressive_evictions;
        self.recorded_pages += recorded_pages;
        self.replayed_pages += replayed_pages;
        self.replay_skipped += replay_skipped;
    }
}

/// Cached oldest-first victim ordering for the outgoing process.
///
/// Under the Linux-2.2 watermark spacing, reclaim runs every few dozen
/// faults; re-sorting the outgoing process's resident set each time would
/// be quadratic. The process is stopped, so its page ages are frozen —
/// one ordering computed at the switch stays valid for the whole quantum
/// (entries are re-checked for residency as they are consumed).
#[derive(Clone, Debug, Default)]
struct SelectiveCache {
    pid: Option<ProcId>,
    pages: Vec<PageNum>,
    cursor: usize,
}

/// Cached global-LRU victim stream for the original policy.
///
/// The baseline replacement is the global LRU the paper reasons with in
/// §3.1 ("A's lingering pages will be swapped out first, because they are
/// older than B's pages"): victims are the globally oldest resident pages
/// regardless of owner. A snapshot of `(last_ref, pid, page)` sorted
/// oldest-first is consumed incrementally; entries whose page has been
/// evicted or re-referenced since the snapshot are skipped (their age
/// changed), and the snapshot is rebuilt when it runs dry. This keeps the
/// amortized cost near O(log n) per eviction while selecting exactly the
/// LRU victim.
#[derive(Clone, Debug, Default)]
struct GlobalLruCache {
    entries: Vec<(SimTime, ProcId, PageNum)>,
    cursor: usize,
}

impl GlobalLruCache {
    fn rebuild(&mut self, kern: &Kernel) {
        self.entries.clear();
        self.cursor = 0;
        let pids: Vec<ProcId> = kern.procs_rss().map(|(p, _)| p).collect();
        for pid in pids {
            if let Ok(pm) = kern.proc(pid) {
                for (page, last_ref) in pm.pt.resident_ages() {
                    self.entries.push((last_ref, pid, page));
                }
            }
        }
        // Each process's pages come in page order, where a sweeping
        // process leaves its ages in a few ascending runs; the stable sort
        // merges runs instead of sorting from scratch. The keys are
        // distinct, so the order is the unstable sort's.
        self.entries.sort();
    }

    /// Pop up to `max` currently valid victims, grouped per process in
    /// encounter order (grouping lets the kernel batch swap allocation).
    fn pop_victims(&mut self, kern: &Kernel, max: usize) -> Vec<(ProcId, Vec<PageNum>)> {
        let mut out: Vec<(ProcId, Vec<PageNum>)> = Vec::new();
        let mut taken = 0;
        let mut rebuilt = false;
        while taken < max {
            if self.cursor >= self.entries.len() {
                if rebuilt {
                    break; // genuinely nothing evictable
                }
                self.rebuild(kern);
                rebuilt = true;
                if self.entries.is_empty() {
                    break;
                }
                continue;
            }
            let (t, pid, page) = self.entries[self.cursor];
            self.cursor += 1;
            let Ok(pm) = kern.proc(pid) else { continue };
            // Otherwise stale: evicted or re-referenced since the snapshot.
            if pm.pt.last_ref(page) == Some(t) {
                match out.last_mut() {
                    Some((p, v)) if *p == pid => v.push(page),
                    _ => out.push((pid, vec![page])),
                }
                taken += 1;
            }
        }
        out
    }
}

/// Per-node paging engine.
#[derive(Clone, Debug)]
pub struct PagingEngine {
    cfg: PolicyConfig,
    /// Process most recently descheduled on this node: the preferred
    /// reclaim victim while `selective` is on.
    outgoing: Option<ProcId>,
    /// Process currently scheduled on this node (evictions of anyone else
    /// are recorded when `adaptive_in` is on).
    running: Option<ProcId>,
    recorders: BTreeMap<ProcId, PageRecorder>,
    selective_cache: SelectiveCache,
    lru_cache: GlobalLruCache,
    /// Pages of the last batch eviction, kept between calls so the log's
    /// buffer is reused.
    evicted: Vec<PageNum>,
    bg: BgWriter,
    stats: EngineStats,
    obs: ObsLink,
}

impl PagingEngine {
    /// An engine enforcing `cfg`.
    pub fn new(cfg: PolicyConfig) -> Self {
        PagingEngine {
            cfg,
            outgoing: None,
            running: None,
            recorders: BTreeMap::new(),
            selective_cache: SelectiveCache::default(),
            lru_cache: GlobalLruCache::default(),
            evicted: Vec::new(),
            bg: BgWriter::default(),
            stats: EngineStats::default(),
            obs: ObsLink::disabled(),
        }
    }

    /// Attach an observation link (fault-service, reclaim, policy and
    /// background-writer events).
    pub fn set_observer(&mut self, obs: ObsLink) {
        self.obs = obs;
    }

    /// Active policy.
    pub fn cfg(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// Enable or disable adaptive page-in at runtime (graceful
    /// degradation: the cluster simulator downgrades a node to demand
    /// paging after repeated disk errors, because replaying access
    /// sequences into a flaky device multiplies the failed I/O).
    ///
    /// Disabling drops all page-in recorders — a half-recorded access
    /// sequence must not be replayed later, and
    /// [`PagingEngine::check_invariants`] treats live recorders with
    /// the policy off as a violation.
    pub fn set_adaptive_in(&mut self, on: bool) {
        self.cfg.adaptive_in = on;
        if !on {
            self.recorders.clear();
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Process currently marked as running on this node.
    pub fn running(&self) -> Option<ProcId> {
        self.running
    }

    /// Process currently marked as outgoing (descheduled last).
    pub fn outgoing(&self) -> Option<ProcId> {
        self.outgoing
    }

    /// Mark `pid` as the scheduled process without a full switch (job
    /// start, or a job running alone after its partner finished).
    pub fn set_running(&mut self, pid: Option<ProcId>) {
        self.running = pid;
        if pid.is_some() && self.outgoing == pid {
            self.outgoing = None;
        }
    }

    /// Forget a process entirely (job completion).
    pub fn forget_proc(&mut self, pid: ProcId) {
        self.recorders.remove(&pid);
        if self.selective_cache.pid == Some(pid) {
            self.selective_cache = SelectiveCache::default();
        }
        if self.outgoing == Some(pid) {
            self.outgoing = None;
        }
        if self.running == Some(pid) {
            self.running = None;
        }
        if self.bg.active() == Some(pid) {
            self.bg.stop();
        }
    }

    /// Bytes of kernel memory currently held by page-in records (the
    /// paper's run-length compression keeps this small; exposed for
    /// metrics).
    pub fn recorder_bytes(&self) -> usize {
        self.recorders.values().map(|r| r.kernel_bytes()).sum()
    }

    // ------------------------------------------------------------------
    // Demand fault path
    // ------------------------------------------------------------------

    /// Handle a page fault of the scheduled process: run watermark reclaim
    /// if needed, map the page, and apply swap read-ahead.
    ///
    /// Returns the disk work; the caller charges time by submitting writes
    /// then reads to the node's FIFO disk and blocking the process until
    /// the last read completes.
    pub fn on_fault(
        &mut self,
        kern: &mut Kernel,
        pid: ProcId,
        page: PageNum,
        now: SimTime,
    ) -> Result<FaultPlan, MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemFault);
        let mut plan = FaultPlan::default();

        // Watermark model: reclaim to freepages.high once free dips below
        // freepages.min (paper §2).
        let target = kern.reclaim_target();
        if target > 0 {
            plan.writes = self.free_pages(kern, target, now)?;
        }

        match kern.map_in(pid, page, now)? {
            MapInOutcome::Zeroed => {
                self.stats.minor_faults += 1;
                plan.mapped = 1;
            }
            MapInOutcome::Read { block } => {
                self.stats.major_faults += 1;
                // Read-ahead: chase swap-contiguous neighbors, limited by
                // the configured window and by frames above freepages.min
                // (read-ahead must never itself force reclaim).
                let window = kern.params().readahead.saturating_sub(1);
                let budget = kern
                    .free_frames()
                    .saturating_sub(kern.params().freepages_min)
                    .min(window);
                let obs = &self.obs;
                let n = kern.map_in_readahead(pid, block, budget, now, |p2| {
                    obs.emit(now, || ObsEvent::ReadaheadHit {
                        pid: pid.0,
                        page: p2.0,
                    });
                })?;
                self.stats.readahead_pages += n as u64;
                plan.mapped = 1 + n;
                plan.reads = vec![Extent::new(block, plan.mapped as u64)];
                self.obs.emit(now, || ObsEvent::MajorFault {
                    pid: pid.0,
                    page: page.0,
                    readahead: (plan.mapped - 1) as u32,
                    write_pages: plan.writes.iter().map(|e| e.len).sum(),
                    read_pages: plan.reads.iter().map(|e| e.len).sum(),
                });
            }
        }
        Ok(plan)
    }

    /// The zero fills of a first-touch sweep in one step: up to `max` of
    /// the one-page faults that follow the zero fill of `page` at `now`,
    /// one per `step`, each a minor fault (see
    /// [`Kernel::first_touch_run`] for the pages it covers and where it
    /// stops). None of them reclaims, so none needs the fault path.
    /// Returns how many pages it mapped.
    // The kernel's six inputs pass through, plus the kernel itself.
    #[allow(clippy::too_many_arguments)]
    pub fn first_touch_run(
        &mut self,
        kern: &mut Kernel,
        pid: ProcId,
        page: PageNum,
        max: usize,
        write: bool,
        now: SimTime,
        step: SimDur,
    ) -> Result<usize, MemError> {
        let m = kern.first_touch_run(pid, page, max, write, now, step)?;
        self.stats.minor_faults += m as u64;
        Ok(m)
    }

    // ------------------------------------------------------------------
    // Reclaim (`try_to_free_pages`)
    // ------------------------------------------------------------------

    /// Free at least `target` frames (stopping early only if the whole
    /// system runs out of evictable pages). Returns the write-back
    /// extents.
    ///
    /// With `selective` enabled this is the paper's Fig. 2 algorithm: the
    /// outgoing process's pages are reclaimed oldest-first, and only when
    /// it has nothing resident left does the default clock scan run.
    /// Without it, it reproduces the Linux 2.2 `swap_out()` behavior: scan
    /// the largest-RSS process's page table, clearing reference bits and
    /// evicting unreferenced pages.
    pub fn free_pages(
        &mut self,
        kern: &mut Kernel,
        target: usize,
        now: SimTime,
    ) -> Result<Vec<Extent>, MemError> {
        self.free_pages_inner(kern, target, now, self.cfg.selective)
    }

    /// Reclaim with an explicit choice of whether the outgoing process is
    /// victimized first. The demand path follows `cfg.selective`; the
    /// adaptive page-in replay always passes `true` (paper §3.3: the
    /// induced faults "will not page out any useful pages because only
    /// the pages of the outgoing process will be swapped out").
    fn free_pages_inner(
        &mut self,
        kern: &mut Kernel,
        target: usize,
        now: SimTime,
        selective_first: bool,
    ) -> Result<Vec<Extent>, MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemReclaim);
        self.stats.reclaim_calls += 1;
        let mut writes: Vec<Extent> = Vec::new();
        let mut freed = 0usize;

        // Phase 1: selective page-out of the outgoing process, consuming
        // the per-switch oldest-first cache (rebuilt when the outgoing
        // process changes).
        if selective_first && freed < target {
            if let Some(out) = self.outgoing {
                if let Ok(pm) = kern.proc(out) {
                    let cache = &mut self.selective_cache;
                    if cache.pid != Some(out) {
                        *cache = SelectiveCache {
                            pid: Some(out),
                            pages: pm.pt.resident_oldest_first(),
                            cursor: 0,
                        };
                    }
                    let mut cands = Vec::with_capacity(target - freed);
                    while cands.len() < target - freed && cache.cursor < cache.pages.len() {
                        let p = cache.pages[cache.cursor];
                        cache.cursor += 1;
                        if pm.pt.is_resident(p) {
                            cands.push(p);
                        }
                    }
                    if !cands.is_empty() {
                        freed += self.evict_recorded(kern, out, &cands, &mut writes)?;
                    }
                }
            }
        }

        // Phase 2: the default replacement, selected by the baseline kind.
        match self.cfg.baseline {
            crate::policy::BaselineKind::Clock => {
                // The Linux 2.2 shape: rounds over the processes in
                // decreasing-RSS order, sweeping each table with the clock
                // (round 1 mostly clears reference bits, later rounds
                // evict). The per-process hand persists across calls, so
                // scans are incremental. This baseline exhibits the
                // paper's §3.1 pathology: a descheduled job's pages and a
                // rescheduled job's *lingering* pages are evicted on age
                // grounds even when about to be used.
                let mut rounds = 0;
                while freed < target && rounds < 8 {
                    rounds += 1;
                    let mut progressed = false;
                    let mut procs: Vec<(usize, ProcId)> =
                        kern.procs_rss().map(|(p, r)| (r, p)).collect();
                    procs.sort_unstable_by(|a, b| b.cmp(a));
                    for (rss, pid) in procs {
                        if freed >= target {
                            break;
                        }
                        if rss == 0 {
                            continue;
                        }
                        let len = kern.proc(pid)?.pt.len();
                        let max_scan = (len / 4).max(512).min(len);
                        let victims = kern.clock_sweep_proc(pid, max_scan, target - freed)?;
                        if !victims.is_empty() {
                            freed += self.evict_recorded(kern, pid, &victims, &mut writes)?;
                            progressed = true;
                        }
                    }
                    if !progressed && rounds >= 4 {
                        // Everything referenced: fall back to reaping the
                        // oldest pages of the largest process so the
                        // fault can make progress.
                        if let Some(pid) = kern.largest_rss_proc(None) {
                            let mut cands = kern.resident_oldest_first(pid)?;
                            cands.truncate(target - freed);
                            freed += self.evict_recorded(kern, pid, &cands, &mut writes)?;
                        }
                        break;
                    }
                }
            }
            crate::policy::BaselineKind::GlobalLru => {
                // Idealized exact LRU: evict the globally oldest resident
                // pages regardless of owner — the abstraction §3.1
                // reasons with ("A's lingering pages … are older than B's
                // pages"). See [`GlobalLruCache`].
                while freed < target {
                    let groups = self.lru_cache.pop_victims(kern, target - freed);
                    if groups.is_empty() {
                        break; // nothing evictable at all
                    }
                    for (pid, pages) in groups {
                        freed += self.evict_recorded(kern, pid, &pages, &mut writes)?;
                    }
                }
            }
        }
        self.stats.reclaimed_pages += freed as u64;
        self.obs.emit(now, || ObsEvent::Reclaim {
            target: target as u64,
            freed: freed as u64,
            write_pages: writes.iter().map(|e| e.len).sum(),
        });
        Ok(writes)
    }

    /// Evict `pages` of `pid`, recording them for adaptive page-in when
    /// appropriate and counting false evictions. Returns how many frames
    /// were actually freed.
    fn evict_recorded(
        &mut self,
        kern: &mut Kernel,
        pid: ProcId,
        pages: &[PageNum],
        writes: &mut Vec<Extent>,
    ) -> Result<usize, MemError> {
        let mut log = std::mem::take(&mut self.evicted);
        log.clear();
        writes.extend(kern.evict_batch(pid, pages, &mut log)?);
        let false_eviction = Some(pid) == self.running;
        let recorded = !false_eviction && self.cfg.adaptive_in;
        if false_eviction {
            self.stats.false_evictions += log.len() as u64;
        } else if recorded {
            let rec = self.recorders.entry(pid).or_default();
            rec.record_all(&log);
            self.stats.recorded_pages += log.len() as u64;
        }
        if self.obs.enabled() {
            for &p in &log {
                self.obs.emit_clock(|| ObsEvent::Evict {
                    pid: pid.0,
                    page: p.0,
                    false_eviction,
                    recorded,
                });
            }
        }
        let n = log.len();
        self.evicted = log;
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Switch-time API (paper §3.5)
    // ------------------------------------------------------------------

    /// `adaptive_page_out(out_pid, in_pid, wss)`: called by the gang
    /// scheduler at a job switch, after stopping `out` and before
    /// continuing `inn`.
    ///
    /// Always updates the switch context (which is what arms selective
    /// page-out for the coming quantum). With `aggressive` enabled it also
    /// evicts `out` oldest-first until free frames cover the incoming
    /// working-set estimate (paper Fig. 3), so the subsequent fault-in
    /// storm triggers no interleaved page-outs.
    pub fn adaptive_page_out(
        &mut self,
        kern: &mut Kernel,
        out: ProcId,
        inn: ProcId,
        wss_hint: Option<usize>,
    ) -> Result<IoPlan, MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemPageOut);
        self.outgoing = Some(out);
        self.running = Some(inn);
        self.selective_cache = SelectiveCache::default();
        let mut plan = IoPlan::default();
        if !self.cfg.aggressive {
            return Ok(plan);
        }
        let wss = match wss_hint {
            Some(w) => w.min(kern.params().usable_frames()),
            None => kern.wss_estimate(inn)?,
        };
        let want_free = (wss + kern.params().freepages_high).min(kern.params().usable_frames());
        let to_free = want_free.saturating_sub(kern.free_frames());
        if to_free == 0 {
            return Ok(plan);
        }
        let mut cands = kern.resident_oldest_first(out)?;
        cands.truncate(to_free);
        let n = self.evict_recorded(kern, out, &cands, &mut plan.writes)?;
        self.stats.aggressive_evictions += n as u64;
        if n > 0 {
            self.obs.emit_clock(|| ObsEvent::AggressiveOut {
                pid: out.0,
                pages: n as u64,
            });
        }
        // evict_recorded counted these toward reclaimed_pages only via
        // free_pages; keep the aggregate honest here too.
        self.stats.reclaimed_pages += n as u64;
        Ok(plan)
    }

    /// `adaptive_page_in(in_pid)`: replay the recorded working set of the
    /// incoming process as bulk block reads (paper Fig. 4's induced
    /// faults).
    ///
    /// Each induced fault behaves like a real one: when free memory dips
    /// below `freepages.min`, the reclaim path runs (selective page-out if
    /// armed, the clock otherwise) before more pages are mapped — so with
    /// `ai` alone the replay itself pages the outgoing process out, page
    /// by batch, exactly as the demand path would have. Pages recorded but
    /// already resident again are skipped; replay stops early only if
    /// reclaim cannot free a single frame.
    pub fn adaptive_page_in(
        &mut self,
        kern: &mut Kernel,
        inn: ProcId,
        now: SimTime,
    ) -> Result<IoPlan, MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemPageIn);
        let mut plan = IoPlan::default();
        if !self.cfg.adaptive_in {
            return Ok(plan);
        }
        let Some(rec) = self.recorders.get_mut(&inn) else {
            return Ok(plan);
        };
        let runs = rec.take_runs();
        if runs.is_empty() {
            return Ok(plan);
        }
        // The record's size is known up front — that is the "adaptive"
        // part — so room for the whole set is made in one aggregate
        // reclaim instead of per induced fault. (Replaying with per-fault
        // reclaim would let the clock churn pages replayed seconds
        // earlier, destroying exactly the benefit the paper measures for
        // `ai` alone.)
        let needed = kern
            .proc(inn)
            .map_or(0, |pm| {
                runs.iter()
                    .map(|r| pm.pt.absent(r.base, r.count as usize))
                    .sum()
            })
            .min(kern.params().usable_frames());
        // Leave freepages.high of slack above the set being replayed, as
        // aggressive page-out does: ending the replay exactly at the
        // reclaim trigger would hand the clock the incoming process as
        // its next victim on the first post-replay allocation.
        let high = kern.params().freepages_high;
        let want_free = (needed + high).min(kern.params().usable_frames());
        let shortfall = want_free.saturating_sub(kern.free_frames());
        if shortfall > 0 {
            plan.writes = self.free_pages_inner(kern, shortfall, now, true)?;
        }
        // Pages already back (e.g. a duplicate record) are skipped, and so
        // is the rest of the set once reclaim could not make full room
        // (everything else is hot): it comes back via demand faults.
        let mut blocks = Vec::new();
        let obs = &self.obs;
        let record = runs.iter().map(|r| (r.base, r.count as usize));
        let (replayed, skipped) = kern.replay(inn, record, high, now, |p, block| {
            blocks.extend(block);
            obs.emit(now, || ObsEvent::ReplayPage {
                pid: inn.0,
                page: p.0,
            });
        })?;
        self.stats.replayed_pages += replayed as u64;
        self.stats.replay_skipped += skipped as u64;
        plan.reads = extents_from_blocks(&mut blocks);
        self.obs.emit(now, || ObsEvent::Replay {
            pid: inn.0,
            pages: replayed as u64,
            skipped: skipped as u64,
        });
        Ok(plan)
    }

    /// `start_bgwrite(inpid)` (paper §3.5).
    pub fn start_bgwrite(&mut self, pid: ProcId) {
        if self.cfg.bg_write {
            self.bg.start(pid);
        }
    }

    /// `stop_bgwrite()` — invoked when the actual job switch begins.
    pub fn stop_bgwrite(&mut self) {
        self.bg.stop();
    }

    /// Whether background writing is currently active.
    pub fn bgwrite_active(&self) -> bool {
        self.bg.active().is_some()
    }

    /// One background-writer burst; the cluster calls this only when the
    /// node's disk is idle (the "lower priority" of paper §3.4) and
    /// schedules the next tick. Returns write extents (empty = nothing to
    /// do).
    pub fn bgwrite_tick(&mut self, kern: &mut Kernel) -> Result<Vec<Extent>, MemError> {
        let _perf = agp_perf::scope(agp_perf::Span::MemBgTick);
        let ext = self.bg.tick(kern)?;
        if !ext.is_empty() {
            let pid = self.bg.active().map_or(0, |p| p.0);
            self.obs.emit_clock(|| ObsEvent::BgTick {
                pid,
                pages: ext.iter().map(|e| e.len).sum(),
            });
        }
        Ok(ext)
    }

    /// Pages cleaned by the background writer so far.
    pub fn bg_cleaned_pages(&self) -> u64 {
        self.bg.stats().cleaned_pages
    }

    /// Engine-level structural invariants, paired with
    /// [`Kernel::check_invariants`](agp_mem::Kernel::check_invariants) by the
    /// cluster's `--check-invariants` sweep: every adaptive page-in record
    /// must be a coherent run-length list
    /// ([`PageRecorder::check_coherence`]), and records only exist at all
    /// when the `ai` mechanism is enabled.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.cfg.adaptive_in && self.recorders.values().any(|r| !r.is_empty()) {
            return Err("page-in records exist but adaptive_in is disabled".to_string());
        }
        for (pid, rec) in &self.recorders {
            rec.check_coherence()
                .map_err(|e| format!("page-in record of {pid}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_mem::VmParams;

    const NOW: SimTime = SimTime::from_us(1_000_000);

    fn kernel(frames: usize) -> Kernel {
        Kernel::new(
            VmParams {
                total_frames: frames,
                wired_frames: 0,
                freepages_min: 8,
                freepages_high: 16,
                readahead: 16,
            },
            1 << 20,
        )
    }

    /// Map `n` pages of `pid` resident and dirty, with ages increasing by
    /// page number starting at `t0`.
    fn fill_dirty(k: &mut Kernel, pid: ProcId, n: u32, t0: u64) {
        for p in 0..n {
            let t = SimTime::from_us(t0 + p as u64);
            k.map_in(pid, PageNum(p), t).unwrap();
            k.touch(pid, PageNum(p), true, t).unwrap();
        }
    }

    #[test]
    fn zero_fill_fault_without_pressure_is_io_free() {
        let mut k = kernel(128);
        k.register_proc(ProcId(1), 16);
        let mut e = PagingEngine::new(PolicyConfig::original());
        let plan = e.on_fault(&mut k, ProcId(1), PageNum(0), NOW).unwrap();
        assert!(plan.is_io_free());
        assert_eq!(plan.mapped, 1);
        assert_eq!(e.stats().minor_faults, 1);
    }

    #[test]
    fn fault_under_pressure_reclaims_to_high_watermark() {
        let mut k = kernel(128); // min 8, high 16
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 128);
        k.register_proc(b, 16);
        fill_dirty(&mut k, a, 121, 0); // free = 7 < min
        assert!(k.below_min());
        let mut e = PagingEngine::new(PolicyConfig::original());
        e.set_running(Some(b));
        let plan = e.on_fault(&mut k, b, PageNum(0), NOW).unwrap();
        assert!(!plan.writes.is_empty(), "dirty evictions require writes");
        assert!(
            k.free_frames() >= 15,
            "reclaimed to ~high minus the mapped page"
        );
        assert_eq!(e.stats().reclaim_calls, 1);
        k.check_invariants().unwrap();
    }

    #[test]
    fn original_policy_falsely_evicts_running_procs_old_pages() {
        // The false-eviction scenario of §3.1: A has old residual pages, B
        // was just descheduled with fresher pages. Under the original
        // clock, A's own stale pages are evicted while A runs.
        let mut k = kernel(256);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 200);
        k.register_proc(b, 100);
        // A's pages are old and unreferenced (bits cleared by an earlier
        // sweep).
        fill_dirty(&mut k, a, 150, 0);
        let _ = k.clock_sweep_proc(a, 200, 0); // clear ref bits only
                                               // Give A one more sweep so bits are all cleared.
        let _ = k.clock_sweep_proc(a, 200, 0);
        // B fills the rest: 150 + 98 leaves free = 8... make it dip below min.
        fill_dirty(&mut k, b, 99, 1_000_000); // free = 256-249 = 7 < 8
        let mut e = PagingEngine::new(PolicyConfig::original());
        e.outgoing = Some(b);
        e.set_running(Some(a));
        // A faults for a new page.
        e.on_fault(&mut k, a, PageNum(199), NOW).unwrap();
        assert!(
            e.stats().false_evictions > 0,
            "clock evicts A's unreferenced residual pages: A has the larger RSS \
             and its bits are clear, B's are still set"
        );
    }

    #[test]
    fn selective_policy_prevents_false_eviction() {
        let mut k = kernel(256);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 200);
        k.register_proc(b, 100);
        fill_dirty(&mut k, a, 150, 0);
        let _ = k.clock_sweep_proc(a, 200, 0);
        let _ = k.clock_sweep_proc(a, 200, 0);
        fill_dirty(&mut k, b, 99, 1_000_000);
        let mut e = PagingEngine::new(PolicyConfig::so());
        e.adaptive_page_out(&mut k, b, a, None).unwrap(); // sets ctx: out=b, running=a
        e.on_fault(&mut k, a, PageNum(199), NOW).unwrap();
        assert_eq!(
            e.stats().false_evictions,
            0,
            "selective page-out victimizes only the outgoing process"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn selective_falls_back_when_outgoing_exhausted() {
        let mut k = kernel(128);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 128);
        k.register_proc(b, 8);
        fill_dirty(&mut k, a, 118, 0);
        fill_dirty(&mut k, b, 3, 500); // free = 7 < min(8)
        let mut e = PagingEngine::new(PolicyConfig::so());
        // Outgoing is b with only 3 resident pages; target is ~9.
        e.adaptive_page_out(&mut k, b, a, None).unwrap();
        let plan = e.on_fault(&mut k, a, PageNum(120), NOW).unwrap();
        assert!(plan.mapped >= 1);
        assert!(!k.below_min(), "fallback clock scan finished the job");
        assert_eq!(k.proc(b).unwrap().rss(), 0, "outgoing fully swapped first");
        k.check_invariants().unwrap();
    }

    #[test]
    fn aggressive_page_out_frees_incoming_wss() {
        let mut k = kernel(256);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 245);
        k.register_proc(b, 120);
        // b ran a quantum touching 100 pages, then was evicted entirely.
        k.quantum_started(b).unwrap();
        fill_dirty(&mut k, b, 100, 0);
        let pages: Vec<PageNum> = (0..100).map(PageNum).collect();
        k.evict_batch(b, &pages, &mut Vec::new()).unwrap();
        k.quantum_started(b).unwrap(); // closes epoch: wss_last = 100
                                       // a now owns most of memory.
        fill_dirty(&mut k, a, 240, 1_000);
        assert!(k.free_frames() < 100);

        let mut e = PagingEngine::new(PolicyConfig::so_ao());
        let plan = e.adaptive_page_out(&mut k, a, b, None).unwrap();
        assert!(plan.write_pages() > 0, "a's dirty pages written out");
        assert!(
            k.free_frames() >= 100,
            "free frames now cover b's WSS estimate (100): have {}",
            k.free_frames()
        );
        assert_eq!(
            e.stats().aggressive_evictions as usize,
            plan.write_pages() as usize
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn aggressive_is_noop_when_memory_already_free() {
        let mut k = kernel(256);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 8);
        k.register_proc(b, 8);
        fill_dirty(&mut k, a, 4, 0);
        let mut e = PagingEngine::new(PolicyConfig::so_ao());
        let plan = e.adaptive_page_out(&mut k, a, b, Some(8)).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn recorded_evictions_replay_as_bulk_reads() {
        // Tight memory: 128 frames, b's 100 resident pages leave only 28
        // free, so the switch must evict ~88 of them to cover a's claim.
        let mut k = kernel(128);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 120);
        k.register_proc(b, 100);
        fill_dirty(&mut k, b, 100, 0);
        let mut e = PagingEngine::new(PolicyConfig::full());
        // Switch b -> a: aggressive page-out evicts b's pages and records
        // them.
        k.quantum_started(a).unwrap();
        let out_plan = e.adaptive_page_out(&mut k, b, a, Some(100)).unwrap();
        assert!(out_plan.write_pages() >= 80);
        assert!(e.stats().recorded_pages >= 80);
        // Switch a -> b: replay.
        k.quantum_started(b).unwrap();
        let _ = e.adaptive_page_out(&mut k, a, b, Some(0)).unwrap();
        let in_plan = e.adaptive_page_in(&mut k, b, NOW).unwrap();
        assert_eq!(in_plan.read_pages(), e.stats().replayed_pages);
        assert!(
            in_plan.reads.len() <= 3,
            "batch-evicted pages occupy contiguous swap: few extents, got {}",
            in_plan.reads.len()
        );
        assert!(k.proc(b).unwrap().rss() >= 90, "working set restored");
        k.check_invariants().unwrap();
    }

    #[test]
    fn replay_reclaims_like_induced_faults() {
        // The replay must not be capped by the free frames at switch
        // time: induced faults run the reclaim path, paging the outgoing
        // process out as the incoming set streams in (this is what makes
        // the paper's `ai`-alone configuration effective).
        let mut k = kernel(64); // min 8, high 16
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 60);
        k.register_proc(b, 60);
        fill_dirty(&mut k, b, 50, 0);
        let mut e = PagingEngine::new(PolicyConfig::full());
        e.adaptive_page_out(&mut k, b, a, Some(50)).unwrap();
        // a fills memory so b's replay must reclaim to proceed.
        fill_dirty(&mut k, a, 40, 1_000);
        e.adaptive_page_out(&mut k, a, b, Some(0)).unwrap();
        let plan = e.adaptive_page_in(&mut k, b, NOW).unwrap();
        assert!(
            plan.read_pages() >= 45,
            "nearly all of b's 50 recorded pages stream back, got {}",
            plan.read_pages()
        );
        assert!(
            !plan.writes.is_empty(),
            "the replay's induced faults paged a out"
        );
        assert!(k.free_frames() <= k.params().freepages_high + 1);
        assert!(k.proc(b).unwrap().rss() >= 45);
        k.check_invariants().unwrap();
    }

    #[test]
    fn adaptive_page_in_disabled_is_noop() {
        let mut k = kernel(64);
        let b = ProcId(2);
        k.register_proc(b, 8);
        let mut e = PagingEngine::new(PolicyConfig::so_ao());
        let plan = e.adaptive_page_in(&mut k, b, NOW).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn degrading_adaptive_in_drops_recorders_coherently() {
        let mut k = kernel(128);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 120);
        k.register_proc(b, 100);
        fill_dirty(&mut k, b, 100, 0);
        let mut e = PagingEngine::new(PolicyConfig::full());
        k.quantum_started(a).unwrap();
        e.adaptive_page_out(&mut k, b, a, Some(100)).unwrap();
        assert!(e.stats().recorded_pages > 0, "b's eviction was recorded");
        // Degrade to demand paging: the half-recorded sequence must go
        // with it or check_invariants flags the stale records.
        e.set_adaptive_in(false);
        assert!(!e.cfg().adaptive_in);
        e.check_invariants().unwrap();
        k.quantum_started(b).unwrap();
        e.adaptive_page_out(&mut k, a, b, Some(0)).unwrap();
        let plan = e.adaptive_page_in(&mut k, b, NOW).unwrap();
        assert!(plan.is_empty(), "no replay after degradation");
        // Re-enabling starts from a clean slate.
        e.set_adaptive_in(true);
        e.check_invariants().unwrap();
    }

    #[test]
    fn readahead_follows_contiguous_swap() {
        let mut k = kernel(256);
        let a = ProcId(1);
        k.register_proc(a, 64);
        fill_dirty(&mut k, a, 64, 0);
        let pages: Vec<PageNum> = (0..64).map(PageNum).collect();
        k.evict_batch(a, &pages, &mut Vec::new()).unwrap();
        let mut e = PagingEngine::new(PolicyConfig::original());
        e.set_running(Some(a));
        let plan = e.on_fault(&mut k, a, PageNum(0), NOW).unwrap();
        assert_eq!(plan.mapped, 16, "fault + 15 read-ahead pages");
        assert_eq!(plan.reads.len(), 1, "one contiguous extent");
        assert_eq!(e.stats().readahead_pages, 15);
        // Next fault continues from page 16.
        let plan2 = e.on_fault(&mut k, a, PageNum(16), NOW).unwrap();
        assert_eq!(plan2.mapped, 16);
        k.check_invariants().unwrap();
    }

    #[test]
    fn readahead_stops_at_discontiguity() {
        let mut k = kernel(256);
        let a = ProcId(1);
        k.register_proc(a, 64);
        // Evict pages one by one in reverse order: swap blocks are
        // allocated 0,1,2,… for pages 63,62,61,… so ascending blocks hold
        // *descending* pages — forward page chains exist but each
        // eviction was a separate allocation; the chain after any block
        // belongs to a different virtual page ordering.
        fill_dirty(&mut k, a, 8, 0);
        for p in (0..8).rev() {
            k.evict(a, PageNum(p)).unwrap();
        }
        let mut e = PagingEngine::new(PolicyConfig::original());
        e.set_running(Some(a));
        // Fault page 7 (swap block 0). Block 1 holds page 6, etc. — the
        // owner chain exists, so read-ahead may follow it; what matters is
        // it never reads junk. Fault page 0 instead (swap block 7): chain
        // after block 7 is empty.
        let plan = e.on_fault(&mut k, a, PageNum(0), NOW).unwrap();
        assert_eq!(plan.mapped, 1, "no chain after the last block");
        k.check_invariants().unwrap();
    }

    #[test]
    fn bgwrite_gated_by_policy() {
        let mut e = PagingEngine::new(PolicyConfig::so_ao());
        e.start_bgwrite(ProcId(1));
        assert!(!e.bgwrite_active(), "bg disabled by policy");
        let mut e2 = PagingEngine::new(PolicyConfig::so_ao_bg());
        e2.start_bgwrite(ProcId(1));
        assert!(e2.bgwrite_active());
        e2.stop_bgwrite();
        assert!(!e2.bgwrite_active());
    }

    #[test]
    fn bgwrite_reduces_switch_writes() {
        // 128 frames so the switch genuinely has to evict a's pages.
        let mut k = kernel(128);
        let a = ProcId(1);
        let b = ProcId(2);
        k.register_proc(a, 120);
        k.register_proc(b, 8);
        fill_dirty(&mut k, a, 100, 0);
        let mut e = PagingEngine::new(PolicyConfig::so_ao_bg());
        e.start_bgwrite(a);
        // Drain all dirty pages in background before the switch.
        let mut bg_pages = 0u64;
        loop {
            let ext = e.bgwrite_tick(&mut k).unwrap();
            let n: u64 = ext.iter().map(|x| x.len).sum();
            if n == 0 {
                break;
            }
            bg_pages += n;
        }
        assert_eq!(bg_pages, 100);
        e.stop_bgwrite();
        let plan = e.adaptive_page_out(&mut k, a, b, Some(100)).unwrap();
        assert_eq!(
            plan.write_pages(),
            0,
            "switch-time eviction after bgwrite needs no writes"
        );
        assert!(
            e.stats().aggressive_evictions > 0,
            "pages were still evicted"
        );
        k.check_invariants().unwrap();
    }

    #[test]
    fn global_lru_evicts_the_oldest_pages_of_any_process() {
        let mut k = kernel(64);
        let (a, b) = (ProcId(1), ProcId(2));
        k.register_proc(a, 24);
        k.register_proc(b, 24);
        // a's pages get older with page number, b's younger, and the ages
        // 0, 6, …, 42 belong to one page of each (the lower pid goes
        // first).
        let mut order = Vec::new();
        for p in 0..24 {
            for (pid, t) in [(a, 3 * (23 - p)), (b, 2 * p)] {
                let t = SimTime::from_us(u64::from(t));
                k.map_in(pid, PageNum(p), t).unwrap();
                order.push((t, pid, PageNum(p)));
            }
        }
        order.sort_unstable();
        let pages = |r: std::ops::Range<usize>| order[r].iter().map(|&(_, pid, p)| (pid, p));
        let evicted = |k: &Kernel| -> std::collections::BTreeSet<_> {
            pages(0..order.len())
                .filter(|&(pid, p)| !k.proc(pid).unwrap().pt.is_resident(p))
                .collect()
        };
        let mut e = PagingEngine::new(PolicyConfig {
            baseline: crate::policy::BaselineKind::GlobalLru,
            ..PolicyConfig::original()
        });
        e.free_pages(&mut k, 10, NOW).unwrap();
        assert_eq!(evicted(&k), pages(0..10).collect());
        // The next-oldest page is used again after the snapshot: it is
        // skipped, and the five after it go instead.
        let (_, pid, page) = order[10];
        k.touch(pid, page, false, NOW).unwrap();
        e.free_pages(&mut k, 5, NOW).unwrap();
        assert_eq!(evicted(&k), pages(0..10).chain(pages(11..16)).collect());
        k.check_invariants().unwrap();
    }

    #[test]
    fn forget_proc_clears_state() {
        let mut e = PagingEngine::new(PolicyConfig::full());
        e.adaptive_page_out(&mut kernel_with_two(), ProcId(1), ProcId(2), Some(0))
            .unwrap();
        e.start_bgwrite(ProcId(2));
        e.forget_proc(ProcId(1));
        e.forget_proc(ProcId(2));
        assert_eq!(e.outgoing(), None);
        assert_eq!(e.running(), None);
        assert!(!e.bgwrite_active());
    }

    fn kernel_with_two() -> Kernel {
        let mut k = kernel(64);
        k.register_proc(ProcId(1), 8);
        k.register_proc(ProcId(2), 8);
        k
    }
}
