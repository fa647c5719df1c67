//! Property tests for the adaptive-paging mechanisms: the run-length
//! recorder round-trips arbitrary flush orders, and the paging engine
//! preserves kernel invariants under arbitrary switch/fault schedules.

use agp_core::policy::BaselineKind;
use agp_core::{PageRecorder, PagingEngine, PolicyConfig};
use agp_mem::{Kernel, PageNum, ProcId, VmParams};
use agp_sim::prop::{self, CASES};
use agp_sim::SimTime;

/// take_runs() returns exactly the recorded sequence, in order, for
/// any flush order, and the run-length compression never exceeds one
/// node per page.
#[test]
fn recorder_roundtrip() {
    prop::check("recorder_roundtrip", CASES, |rng| {
        let pages = prop::vec(rng, 0..500, |r| r.below(4096) as u32);
        let mut r = PageRecorder::new();
        for &p in &pages {
            r.record(PageNum(p));
        }
        assert_eq!(r.total_pages(), pages.len() as u64);
        assert!(r.runs().len() <= pages.len().max(1));
        assert_eq!(r.kernel_bytes(), r.runs().len() * 12);
        let runs = r.take_runs();
        let drained: Vec<u32> = runs.iter().flat_map(|r| r.pages()).map(|p| p.0).collect();
        assert_eq!(drained, pages);
        assert!(r.is_empty());
    });
}

/// The structural coherence check accepts every reachable recorder
/// state: after each record, after a drain, and after a clear. Drains
/// come at one chosen step (or none) plus at random steps with
/// probability 2 %. (The corruption-detection direction is covered by
/// unit tests that forge states `record()` cannot produce.)
#[test]
fn recorder_coherence_is_invariant() {
    prop::check("recorder_coherence_is_invariant", CASES, |rng| {
        let pages = prop::vec(rng, 0..300, |r| r.below(128) as u32);
        let drain_at = rng.chance(0.5).then(|| rng.below(300) as usize);
        let mut r = PageRecorder::new();
        for (i, &p) in pages.iter().enumerate() {
            r.record(PageNum(p));
            r.check_coherence()
                .unwrap_or_else(|e| panic!("after record {i}: {e}"));
            if Some(i) == drain_at || rng.chance(0.02) {
                r.take_runs();
                r.check_coherence()
                    .unwrap_or_else(|e| panic!("after drain at {i}: {e}"));
            }
        }
        r.clear();
        assert!(r.check_coherence().is_ok());
    });
}

/// Sorted contiguous input compresses to exactly the number of
/// maximal runs.
#[test]
fn recorder_compression_optimal() {
    prop::check("recorder_compression_optimal", CASES, |rng| {
        let start = rng.below(1000) as u32;
        let lens = prop::vec(rng, 1..20, |r| r.range(1, 50) as u32);
        let mut r = PageRecorder::new();
        let mut expected_runs = 0;
        let mut next = start;
        for len in &lens {
            // Leave a gap of 2 before each run so runs never merge.
            next += 2;
            expected_runs += 1;
            for i in 0..*len {
                r.record(PageNum(next + i));
            }
            next += len;
        }
        assert_eq!(r.runs().len(), expected_runs);
    });
}

const NPROCS: u32 = 2;
const PAGES: u32 = 96;

/// For every policy, on either baseline, any interleaving of faults,
/// switches, replays and bg ticks leaves the kernel and the engine
/// consistent, and plans' page counts stay within physical bounds.
/// Every odd case runs on the global-LRU baseline, every even one on the
/// clock. Two processes of 96 pages share 64 frames, so almost every
/// case reclaims. Each case runs 400 actions, weighted 3:1:1:1 toward
/// faults; both invariant sweeps run after every action.
#[test]
fn engine_preserves_invariants() {
    let mut case = 0u32;
    prop::check("engine_preserves_invariants", 48, |rng| {
        let mut policy = PolicyConfig::paper_combinations()[rng.below(6) as usize];
        if case % 2 == 1 {
            policy.baseline = BaselineKind::GlobalLru;
        }
        case += 1;
        let mut k = Kernel::new(
            VmParams {
                total_frames: 64,
                wired_frames: 0,
                freepages_min: 4,
                freepages_high: 8,
                readahead: 16,
            },
            8192,
        );
        for p in 0..NPROCS {
            k.register_proc(ProcId(p), PAGES as usize);
        }
        let mut e = PagingEngine::new(policy);
        e.set_running(Some(ProcId(0)));
        if policy.bg_write {
            e.start_bgwrite(ProcId(0));
        }
        let mut t = 0u64;
        for step in 0..400 {
            t += 7;
            let now = SimTime::from_us(t);
            match rng.below(6) {
                0..=2 => {
                    let pid = ProcId(rng.below(NPROCS as u64) as u32);
                    let page = rng.below(256) as u32;
                    let pg = PageNum(page % PAGES);
                    // Touch; fault through the engine if non-resident.
                    match k.touch(pid, pg, page.is_multiple_of(3), now).unwrap() {
                        agp_mem::TouchOutcome::Hit => {}
                        _ => {
                            let plan = e.on_fault(&mut k, pid, pg, now).unwrap();
                            assert!(plan.mapped >= 1);
                            assert!(
                                plan.mapped <= k.params().readahead,
                                "mapped {} beyond read-ahead window",
                                plan.mapped
                            );
                        }
                    }
                }
                3 => {
                    let o = ProcId(rng.below(NPROCS as u64) as u32);
                    let i = ProcId(rng.below(NPROCS as u64) as u32);
                    if o != i {
                        e.stop_bgwrite();
                        let plan = e.adaptive_page_out(&mut k, o, i, None).unwrap();
                        assert!(
                            plan.write_pages() <= PAGES as u64,
                            "cannot write more than the address space"
                        );
                        k.quantum_started(i).unwrap();
                        let rp = e.adaptive_page_in(&mut k, i, now).unwrap();
                        assert!(rp.read_pages() <= PAGES as u64 * 2);
                        e.start_bgwrite(i);
                    }
                }
                4 => {
                    let pid = ProcId(rng.below(NPROCS as u64) as u32);
                    let _ = e.adaptive_page_in(&mut k, pid, now).unwrap();
                }
                _ => {
                    let _ = e.bgwrite_tick(&mut k).unwrap();
                }
            }
            k.check_invariants()
                .unwrap_or_else(|er| panic!("step {step}: kernel: {er}"));
            e.check_invariants()
                .unwrap_or_else(|er| panic!("step {step}: engine: {er}"));
        }
        // Engine-level consistency: replayed ≤ recorded.
        let s = e.stats();
        assert!(s.replayed_pages + s.replay_skipped <= s.recorded_pages + 1);
        // Selective policies never falsely evict outside the fallback.
        if policy.selective && !policy.adaptive_in {
            // (fallback may still fire in extreme schedules; just require
            // it stays far below total reclaim churn)
            assert!(s.false_evictions <= s.reclaimed_pages);
        }
    });
}
