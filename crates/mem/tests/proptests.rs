//! Property tests for the VM substrate: the kernel's conservation
//! invariants must survive arbitrary interleavings of fault, touch,
//! evict, clean, and process-exit operations, the bulk first touch must
//! equal the one-page faults it replaces, the page table must agree
//! with a reference `Vec<PageState>` model, and the swap allocator must
//! never lose or double-allocate a block and must match the reference
//! extent allocator.
//!
//! Every property checks its invariants after each operation, so one
//! case of full length also covers each of its prefixes.

mod model;

use agp_disk::Extent;
use agp_mem::{
    Kernel, MapInOutcome, MemError, PageNum, PageState, ProcId, SwapSpace, TouchOutcome, VmParams,
};
use agp_sim::prop;
use agp_sim::{SimDur, SimRng, SimTime};
use model::extents::{check_swap_ops, release, SwapOp, DEVICES};

/// Cases of each kernel and model property.
const MODEL_CASES: u32 = 64;
const NPROCS: u32 = 3;
const PAGES: u32 = 64;

fn kernel() -> Kernel {
    let mut k = Kernel::new(
        VmParams {
            total_frames: 128,
            wired_frames: 16,
            freepages_min: 4,
            freepages_high: 8,
            readahead: 16,
        },
        4096,
    );
    for p in 0..NPROCS {
        k.register_proc(ProcId(p), PAGES as usize);
    }
    k
}

/// `len` consecutive pages from `first`, wrapping at the table end.
fn page_window(first: u32, len: u64) -> Vec<PageNum> {
    (0..len as u32)
        .map(|i| PageNum((first + i) % PAGES))
        .collect()
}

/// No operation sequence can violate frame conservation, dirty
/// counters, swap-owner coherence, or leak swap blocks. Half the cases
/// draw the seven operations uniformly, so processes exit early and the
/// kernel runs on with fewer of them; the other half weight touches
/// double and make exits rare, so all three processes stay busy for
/// most of the 400 operations.
#[test]
fn kernel_invariants_hold_under_arbitrary_ops() {
    prop::check(
        "kernel_invariants_hold_under_arbitrary_ops",
        MODEL_CASES,
        |rng| {
            let long_lived = rng.chance(0.5);
            let mut k = kernel();
            let mut alive = [true; NPROCS as usize];
            for t in 1..=400u64 {
                let now = SimTime::from_us(t);
                let pid = ProcId(rng.below(NPROCS as u64) as u32);
                let pg = PageNum(rng.below(PAGES as u64) as u32);
                let kind = if long_lived {
                    match rng.below(7) {
                        0 | 1 => 0,
                        6 if rng.chance(0.1) => 6,
                        6 => 5,
                        k => k - 1,
                    }
                } else {
                    rng.below(7)
                };
                if !alive[pid.0 as usize] {
                    continue;
                }
                match kind {
                    0 => {
                        let _ = k.touch(pid, pg, rng.chance(0.5), now);
                    }
                    1 => {
                        // Only legal on non-resident pages with free frames.
                        if k.free_frames() > 0 && !k.proc(pid).unwrap().pt.state(pg).is_resident() {
                            k.map_in(pid, pg, now).unwrap();
                        }
                    }
                    2 => {
                        if k.proc(pid).unwrap().pt.state(pg).is_resident() {
                            k.evict(pid, pg).unwrap();
                        }
                    }
                    3 => {
                        let pages = page_window(pg.0, rng.below(16));
                        k.evict_batch(pid, &pages, &mut Vec::new()).unwrap();
                    }
                    4 => {
                        let pages = page_window(pg.0, rng.below(16));
                        k.clean_batch(pid, &pages).unwrap();
                    }
                    5 => k.quantum_started(pid).unwrap(),
                    _ => {
                        k.unregister_proc(pid).unwrap();
                        alive[pid.0 as usize] = false;
                    }
                }
                k.check_invariants()
                    .unwrap_or_else(|e| panic!("invariant violated after {t} ops: {e}"));
            }
        },
    );
}

/// touch_run over any window agrees with per-page touch on a twin
/// kernel (same hits, same fault, same WSS accounting).
#[test]
fn touch_run_equals_touch_loop() {
    prop::check("touch_run_equals_touch_loop", MODEL_CASES, |rng| {
        let resident: Vec<bool> = (0..PAGES).map(|_| rng.chance(0.5)).collect();
        let dirty_seed = rng.next_u64_raw();
        let first = rng.below(PAGES as u64) as u32;
        let max = rng.below(PAGES as u64) as usize;
        let write = rng.chance(0.5);
        let max = max.min((PAGES - first) as usize);
        let build = || {
            let mut k = kernel();
            let pid = ProcId(0);
            let mut rng = dirty_seed;
            for (i, &r) in resident.iter().enumerate() {
                if r && k.free_frames() > 0 {
                    k.map_in(pid, PageNum(i as u32), SimTime::from_us(i as u64))
                        .unwrap();
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if rng & 1 == 1 {
                        k.touch(pid, PageNum(i as u32), true, SimTime::from_us(i as u64))
                            .unwrap();
                    }
                }
            }
            k
        };
        let mut k1 = build();
        let mut k2 = build();
        let pid = ProcId(0);
        let now = SimTime::from_us(9_999);
        let (hits, fault) = k1.touch_run(pid, PageNum(first), max, write, now).unwrap();
        let mut hits2 = 0;
        let mut fault2 = None;
        for i in 0..max {
            match k2
                .touch(pid, PageNum(first + i as u32), write, now)
                .unwrap()
            {
                agp_mem::TouchOutcome::Hit => hits2 += 1,
                other => {
                    fault2 = Some(other);
                    break;
                }
            }
        }
        assert_eq!(hits, hits2);
        assert_eq!(fault, fault2);
        assert_eq!(
            k1.proc(pid).unwrap().wss_current(),
            k2.proc(pid).unwrap().wss_current()
        );
        k1.check_invariants().unwrap();
        k2.check_invariants().unwrap();
    });
}

/// Pages of process 0 in the first-touch property: several words, so
/// runs cross word edges.
const FT_PAGES: u32 = 200;

/// A kernel for the first-touch property. Process 0's table holds runs
/// of 1..=24 untouched, resident (clean, dirty, or clean with a swap
/// copy) and swapped pages, page `a` resident; half the time a new
/// epoch starts after the set-up. Then, half the time, process 1's pages
/// cut the free frames to a draw from 0..=freepages.min + 8.
fn first_touch_kernel(rng: &mut SimRng, a: u32) -> Kernel {
    let min = rng.below(8) as usize;
    let frames = 3 * FT_PAGES as usize;
    let mut k = Kernel::new(
        VmParams {
            total_frames: frames,
            wired_frames: 16,
            freepages_min: min,
            freepages_high: min + 4,
            readahead: 16,
        },
        4096,
    );
    let (pid, filler) = (ProcId(0), ProcId(1));
    k.register_proc(pid, FT_PAGES as usize);
    k.register_proc(filler, frames);
    let t = SimTime::from_us(1);
    let mut first = 0;
    while first < FT_PAGES {
        let run = rng.range(1, 25) as u32;
        let kind = rng.below(8).saturating_sub(2);
        for p in (first..first + run).take_while(|&p| p < FT_PAGES) {
            let pg = PageNum(p);
            // 0, 1: untouched (half the runs); 2: clean; 3: dirty; 4:
            // clean with a copy; 5: swapped. Page `a` stays resident.
            let kind = if p == a { 2 + rng.below(3) } else { kind };
            if kind < 2 {
                continue;
            }
            k.map_in(pid, pg, t).unwrap();
            k.touch(pid, pg, kind > 2, t).unwrap();
            if kind == 4 {
                k.clean_batch(pid, &[pg]).unwrap();
            } else if kind == 5 {
                k.evict(pid, pg).unwrap();
            }
        }
        first += run;
    }
    if rng.chance(0.5) {
        k.quantum_started(pid).unwrap();
    }
    let target = if rng.chance(0.5) {
        rng.below(min as u64 + 9) as usize
    } else {
        frames
    };
    for p in 0..frames as u32 {
        if k.free_frames() <= target {
            break;
        }
        k.map_in(filler, PageNum(p), t).unwrap();
    }
    k
}

/// The bulk first touch equals the one-page path it replaces: for j in
/// 1..=m, a two-page touch run from A+j−1 at `t + (j−1)·c` that faults
/// on untouched A+j, then the map-in of A+j at `t + j·c`, with the stops
/// spelt out page by page (the table's end, a page that is not
/// untouched, a fill that would leave fewer than max(freepages.min, 1)
/// free frames, `max`). Both end with the same m, page states, counters
/// and free frames, and pass the invariant check.
#[test]
fn first_touch_run_equals_one_page_path() {
    prop::check("first_touch_run_equals_one_page_path", prop::CASES, |rng| {
        let a = rng.below(FT_PAGES as u64) as u32;
        let mut bulk = first_touch_kernel(rng, a);
        let mut one = bulk.clone();
        let (max, write) = (rng.below(FT_PAGES as u64 + 8) as usize, rng.chance(0.5));
        let t = SimTime::from_us(rng.range(100, 10_000));
        let c = SimDur::from_us(rng.range(1, 100));
        let pid = ProcId(0);

        let m = bulk
            .first_touch_run(pid, PageNum(a), max, write, t, c)
            .unwrap();
        let floor = one.params().freepages_min.max(1);
        let mut m_one = 0;
        for j in (1..=max as u32).take_while(|&j| a + j < FT_PAGES) {
            let next = PageNum(a + j);
            if one.free_frames() <= floor
                || one.proc(pid).unwrap().pt.state(next) != PageState::Untouched
            {
                break;
            }
            let at = t + c * u64::from(j - 1);
            assert_eq!(
                one.touch_run(pid, PageNum(a + j - 1), 2, write, at)
                    .unwrap(),
                (1, Some(TouchOutcome::NeedsZeroFill))
            );
            assert_eq!(one.map_in(pid, next, at + c).unwrap(), MapInOutcome::Zeroed);
            m_one += 1;
        }

        assert_eq!(m, m_one, "pages mapped");
        let (pb, po) = (bulk.proc(pid).unwrap(), one.proc(pid).unwrap());
        for p in 0..FT_PAGES {
            assert_eq!(pb.pt.state(PageNum(p)), po.pt.state(PageNum(p)), "page {p}");
        }
        assert_eq!(pb.rss(), po.rss());
        assert_eq!(pb.pt.dirty_resident(), po.pt.dirty_resident());
        assert_eq!(pb.wss_current(), po.wss_current());
        assert_eq!(bulk.free_frames(), one.free_frames());
        bulk.check_invariants().unwrap();
        one.check_invariants().unwrap();
    });
}

/// A table of 1..=300 pages: mostly not a multiple of 64, and across
/// word edges from 65 pages on.
fn table_pages(rng: &mut SimRng) -> usize {
    rng.range(1, 301) as usize
}

/// map_in, touch_run, evict_batch, clean_batch, clock_sweep,
/// dirty_sweep, read-ahead and replay leave every page's state, the
/// counters, the clock hand and the invariants equal to the reference
/// model's, over 150 operations whose runs are up to 200 pages long and
/// start anywhere, so they cross 64-page word edges. Eviction and
/// cleaning lists come ascending, reversed, interleaved or repeating.
/// Each case starts with swap in use up to a block drawn from
/// 4032..4096, so swap runs (eviction, read-ahead, stale-copy frees)
/// cross the owner map's chunk edge at block 4096.
#[test]
fn page_table_matches_reference_model() {
    prop::check("page_table_matches_reference_model", MODEL_CASES, |rng| {
        let pages = table_pages(rng);
        let fill = 4032 + rng.below(64) as usize;
        let ops: Vec<model::Op> = (0..150)
            .map(|_| {
                model::Op::from_raw(
                    rng.below(model::KINDS.into()) as u8,
                    rng.below(1 << 16) as u16,
                    rng.below(1 << 16) as u16,
                    rng.below(201) as usize,
                    rng.chance(0.5),
                )
            })
            .collect();
        model::check_ops(pages, fill, &ops)
            .unwrap_or_else(|e| panic!("{pages} pages, swap filled to {fill}: {e}"));
    });
}

/// Oldest-first order over ages drawn from a small set, on tables
/// whose equal-age ranges span words: the stable sort by age equals
/// the `(last_ref, page)` reference sort.
#[test]
fn oldest_first_matches_reference_sort() {
    prop::check("oldest_first_matches_reference_sort", MODEL_CASES, |rng| {
        let pages = table_pages(rng);
        let steps: Vec<(u16, usize, u8, bool)> = (0..40)
            .map(|_| {
                (
                    rng.below(1 << 16) as u16,
                    rng.below(201) as usize,
                    rng.below(256) as u8,
                    rng.chance(0.2),
                )
            })
            .collect();
        model::check_oldest_first(pages, &steps).unwrap_or_else(|e| panic!("{pages} pages: {e}"));
    });
}

/// The bitmap swap allocator returns the reference extent
/// allocator's result for every alloc, and agrees on free blocks,
/// fragments and block states after every alloc, one-block free and
/// free_extent, over 300 operations on devices on both sides of a
/// word edge. Allocations ask for 0..300 blocks.
#[test]
fn swap_allocator_matches_reference() {
    prop::check("swap_allocator_matches_reference", MODEL_CASES, |rng| {
        let total = DEVICES[rng.below(DEVICES.len() as u64) as usize];
        let ops: Vec<SwapOp> = (0..300)
            .map(|_| {
                SwapOp::from_raw(
                    rng.below(3) as u8,
                    rng.next_u64_raw(),
                    rng.next_u64_raw() as usize,
                    rng.next_u64_raw(),
                    rng.next_u64_raw(),
                )
            })
            .collect();
        check_swap_ops(total, &ops).unwrap_or_else(|e| panic!("{total} blocks: {e}"));
    });
}

/// The swap allocator conserves blocks across arbitrary alloc/free
/// sequences and never hands out overlapping extents. Frees are whole
/// extents, last allocated first, and single blocks in any order (as
/// writes free stale swap copies); once everything is back, the
/// device is one free extent again.
#[test]
fn swap_allocator_conserves() {
    prop::check("swap_allocator_conserves", MODEL_CASES, |rng| {
        let ops = prop::vec(rng, 1..200, |r| {
            (
                r.below(3),
                r.range(1, 64),
                r.next_u64_raw() as usize,
                r.next_u64_raw(),
            )
        });
        let total = 1024;
        let mut s = SwapSpace::new(total);
        let mut held: Vec<Extent> = Vec::new();
        let mut held_blocks = 0u64;
        for (kind, n, pick, at) in ops {
            match kind {
                0 => match s.alloc(n) {
                    Ok(extents) => {
                        // No overlap with anything already held.
                        for e in &extents {
                            for h in &held {
                                assert!(
                                    e.end() <= h.start || h.end() <= e.start,
                                    "overlapping allocation {e:?} vs {h:?}"
                                );
                            }
                        }
                        held_blocks += n;
                        held.extend(extents);
                    }
                    Err(MemError::SwapFull { free, .. }) => {
                        assert_eq!(free, total - held_blocks);
                        assert!(free < n);
                    }
                    Err(e) => panic!("unexpected {e}"),
                },
                1 => {
                    if let Some(e) = held.pop() {
                        s.free_extent(e);
                        held_blocks -= e.len;
                    }
                }
                _ => {
                    if let Some(e) = release(&mut held, pick, at, 0) {
                        s.free_extent(Extent::new(e.start, 1));
                        held_blocks -= 1;
                    }
                }
            }
            assert_eq!(s.used_blocks(), held_blocks);
            assert_eq!(s.free_blocks(), total - held_blocks);
        }
        for e in held {
            s.free_extent(e);
        }
        assert_eq!(s.free_blocks(), total);
        assert_eq!(s.fragments(), 1);
        assert_eq!(s.alloc(total).unwrap(), vec![Extent::new(0, total)]);
    });
}
