//! Property tests for `LatencyHistogram::percentile_us` at bucket
//! boundaries.
//!
//! The histogram stores log2 buckets (bucket 0 holds zeros, bucket `i`
//! covers `[2^(i-1), 2^i)`), so a percentile estimate cannot be exact —
//! its documented contract is *bucket accuracy*: the estimate lands in
//! the same bucket as the exact sample at the ceiling of the percentile
//! rank. These properties pin that contract adversarially across power-
//! of-two boundary values (a strict value-ratio band is provably
//! unattainable: with samples `[1, 1_000_000]`, p=1 must answer from the
//! top bucket while the exact interpolated value is near the bottom).

use agp_obs::LatencyHistogram;
use agp_sim::prop::{self, CASES};
use agp_sim::SimRng;

/// The bucket index `LatencyHistogram` files `v` under.
fn bucket_of(v: u64) -> u32 {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros()
    }
}

/// Values biased hard toward bucket edges: exact powers of two, one
/// below, one above, zero, and `u64::MAX`.
fn boundary_value(rng: &mut SimRng) -> u64 {
    match rng.below(7) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => 1u64 << rng.below(63),
        4 => (1u64 << rng.range(1, 64)) - 1,
        5 => (1u64 << rng.below(62)) + 1,
        _ => rng.next_u64_raw(),
    }
}

/// A percentile in `0..=100`.
fn percentile(rng: &mut SimRng) -> u32 {
    rng.below(101) as u32
}

fn build(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

/// The estimate's bucket equals the bucket of the exact sample at
/// `ceil(rank)` — the histogram never answers from the wrong bucket,
/// even when the rank straddles empty buckets.
#[test]
fn estimate_lands_in_the_exact_samples_bucket() {
    prop::check("estimate_lands_in_the_exact_samples_bucket", CASES, |rng| {
        let mut samples = prop::vec(rng, 1..200, boundary_value);
        let p = percentile(rng);
        let h = build(&samples);
        samples.sort_unstable();
        let p = p as f64;
        let est = h.percentile_us(p);
        // Mirror the implementation's rank formula exactly.
        let rank = (p / 100.0) * (samples.len() - 1) as f64;
        let ceil_idx = (rank.ceil() as usize).min(samples.len() - 1);
        let exact_hi = samples[ceil_idx];
        assert_eq!(
            bucket_of(est),
            bucket_of(exact_hi),
            "p={} est={} exact-hi={} over {} samples",
            p,
            est,
            exact_hi,
            samples.len()
        );
    });
}

/// Estimates never exceed the recorded maximum, and p=100 hits it
/// exactly.
#[test]
fn estimate_is_bounded_by_max_and_p100_is_exact() {
    prop::check(
        "estimate_is_bounded_by_max_and_p100_is_exact",
        CASES,
        |rng| {
            let samples = prop::vec(rng, 1..200, boundary_value);
            let p = percentile(rng);
            let h = build(&samples);
            assert!(h.percentile_us(p as f64) <= h.max_us());
            assert_eq!(h.percentile_us(100.0), h.max_us());
        },
    );
}

/// Percentiles are monotone in `p`.
#[test]
fn estimates_are_monotone_in_p() {
    prop::check("estimates_are_monotone_in_p", CASES, |rng| {
        let samples = prop::vec(rng, 1..200, boundary_value);
        let (p1, p2) = (percentile(rng), percentile(rng));
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let h = build(&samples);
        assert!(h.percentile_us(lo as f64) <= h.percentile_us(hi as f64));
    });
}

/// A single sample answers every percentile exactly.
#[test]
fn single_sample_is_exact_at_every_percentile() {
    prop::check("single_sample_is_exact_at_every_percentile", CASES, |rng| {
        let (v, p) = (boundary_value(rng), percentile(rng));
        let h = build(&[v]);
        assert_eq!(h.percentile_us(p as f64), v);
    });
}

/// A saturated single-bucket histogram (every sample equal) stays
/// inside that bucket at every percentile and is exact at p=100.
#[test]
fn saturated_single_bucket_stays_in_bucket() {
    prop::check("saturated_single_bucket_stays_in_bucket", CASES, |rng| {
        let v = boundary_value(rng);
        let (n, p) = (rng.range(1, 64) as usize, percentile(rng));
        let h = build(&vec![v; n]);
        let est = h.percentile_us(p as f64);
        assert_eq!(bucket_of(est), bucket_of(v));
        assert_eq!(h.percentile_us(100.0), v);
    });
}

/// Deterministically split `samples` across `shards` round-robin,
/// record each shard into its own histogram, and fold the shards back
/// in shard order.
fn shard_merge(samples: &[u64], shards: usize) -> LatencyHistogram {
    let mut parts = vec![LatencyHistogram::default(); shards];
    for (i, &s) in samples.iter().enumerate() {
        parts[i % shards].record(s);
    }
    let mut merged = LatencyHistogram::default();
    for p in &parts {
        merged.merge(p);
    }
    merged
}

fn hist_fingerprint(h: &LatencyHistogram) -> (u64, u64, u64, Vec<(String, u64)>) {
    (h.count(), h.sum_us(), h.max_us(), h.rows())
}

/// Shard-count invariance: recording a stream serially, or splitting
/// it over 2 or 8 shards and merging, produces the same histogram —
/// counts, sum, max, every bucket, every percentile.
#[test]
fn merge_is_shard_count_invariant() {
    prop::check("merge_is_shard_count_invariant", CASES, |rng| {
        let samples = prop::vec(rng, 1..200, boundary_value);
        let p = percentile(rng);
        let serial = build(&samples);
        for shards in [2usize, 8] {
            let merged = shard_merge(&samples, shards);
            assert_eq!(hist_fingerprint(&merged), hist_fingerprint(&serial));
            assert_eq!(
                merged.percentile_us(p as f64),
                serial.percentile_us(p as f64)
            );
        }
    });
}

/// Associativity: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`.
#[test]
fn merge_is_associative() {
    prop::check("merge_is_associative", CASES, |rng| {
        let a = prop::vec(rng, 0..60, boundary_value);
        let b = prop::vec(rng, 0..60, boundary_value);
        let c = prop::vec(rng, 0..60, boundary_value);
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        assert_eq!(hist_fingerprint(&left), hist_fingerprint(&right));
    });
}

/// The empty histogram is the merge identity, on both sides.
#[test]
fn empty_is_merge_identity() {
    prop::check("empty_is_merge_identity", CASES, |rng| {
        let samples = prop::vec(rng, 0..100, boundary_value);
        let h = build(&samples);
        let mut left = LatencyHistogram::default();
        left.merge(&h);
        let mut right = h.clone();
        right.merge(&LatencyHistogram::default());
        assert_eq!(hist_fingerprint(&left), hist_fingerprint(&h));
        assert_eq!(hist_fingerprint(&right), hist_fingerprint(&h));
    });
}

// ---------------------------------------------------------------------
// Collector merge algebra
// ---------------------------------------------------------------------

use agp_obs::{Collector, ObsEvent, Observer, SwitchPhaseKind};
use agp_sim::SimTime;

/// One atomic unit of collector input. Shard boundaries in the real
/// fan-out fall between whole simulation runs, never inside a gang
/// switch's event group, so the sharding unit here is either a single
/// non-switch event or a complete switch block (phase + done with one
/// switch id).
#[derive(Clone, Debug)]
enum EventGroup {
    One(ObsEvent),
    Switch { page_out_us: u64, total_us: u64 },
}

/// A compact slice of the event taxonomy touching every Collector
/// surface: counters, all five histograms, and the switch-record list.
fn event_group(rng: &mut SimRng) -> EventGroup {
    let u32_of = |r: &mut SimRng| r.next_u64_raw() as u32;
    match rng.below(6) {
        0 => EventGroup::One(ObsEvent::PageFault {
            pid: u32_of(rng),
            page: u32_of(rng),
            major: rng.chance(0.5),
        }),
        1 => EventGroup::One(ObsEvent::Replay {
            pid: u32_of(rng),
            pages: rng.below(1 << 20),
            skipped: rng.below(1 << 20),
        }),
        2 => EventGroup::One(ObsEvent::DiskRequest {
            write: rng.chance(0.5),
            extents: 1,
            pages: rng.range(1, 256),
            wait_us: rng.below(1 << 20),
            seek_us: 0,
            service_us: rng.below(1 << 20),
        }),
        3 => EventGroup::One(ObsEvent::FaultService {
            pid: u32_of(rng),
            page: u32_of(rng),
            wait_us: rng.below(1 << 30),
        }),
        4 => EventGroup::One(ObsEvent::BarrierWait {
            ranks: rng.range(1, 64) as u32,
            skew_us: rng.below(1 << 30),
            lag_us: rng.below(1 << 30),
        }),
        _ => EventGroup::Switch {
            page_out_us: rng.below(1 << 20),
            total_us: rng.below(1 << 20),
        },
    }
}

/// Feed `groups` into a collector. Group `offset + i` stamps its events
/// at `t = offset + i` and numbers its switch (if any) `offset + i`, so
/// a shard re-feeding a slice reproduces exactly the serial timestamps
/// and switch ids.
fn collect(groups: &[EventGroup], offset: usize) -> Collector {
    let mut c = Collector::new();
    for (i, g) in groups.iter().enumerate() {
        let at = SimTime::from_us((offset + i) as u64);
        match g {
            EventGroup::One(ev) => c.on_event(at, 0, ev),
            EventGroup::Switch {
                page_out_us,
                total_us,
            } => {
                let switch = (offset + i) as u64;
                c.on_event(
                    at,
                    0,
                    &ObsEvent::SwitchPhase {
                        switch,
                        phase: SwitchPhaseKind::PageOut,
                        dur_us: *page_out_us,
                    },
                );
                c.on_event(
                    at,
                    0,
                    &ObsEvent::SwitchDone {
                        switch,
                        total_us: *total_us,
                    },
                );
            }
        }
    }
    c
}

/// Everything observable about a collector, for equality checks.
fn collector_fingerprint(c: &Collector) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        c.counters,
        c.switch_records(),
        hist_fingerprint(&c.switch_total),
        hist_fingerprint(&c.fault_service),
        hist_fingerprint(&c.disk_wait),
        hist_fingerprint(&c.disk_service),
        hist_fingerprint(&c.barrier_skew),
    )
}

/// Contiguous-block sharding (what the registry fan-out does: each
/// shard owns a slice of the work list) merged in shard order equals
/// the serial collector, for 2 and 8 shards.
#[test]
fn collector_merge_is_shard_count_invariant() {
    prop::check("collector_merge_is_shard_count_invariant", CASES, |rng| {
        let groups = prop::vec(rng, 1..120, event_group);
        let serial = collect(&groups, 0);
        for shards in [2usize, 8] {
            let chunk = groups.len().div_ceil(shards);
            let mut merged = Collector::new();
            let mut offset = 0;
            for part in groups.chunks(chunk) {
                // Re-feed with the original global timestamps and switch
                // ids so the switch records match the serial run exactly.
                merged.merge(&collect(part, offset));
                offset += part.len();
            }
            assert_eq!(
                collector_fingerprint(&merged),
                collector_fingerprint(&serial),
                "shards={}",
                shards
            );
        }
    });
}

/// Collector merge is associative.
#[test]
fn collector_merge_is_associative() {
    prop::check("collector_merge_is_associative", CASES, |rng| {
        let a = prop::vec(rng, 0..40, event_group);
        let b = prop::vec(rng, 0..40, event_group);
        let c = prop::vec(rng, 0..40, event_group);
        let (ca, cb, cc) = (collect(&a, 0), collect(&b, 100), collect(&c, 200));
        let mut left = Collector::new();
        left.merge(&ca);
        left.merge(&cb);
        left.merge(&cc);
        let mut bc = Collector::new();
        bc.merge(&cb);
        bc.merge(&cc);
        let mut right = Collector::new();
        right.merge(&ca);
        right.merge(&bc);
        assert_eq!(collector_fingerprint(&left), collector_fingerprint(&right));
    });
}

#[test]
fn empty_histogram_answers_zero() {
    let h = LatencyHistogram::default();
    for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
        assert_eq!(h.percentile_us(p), 0);
    }
}

#[test]
fn all_zero_samples_answer_zero() {
    let h = build(&[0, 0, 0, 0]);
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(h.percentile_us(p), 0);
    }
}

#[test]
fn u64_max_saturates_without_panicking() {
    let h = build(&[u64::MAX, u64::MAX, 1]);
    assert_eq!(h.percentile_us(100.0), u64::MAX);
    assert_eq!(h.percentile_us(0.0), 1, "the minimum sample");
}
