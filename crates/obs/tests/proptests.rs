//! Property tests for `LatencyHistogram::percentile` at bucket
//! boundaries, and for its merge (which folds per-thread span
//! recorders in agp-perf).
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
        let est = h.percentile(p);
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
            assert!(h.percentile(p as f64) <= h.max());
            assert_eq!(h.percentile(100.0), h.max());
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
        assert!(h.percentile(lo as f64) <= h.percentile(hi as f64));
    });
}

/// A single sample answers every percentile exactly.
#[test]
fn single_sample_is_exact_at_every_percentile() {
    prop::check("single_sample_is_exact_at_every_percentile", CASES, |rng| {
        let (v, p) = (boundary_value(rng), percentile(rng));
        let h = build(&[v]);
        assert_eq!(h.percentile(p as f64), v);
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
        let est = h.percentile(p as f64);
        assert_eq!(bucket_of(est), bucket_of(v));
        assert_eq!(h.percentile(100.0), v);
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

fn hist_fingerprint(h: &LatencyHistogram) -> (u64, u64, u64, Vec<(u64, u64)>) {
    (h.count(), h.sum(), h.max(), h.rows())
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
            assert_eq!(merged.percentile(p as f64), serial.percentile(p as f64));
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

#[test]
fn empty_histogram_answers_zero() {
    let h = LatencyHistogram::default();
    for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
        assert_eq!(h.percentile(p), 0);
    }
}

#[test]
fn all_zero_samples_answer_zero() {
    let h = build(&[0, 0, 0, 0]);
    for p in [0.0, 50.0, 100.0] {
        assert_eq!(h.percentile(p), 0);
    }
}

#[test]
fn u64_max_saturates_without_panicking() {
    let h = build(&[u64::MAX, u64::MAX, 1]);
    assert_eq!(h.percentile(100.0), u64::MAX);
    assert_eq!(h.percentile(0.0), 1, "the minimum sample");
}
