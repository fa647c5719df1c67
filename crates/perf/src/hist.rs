//! The fixed-bucket log2 histogram shared by agp-perf's span timings
//! (nanoseconds) and agp-obs's latency distributions (microseconds).

/// Number of buckets: one zero bucket plus one per power of two up to
/// `u64::MAX` (bucket `i ≥ 1` covers `[2^(i-1), 2^i)`).
const BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram of `u64` values in any one unit.
///
/// Bucket 0 counts exact zeros; bucket `i ≥ 1` counts values in
/// `[2^(i-1), 2^i)`. Fixed power-of-two buckets keep recording to a
/// handful of integer ops and make the rendered shape comparable across
/// runs regardless of the value range.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `i` (0 for the zero bucket).
    fn floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self`: per-bucket counts add, the sum saturates
    /// like [`LatencyHistogram::record`], and the max is the larger of the
    /// two. Merging is associative and commutative, so per-thread span
    /// recorders fold into the same histogram in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Estimate the `p`-th percentile (0–100) by locating the bucket
    /// holding the target rank and interpolating linearly within its
    /// `[2^(i-1), 2^i)` range. Exact for bucket 0 (all zeros); elsewhere
    /// the estimate is within one bucket width of the true value. The top
    /// bucket is clamped to the recorded maximum. Returns 0 when empty;
    /// `p` is clamped to `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Target rank in [0, count-1], interpolation-style: rank r means
        // "the value below which r of the count-1 gaps fall".
        let rank = p / 100.0 * (self.count - 1) as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let hi_rank = (cum + c - 1) as f64;
            if rank <= hi_rank {
                if i == 0 {
                    return 0;
                }
                let lo = Self::floor(i);
                let hi = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 }.min(self.max);
                if hi <= lo {
                    return lo.min(self.max);
                }
                if c == 1 {
                    // A lone occupant of the top bucket is the recorded
                    // maximum itself; elsewhere the floor is the best guess.
                    return if cum + c == self.count { self.max } else { lo };
                }
                // Fraction of the way through this bucket's occupants. A
                // rank between the previous bucket's last occupant and
                // this bucket's first is below 0: it answers the floor.
                let frac = ((rank - cum as f64) / (c - 1) as f64).max(0.0);
                if frac >= 1.0 {
                    // Exact even where f64 cannot hold `hi` (past 2^53).
                    return hi;
                }
                let est = lo as f64 + frac * (hi - lo) as f64;
                return (est as u64).clamp(lo, hi);
            }
            cum += c;
        }
        self.max
    }

    /// Median estimate (see [`LatencyHistogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The buckets between the first and last occupied one (inclusive),
    /// as `(lower bound, count)` rows ready for a bar chart. Interior
    /// zero buckets are kept so gaps in the distribution stay visible.
    pub fn rows(&self) -> Vec<(u64, u64)> {
        let first = match self.counts.iter().position(|&c| c > 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        // position() found a nonzero bucket, so rposition() must too;
        // fall back to `first` rather than keeping a panic path.
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(first);
        (first..=last)
            .map(|i| (Self::floor(i), self.counts[i]))
            .collect()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let rows = h.rows();
        // Buckets: 0 -> 1, [1,2) -> 1, [2,4) -> 2, [4,8) -> 1.
        assert_eq!(rows, vec![(0, 1), (1, 1), (2, 2), (4, 1)]);
    }

    #[test]
    fn a_rank_between_buckets_answers_the_upper_floor() {
        let mut h = LatencyHistogram::new();
        for v in [1, 2, 3] {
            h.record(v);
        }
        // Rank 0.5 lies past the lone 1 and before the [2,4) pair.
        assert_eq!(h.percentile(25.0), 2);
    }

    #[test]
    fn p100_is_exact_past_f64_integers() {
        let mut h = LatencyHistogram::new();
        let v = (1u64 << 62) + 1;
        h.record(v);
        h.record(v);
        assert_eq!(h.percentile(100.0), v);
    }

    #[test]
    fn stats_track_inputs() {
        let mut h = LatencyHistogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 60);
        assert_eq!(h.mean(), 20);
        assert_eq!(h.max(), 30);
        assert!(!h.is_empty());
    }

    #[test]
    fn empty_histogram_has_no_rows() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert!(h.rows().is_empty());
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn interior_gaps_are_kept() {
        let mut h = LatencyHistogram::new();
        h.record(1); // bucket 1
        h.record(1 << 10); // bucket 11
        let rows = h.rows();
        assert_eq!(rows.len(), 11);
        assert_eq!(rows.iter().filter(|(_, c)| *c > 0).count(), 2);
        assert_eq!(rows.last().unwrap().0, 1024);
    }

    /// Exact percentile of sorted samples, matching the histogram's
    /// rank definition (linear interpolation between order statistics).
    fn exact_percentile(sorted: &[u64], p: f64) -> f64 {
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] as f64 + frac * (sorted[hi] - sorted[lo]) as f64
    }

    #[test]
    fn percentiles_are_exact_on_degenerate_inputs() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.p50(), 0, "empty histogram");
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let mut one = LatencyHistogram::new();
        one.record(777);
        assert_eq!(one.p50(), 777, "single sample clamps to max");
        assert_eq!(one.p99(), 777);
    }

    #[test]
    fn percentiles_track_exact_values_on_seeded_samples() {
        // Deterministic LCG (no external RNG) spanning several decades.
        let mut state = 0x5EED_600Du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100_000
        };
        let mut h = LatencyHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..10_000 {
            let v = next();
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for p in [50.0, 90.0, 99.0] {
            let exact = exact_percentile(&samples, p);
            let est = h.percentile(p) as f64;
            // A log2-bucket estimate can sit anywhere inside the exact
            // value's bucket: within a factor of two, and never above max.
            assert!(
                est <= 2.0 * exact && est >= exact / 2.0,
                "p{p}: estimate {est} vs exact {exact}"
            );
            assert!(est <= h.max() as f64);
        }
        // Percentiles are monotone in p.
        assert!(h.p50() <= h.p90());
        assert!(h.p90() <= h.p99());
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn uniform_in_bucket_interpolates() {
        // 4 samples all in bucket [8, 16): ranks interpolate inside it.
        let mut h = LatencyHistogram::new();
        for v in [8, 10, 12, 15] {
            h.record(v);
        }
        let p0 = h.percentile(0.0);
        let p100 = h.percentile(100.0);
        assert_eq!(p0, 8, "0th percentile is the bucket floor");
        assert_eq!(p100, 15, "100th percentile clamps to the max");
        let p50 = h.p50();
        assert!((8..=15).contains(&p50), "median interpolates: {p50}");
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.rows().len(), 1);
    }

    #[test]
    fn merge_equals_serial_recording() {
        // Split one sample stream across shards; the merged histogram
        // must match the serially-recorded one field for field.
        let mut state = 0xA5A5_5A5Au64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 1_000_000
        };
        let mut serial = LatencyHistogram::new();
        let mut shards = vec![LatencyHistogram::new(); 3];
        for i in 0..5000 {
            let v = next();
            serial.record(v);
            shards[i % 3].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), serial.count());
        assert_eq!(merged.sum(), serial.sum());
        assert_eq!(merged.max(), serial.max());
        assert_eq!(merged.rows(), serial.rows());
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(merged.percentile(p), serial.percentile(p));
        }
    }

    #[test]
    fn merge_is_associative() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut c = LatencyHistogram::new();
        for (h, vals) in [
            (&mut a, [1u64, 5, 9].as_slice()),
            (&mut b, [0, 1024].as_slice()),
            (&mut c, [u64::MAX].as_slice()),
        ] {
            for &v in vals {
                h.record(v);
            }
        }
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left.rows(), right.rows());
        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.max(), right.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        let before = (h.count(), h.sum(), h.max(), h.rows());
        h.merge(&LatencyHistogram::new());
        assert_eq!((h.count(), h.sum(), h.max(), h.rows()), before);
    }
}
