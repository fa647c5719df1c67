//! Paging-activity traces: pages moved per time bucket, per direction.
//!
//! Fig. 6 of the paper plots page-in and page-out activity over the first
//! 50 minutes of a gang-scheduled run; the qualitative claims ("sharp and
//! high peaks", "page-ins spread over a long period") are statements about
//! the shape of exactly this series. [`ActivityTrace`] accumulates the
//! counts and offers the summary statistics the experiments assert on
//! (burstiness, paging duration after each switch).

use crate::json::Json;
use agp_sim::{SimDur, SimTime};

/// One node's paging activity, bucketed by wall-clock simulation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ActivityTrace {
    bucket: SimDur,
    pages_in: Vec<u64>,
    pages_out: Vec<u64>,
}

impl ActivityTrace {
    /// A trace with the given bucket width (Fig. 6 resolution ≈ 10 s).
    pub fn new(bucket: SimDur) -> Self {
        assert!(bucket.as_us() > 0, "bucket must be positive");
        ActivityTrace {
            bucket,
            pages_in: Vec::new(),
            pages_out: Vec::new(),
        }
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDur {
        self.bucket
    }

    fn idx(&self, at: SimTime) -> usize {
        (at.as_us() / self.bucket.as_us()) as usize
    }

    fn ensure(&mut self, i: usize) {
        if self.pages_in.len() <= i {
            self.pages_in.resize(i + 1, 0);
            self.pages_out.resize(i + 1, 0);
        }
    }

    /// Record `pages` paged in at `at`.
    pub fn record_in(&mut self, at: SimTime, pages: u64) {
        let i = self.idx(at);
        self.ensure(i);
        self.pages_in[i] += pages;
    }

    /// Record `pages` paged out at `at`.
    pub fn record_out(&mut self, at: SimTime, pages: u64) {
        let i = self.idx(at);
        self.ensure(i);
        self.pages_out[i] += pages;
    }

    /// Page-in counts per bucket.
    pub fn ins(&self) -> &[u64] {
        &self.pages_in
    }

    /// Page-out counts per bucket.
    pub fn outs(&self) -> &[u64] {
        &self.pages_out
    }

    /// Number of buckets recorded.
    pub fn len(&self) -> usize {
        self.pages_in.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.pages_in.is_empty()
    }

    /// The trace as JSON: `{bucket, pages_in, pages_out}`, with `bucket`
    /// in µs.
    pub fn to_json(&self) -> Json {
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|&n| Json::Num(n as f64)).collect());
        Json::Obj(vec![
            ("bucket".into(), Json::Num(self.bucket.as_us() as f64)),
            ("pages_in".into(), counts(&self.pages_in)),
            ("pages_out".into(), counts(&self.pages_out)),
        ])
    }

    /// Total pages paged in.
    pub fn total_in(&self) -> u64 {
        self.pages_in.iter().sum()
    }

    /// Total pages paged out.
    pub fn total_out(&self) -> u64 {
        self.pages_out.iter().sum()
    }

    /// Number of buckets with any paging activity — the "duration" of
    /// paging. Compaction (the whole point of adaptive paging) shows up as
    /// a *smaller* active-bucket count for the same total volume.
    pub fn active_buckets(&self) -> usize {
        self.pages_in
            .iter()
            .zip(&self.pages_out)
            .filter(|(i, o)| **i + **o > 0)
            .count()
    }

    /// Peak single-bucket page-in count ("sharp and high peaks").
    pub fn peak_in(&self) -> u64 {
        self.pages_in.iter().copied().max().unwrap_or(0)
    }

    /// Peak single-bucket page-out count.
    pub fn peak_out(&self) -> u64 {
        self.pages_out.iter().copied().max().unwrap_or(0)
    }

    /// Buckets where page-in and page-out overlap — the interference the
    /// paper's first Fig. 6 graph exhibits and the adaptive policies
    /// eliminate ("the overlapping of page-ins and page-outs indicates
    /// that they interfere with each other").
    pub fn overlap_buckets(&self) -> usize {
        self.pages_in
            .iter()
            .zip(&self.pages_out)
            .filter(|(i, o)| **i > 0 && **o > 0)
            .count()
    }

    /// Compaction index: total paged volume divided by active buckets —
    /// higher means the same I/O squeezed into less wall-clock time.
    pub fn compaction(&self) -> f64 {
        let active = self.active_buckets();
        if active == 0 {
            return 0.0;
        }
        (self.total_in() + self.total_out()) as f64 / active as f64
    }

    /// Truncate the trace to the first `horizon` of simulated time
    /// (Fig. 6 shows only the first 50 minutes).
    pub fn truncated(&self, horizon: SimDur) -> ActivityTrace {
        let n = (horizon.as_us() / self.bucket.as_us()) as usize;
        ActivityTrace {
            bucket: self.bucket,
            pages_in: self.pages_in.iter().copied().take(n).collect(),
            pages_out: self.pages_out.iter().copied().take(n).collect(),
        }
    }

    /// Merge another trace into this one (aggregating nodes).
    pub fn merge(&mut self, other: &ActivityTrace) {
        assert_eq!(self.bucket, other.bucket, "bucket widths must match");
        if other.is_empty() {
            // ensure(0) would grow an empty trace to one zero bucket,
            // making "merged nothing" observable in bucket counts.
            return;
        }
        self.ensure(other.len() - 1);
        for (i, (&a, &b)) in other.pages_in.iter().zip(&other.pages_out).enumerate() {
            self.pages_in[i] += a;
            self.pages_out[i] += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn json_carries_the_bucket_in_us_and_both_series() {
        let mut tr = ActivityTrace::new(SimDur::from_secs(10));
        tr.record_in(t(15), 3);
        tr.record_out(t(0), 2);
        assert_eq!(
            tr.to_json().to_string_compact(),
            r#"{"bucket":10000000,"pages_in":[0,3],"pages_out":[2,0]}"#
        );
    }

    #[test]
    fn bucketing_is_floor_division() {
        let mut tr = ActivityTrace::new(SimDur::from_secs(10));
        tr.record_in(t(0), 5);
        tr.record_in(t(9), 5);
        tr.record_in(t(10), 7);
        assert_eq!(tr.ins(), &[10, 7]);
        assert_eq!(tr.total_in(), 17);
    }

    #[test]
    fn independent_directions() {
        let mut tr = ActivityTrace::new(SimDur::from_secs(10));
        tr.record_in(t(5), 3);
        tr.record_out(t(25), 4);
        assert_eq!(tr.ins(), &[3, 0, 0]);
        assert_eq!(tr.outs(), &[0, 0, 4]);
        assert_eq!(tr.active_buckets(), 2);
        assert_eq!(tr.overlap_buckets(), 0);
    }

    #[test]
    fn overlap_detection() {
        let mut tr = ActivityTrace::new(SimDur::from_secs(10));
        tr.record_in(t(5), 3);
        tr.record_out(t(7), 2);
        tr.record_in(t(15), 1);
        assert_eq!(tr.overlap_buckets(), 1);
    }

    #[test]
    fn compaction_prefers_bursts() {
        // Same 100 pages: spread over 10 buckets vs packed into 1.
        let mut spread = ActivityTrace::new(SimDur::from_secs(10));
        for i in 0..10 {
            spread.record_in(t(i * 10), 10);
        }
        let mut packed = ActivityTrace::new(SimDur::from_secs(10));
        packed.record_in(t(0), 100);
        assert!(packed.compaction() > spread.compaction() * 5.0);
        assert_eq!(packed.peak_in(), 100);
        assert_eq!(spread.peak_in(), 10);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let mut tr = ActivityTrace::new(SimDur::from_secs(10));
        tr.record_in(t(5), 1);
        tr.record_in(t(95), 2);
        let cut = tr.truncated(SimDur::from_secs(50));
        assert_eq!(cut.len(), 5);
        assert_eq!(cut.total_in(), 1);
    }

    #[test]
    fn merge_aggregates_nodes() {
        let mut a = ActivityTrace::new(SimDur::from_secs(10));
        a.record_in(t(5), 1);
        let mut b = ActivityTrace::new(SimDur::from_secs(10));
        b.record_in(t(5), 2);
        b.record_out(t(25), 3);
        a.merge(&b);
        assert_eq!(a.ins(), &[3, 0, 0]);
        assert_eq!(a.outs(), &[0, 0, 3]);
    }

    #[test]
    fn merging_an_empty_trace_is_a_no_op() {
        // Regression: ensure(len-1) on an empty `other` used to grow an
        // empty trace to a single zero bucket.
        let mut a = ActivityTrace::new(SimDur::from_secs(10));
        a.merge(&ActivityTrace::new(SimDur::from_secs(10)));
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);

        // And a non-empty target is left untouched.
        let mut b = ActivityTrace::new(SimDur::from_secs(10));
        b.record_in(t(5), 4);
        b.merge(&ActivityTrace::new(SimDur::from_secs(10)));
        assert_eq!(b.ins(), &[4]);
    }

    #[test]
    fn empty_trace_stats() {
        let tr = ActivityTrace::new(SimDur::from_secs(10));
        assert!(tr.is_empty());
        assert_eq!(tr.peak_in(), 0);
        assert_eq!(tr.compaction(), 0.0);
        assert_eq!(tr.active_buckets(), 0);
    }
}
