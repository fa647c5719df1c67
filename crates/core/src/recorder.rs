//! The adaptive page-in recorder (paper §3.3, Fig. 4).
//!
//! As a descheduled process's pages are flushed, the kernel records them so
//! the whole set can be faulted back in — in bulk — when the process is
//! rescheduled. The paper compresses the record as *base address +
//! contiguous-page offset* runs ("our page recording module records just
//! the offset as the number of contiguous pages from a given page
//! address"), and this module reproduces exactly that run-length
//! structure, including its kernel-memory accounting.

use agp_mem::PageNum;

/// One recorded run: `count` virtually contiguous pages starting at `base`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageRun {
    /// First page of the run.
    pub base: PageNum,
    /// Number of contiguous pages (≥ 1).
    pub count: u32,
}

impl PageRun {
    /// Iterate the pages covered by the run.
    pub fn pages(&self) -> impl Iterator<Item = PageNum> {
        let b = self.base.0;
        (b..b + self.count).map(PageNum)
    }
}

/// Run-length record of one process's flushed pages, in flush order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PageRecorder {
    runs: Vec<PageRun>,
    total: u64,
}

impl PageRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one flushed page. Pages flushed in virtually ascending
    /// adjacency extend the current run ("append the addr to the list" /
    /// bump the offset, Fig. 4); anything else starts a new run.
    pub fn record(&mut self, page: PageNum) {
        self.total += 1;
        if let Some(last) = self.runs.last_mut() {
            if page.0 == last.base.0 + last.count {
                last.count += 1;
                return;
            }
        }
        self.runs.push(PageRun {
            base: page,
            count: 1,
        });
    }

    /// Record a batch in order.
    pub fn record_all(&mut self, pages: &[PageNum]) {
        for &p in pages {
            self.record(p);
        }
    }

    /// Number of pages recorded.
    pub fn total_pages(&self) -> u64 {
        self.total
    }

    /// Number of runs (each run costs one record of kernel memory).
    pub fn runs(&self) -> &[PageRun] {
        &self.runs
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Kernel memory the record would occupy, in bytes, assuming the
    /// paper's list node of {base, offset, next} (3 × 4 bytes on the
    /// i386 kernels of the day). The point of run-length coding is that
    /// this is far smaller than one node per page.
    pub fn kernel_bytes(&self) -> usize {
        self.runs.len() * 12
    }

    /// Drain the record, yielding its runs in recorded order (their pages
    /// in turn are the replay order of the induced faults in Fig. 4) and
    /// leaving the recorder empty.
    pub fn take_runs(&mut self) -> Vec<PageRun> {
        self.total = 0;
        std::mem::take(&mut self.runs)
    }

    /// Clear without draining (e.g. when a process exits).
    pub fn clear(&mut self) {
        self.runs.clear();
        self.total = 0;
    }

    /// Structural coherence of the run-length list.
    ///
    /// The record is in *flush order*, not page order, and the same page may
    /// legitimately be recorded twice (bgwrite + re-eviction interplay), so
    /// sortedness and non-overlap are **not** invariants here. What must
    /// always hold:
    ///
    /// * every run covers at least one page and does not wrap the page-
    ///   number space;
    /// * `total` equals the sum of the run counts (the kernel-memory
    ///   accounting depends on it);
    /// * runs are maximal: a run is only started when the flushed page does
    ///   not extend the previous run, so no run begins exactly one past the
    ///   end of its predecessor.
    pub fn check_coherence(&self) -> Result<(), String> {
        let mut sum = 0u64;
        for (i, r) in self.runs.iter().enumerate() {
            if r.count == 0 {
                return Err(format!("run {i} at {:?} is empty", r.base));
            }
            if r.base.0.checked_add(r.count).is_none() {
                return Err(format!(
                    "run {i} at {:?} × {} wraps the page-number space",
                    r.base, r.count
                ));
            }
            sum += u64::from(r.count);
        }
        if sum != self.total {
            return Err(format!(
                "run-length total {} != recorded page count {sum}",
                self.total
            ));
        }
        for (i, w) in self.runs.windows(2).enumerate() {
            if w[1].base.0 == w[0].base.0 + w[0].count {
                return Err(format!(
                    "runs {i} and {} are forward-adjacent ({:?} × {} then {:?}); \
                     record() should have extended the first",
                    i + 1,
                    w[0].base,
                    w[0].count,
                    w[1].base
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pg(n: u32) -> PageNum {
        PageNum(n)
    }

    #[test]
    fn contiguous_pages_form_one_run() {
        let mut r = PageRecorder::new();
        for i in 0..100 {
            r.record(pg(i));
        }
        assert_eq!(r.runs().len(), 1);
        assert_eq!(
            r.runs()[0],
            PageRun {
                base: pg(0),
                count: 100
            }
        );
        assert_eq!(r.total_pages(), 100);
        assert_eq!(r.kernel_bytes(), 12, "100 pages cost one 12-byte node");
    }

    #[test]
    fn gaps_start_new_runs() {
        let mut r = PageRecorder::new();
        r.record_all(&[pg(5), pg(6), pg(10), pg(11), pg(12), pg(3)]);
        assert_eq!(
            r.runs(),
            &[
                PageRun {
                    base: pg(5),
                    count: 2
                },
                PageRun {
                    base: pg(10),
                    count: 3
                },
                PageRun {
                    base: pg(3),
                    count: 1
                },
            ]
        );
    }

    #[test]
    fn descending_adjacency_does_not_merge() {
        // The paper's structure only extends forward (base, offset++).
        let mut r = PageRecorder::new();
        r.record_all(&[pg(7), pg(6)]);
        assert_eq!(r.runs().len(), 2);
    }

    #[test]
    fn drain_replays_in_recorded_order() {
        let mut r = PageRecorder::new();
        r.record_all(&[pg(10), pg(11), pg(2), pg(3), pg(4)]);
        let runs = r.take_runs();
        let pages: Vec<PageNum> = runs.iter().flat_map(|r| r.pages()).collect();
        assert_eq!(pages, vec![pg(10), pg(11), pg(2), pg(3), pg(4)]);
        assert!(r.is_empty());
        assert_eq!(r.total_pages(), 0);
    }

    #[test]
    fn duplicate_page_recorded_twice() {
        // A page can be flushed, faulted back by nothing (process is
        // stopped) — but with bgwrite + re-eviction interplay the same page
        // number may legitimately appear again; the recorder is a log, not
        // a set.
        let mut r = PageRecorder::new();
        r.record_all(&[pg(1), pg(1)]);
        assert_eq!(r.total_pages(), 2);
        assert_eq!(r.runs().len(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut r = PageRecorder::new();
        r.record_all(&[pg(1), pg(2)]);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.kernel_bytes(), 0);
    }

    #[test]
    fn coherence_holds_under_recording() {
        let mut r = PageRecorder::new();
        assert!(r.check_coherence().is_ok(), "empty recorder is coherent");
        r.record_all(&[pg(5), pg(6), pg(10), pg(1), pg(1), pg(2)]);
        assert!(r.check_coherence().is_ok());
        r.take_runs();
        assert!(r.check_coherence().is_ok());
    }

    #[test]
    fn coherence_catches_corruption() {
        // Hand-built corrupt states: construct via record, then mutate
        // the private fields from inside the module.
        let mut r = PageRecorder::new();
        r.record_all(&[pg(1), pg(2)]);
        r.total = 99;
        assert!(r.check_coherence().unwrap_err().contains("total"));

        let mut r = PageRecorder::new();
        r.record(pg(3));
        r.runs[0].count = 0;
        r.total = 0;
        assert!(r.check_coherence().unwrap_err().contains("empty"));

        let mut r = PageRecorder::new();
        r.record_all(&[pg(1), pg(5)]);
        // Forge forward-adjacency: second run starts right after the first.
        r.runs[1].base = pg(2);
        assert!(r
            .check_coherence()
            .unwrap_err()
            .contains("forward-adjacent"));

        let mut r = PageRecorder::new();
        r.record(pg(u32::MAX));
        r.runs[0].count = 2;
        r.total = 2;
        assert!(r.check_coherence().unwrap_err().contains("wraps"));
    }

    #[test]
    fn run_page_iteration() {
        let run = PageRun {
            base: pg(4),
            count: 3,
        };
        assert_eq!(run.pages().collect::<Vec<_>>(), vec![pg(4), pg(5), pg(6)]);
    }
}
