//! Compilation of a [`WorkloadSpec`] into a deterministic step stream for
//! one rank.
//!
//! The program is pull-based: the cluster executor calls
//! [`ProcessProgram::next_step`] whenever the process is ready for more
//! work, or [`ProcessProgram::pop_touch`] while it runs touch steps back
//! to back. Steps for one iteration are generated lazily (scattered-touch
//! offsets draw from the program's own forked RNG), so the stream is
//! reproducible from `(spec, rank, seed)` and costs no up-front memory.

use crate::spec::WorkloadSpec;
use agp_sim::{SimDur, SimRng};
use std::collections::VecDeque;

/// One unit of work for the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Touch `len` consecutive pages starting at `first`; each touched
    /// page costs `cpu_per_page` of CPU time. Writes dirty the pages.
    Touch {
        /// First page of the run.
        first: u32,
        /// Run length in pages.
        len: u32,
        /// Whether the touches are writes.
        write: bool,
        /// CPU charged per touched page.
        cpu_per_page: SimDur,
    },
    /// Pure computation (no memory traffic at page granularity).
    Compute(SimDur),
    /// Exchange `bytes` with neighbor ranks (skipped for serial runs).
    Exchange {
        /// Payload size.
        bytes: u64,
    },
    /// All-to-all of `bytes_per_pair` with every other rank (IS).
    AllToAll {
        /// Per-pair payload size.
        bytes_per_pair: u64,
    },
    /// Job-wide barrier (skipped for serial runs).
    Barrier,
    /// Marks completion of the given iteration (0 = the init pass).
    EndIteration(u32),
}

/// The executable program of one rank.
#[derive(Clone, Debug)]
pub struct ProcessProgram {
    spec: WorkloadSpec,
    rank: u32,
    footprint: u32,
    iters_total: u32,
    /// Next iteration to generate (0 = init pass; work iterations are
    /// 1..=iters_total).
    next_iter: u32,
    queue: VecDeque<Step>,
    /// CPU of the queued steps before the first queued `Barrier`, or of
    /// all of them when none is queued (see
    /// [`ProcessProgram::cpu_before_sync`]).
    cpu_before_sync: SimDur,
    rng: SimRng,
}

impl ProcessProgram {
    /// Build the program for `rank` of `spec`, deterministically from
    /// `seed` (programs with the same `(spec, rank, seed)` are identical).
    pub fn new(spec: WorkloadSpec, rank: u32, seed: u64) -> Self {
        assert!(rank < spec.nprocs, "rank {rank} out of range");
        let footprint = spec.footprint_pages_per_rank();
        ProcessProgram {
            spec,
            rank,
            footprint,
            iters_total: spec.iterations(),
            next_iter: 0,
            queue: VecDeque::new(),
            cpu_before_sync: SimDur::ZERO,
            rng: SimRng::new(seed).fork(rank as u64 + 1),
        }
    }

    /// The spec this program was compiled from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// This rank's index.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Address-space size in pages.
    pub fn footprint_pages(&self) -> u32 {
        self.footprint
    }

    /// `(completed_iterations, total_iterations)` — excludes the init pass.
    pub fn progress(&self) -> (u32, u32) {
        (
            self.next_iter.saturating_sub(1).min(self.iters_total),
            self.iters_total,
        )
    }

    /// Pull the next step; `None` once the workload is complete.
    pub fn next_step(&mut self) -> Option<Step> {
        loop {
            if let Some(s) = self.queue.pop_front() {
                if s == Step::Barrier {
                    self.cpu_before_sync = self.queued_cpu();
                } else {
                    self.cpu_before_sync -= step_cpu(&s);
                }
                return Some(s);
            }
            if !self.generate() {
                return None;
            }
        }
    }

    /// Pull the next step only if it is a `Touch`, generating the next
    /// iteration when the queue is empty; `None` leaves any other step
    /// queued for [`ProcessProgram::next_step`]. A `Touch` is never a
    /// sync point, so a caller that pulls one needs no
    /// [`ProcessProgram::at_sync`].
    // Inlined across the crate boundary into the executor's touch loop:
    // as a call it cost IS.B×4, which pulls a step per 4 pages, ~15 %.
    #[inline]
    pub fn pop_touch(&mut self) -> Option<Step> {
        if self.queue.is_empty() && !self.generate() {
            return None;
        }
        let s = *self.queue.front()?;
        if !matches!(s, Step::Touch { .. }) {
            return None;
        }
        self.queue.pop_front();
        self.cpu_before_sync -= step_cpu(&s);
        Some(s)
    }

    /// Whether the next step past any `EndIteration` markers is a
    /// `Barrier`, or the program ends first: the two steps at which a
    /// rank meets the rest of the cluster. Generates the next iteration
    /// when the queue holds nothing else, which changes no step.
    pub fn at_sync(&mut self) -> bool {
        loop {
            let next = self
                .queue
                .iter()
                .find(|s| !matches!(s, Step::EndIteration(_)));
            if let Some(s) = next {
                return *s == Step::Barrier;
            }
            if !self.generate() {
                return true;
            }
        }
    }

    /// A lower bound on the CPU this rank spends from its current step's
    /// end to its next barrier or its end: the CPU of the steps already
    /// queued before the next `Barrier` (a touch run's pages times their
    /// CPU, a computation's length). Communication counts 0, since its
    /// length depends on the network, and steps not yet generated count
    /// nothing. Kept up to date as steps are pulled.
    pub fn cpu_before_sync(&self) -> SimDur {
        self.cpu_before_sync
    }

    /// Queue the next iteration's steps; false once none is left.
    fn generate(&mut self) -> bool {
        if self.next_iter > self.iters_total {
            return false;
        }
        let iter = self.next_iter;
        self.next_iter += 1;
        if iter == 0 {
            self.gen_init();
        } else {
            self.gen_iteration(iter);
        }
        self.cpu_before_sync = self.queued_cpu();
        true
    }

    /// CPU of the queued steps before the first queued `Barrier`.
    fn queued_cpu(&self) -> SimDur {
        self.queue
            .iter()
            .take_while(|s| **s != Step::Barrier)
            .map(step_cpu)
            .sum()
    }

    /// The init pass: every benchmark starts by allocating and writing its
    /// whole data set (arrays are initialized in place). This is what
    /// makes even "read-only" regions dirty once.
    fn gen_init(&mut self) {
        let p = self.spec.profile();
        self.queue.push_back(Step::Touch {
            first: 0,
            len: self.footprint,
            write: true,
            cpu_per_page: p.cpu_per_page,
        });
        if self.spec.nprocs > 1 {
            self.queue.push_back(Step::Barrier);
        }
        self.queue.push_back(Step::EndIteration(0));
    }

    fn gen_iteration(&mut self, iter: u32) {
        let p = self.spec.profile();
        let sweep_pages = ((self.footprint as f64) * p.sweep_fraction) as u32;

        if p.mg_levels > 0 {
            // Multigrid V-cycle: restrict down the hierarchy, then
            // prolongate back up. Level l covers sweep_pages / 8^l (3-D
            // coarsening) of the footprint, finest level first.
            let mut level_sizes = Vec::new();
            for l in 0..p.mg_levels {
                let len = (sweep_pages >> (3 * l)).max(1);
                level_sizes.push(len);
            }
            for &len in level_sizes.iter() {
                self.queue.push_back(Step::Touch {
                    first: 0,
                    len,
                    write: p.sweep_write,
                    cpu_per_page: p.cpu_per_page,
                });
            }
            for &len in level_sizes.iter().rev() {
                self.queue.push_back(Step::Touch {
                    first: 0,
                    len,
                    write: p.sweep_write,
                    cpu_per_page: p.cpu_per_page,
                });
            }
        } else {
            for _ in 0..p.sweeps {
                self.queue.push_back(Step::Touch {
                    first: 0,
                    len: sweep_pages.max(1),
                    write: p.sweep_write,
                    cpu_per_page: p.cpu_per_page,
                });
            }
        }

        // Scattered touches (CG vector updates, IS bucket writes): short
        // runs at random offsets inside the random region, covering
        // `random_coverage` of it per iteration.
        if p.random_region_fraction > 0.0 && p.random_run_len > 0 {
            let region_start = sweep_pages.min(self.footprint.saturating_sub(1));
            let region_len = ((self.footprint as f64) * p.random_region_fraction).max(1.0) as u32;
            let region_len = region_len.min(self.footprint - region_start).max(1);
            let touched = ((region_len as f64) * p.random_coverage) as u32;
            let runs = (touched / p.random_run_len).max(1);
            for _ in 0..runs {
                let span = region_len.saturating_sub(p.random_run_len).max(1);
                let off = self.rng.below(span as u64) as u32;
                self.queue.push_back(Step::Touch {
                    first: region_start + off,
                    len: p.random_run_len.min(region_len),
                    write: p.random_write,
                    cpu_per_page: p.cpu_per_page,
                });
            }
        }

        // Pure-compute phase (EP's RNG work).
        if p.compute_per_iter > agp_sim::SimDur::ZERO {
            self.queue.push_back(Step::Compute(p.compute_per_iter));
        }

        // Iteration-level communication & BSP barrier.
        if self.spec.nprocs > 1 {
            if p.alltoall {
                self.queue.push_back(Step::AllToAll {
                    bytes_per_pair: p.exchange_bytes / self.spec.nprocs as u64,
                });
            } else {
                self.queue.push_back(Step::Exchange {
                    bytes: p.exchange_bytes,
                });
            }
            self.queue.push_back(Step::Barrier);
        }
        self.queue.push_back(Step::EndIteration(iter));
    }

    /// Total pages the program will touch per work iteration (primary
    /// sweeps only; diagnostic/calibration helper).
    pub fn sweep_pages_per_iteration(&self) -> u64 {
        let p = self.spec.profile();
        let sweep = ((self.footprint as f64) * p.sweep_fraction) as u64;
        if p.mg_levels > 0 {
            (0..p.mg_levels)
                .map(|l| (sweep >> (3 * l)).max(1) * 2)
                .sum()
        } else {
            sweep * p.sweeps as u64
        }
    }
}

/// The CPU a step costs: a touch run's pages times their CPU, or a
/// computation's length; 0 for every other step.
fn step_cpu(s: &Step) -> SimDur {
    match *s {
        Step::Touch {
            len, cpu_per_page, ..
        } => cpu_per_page * u64::from(len),
        Step::Compute(d) => d,
        _ => SimDur::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Benchmark, Class};

    fn steps_of_one_iteration(prog: &mut ProcessProgram) -> Vec<Step> {
        let mut out = Vec::new();
        loop {
            let s = prog.next_step().expect("program ended early");
            let done = matches!(s, Step::EndIteration(_));
            out.push(s);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn program_is_deterministic() {
        let spec = WorkloadSpec::parallel(Benchmark::CG, Class::A, 4);
        let mut a = ProcessProgram::new(spec, 2, 42);
        let mut b = ProcessProgram::new(spec, 2, 42);
        for _ in 0..500 {
            assert_eq!(a.next_step(), b.next_step());
        }
    }

    #[test]
    fn ranks_get_different_random_offsets() {
        let spec = WorkloadSpec::parallel(Benchmark::CG, Class::A, 2);
        let mut r0 = ProcessProgram::new(spec, 0, 42);
        let mut r1 = ProcessProgram::new(spec, 1, 42);
        let s0: Vec<Step> = (0..200).filter_map(|_| r0.next_step()).collect();
        let s1: Vec<Step> = (0..200).filter_map(|_| r1.next_step()).collect();
        assert_ne!(s0, s1, "scattered touches differ across ranks");
    }

    #[test]
    fn init_pass_writes_whole_footprint() {
        let spec = WorkloadSpec::serial(Benchmark::LU, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 1);
        let init = steps_of_one_iteration(&mut p);
        match init[0] {
            Step::Touch {
                first, len, write, ..
            } => {
                assert_eq!(first, 0);
                assert_eq!(len, p.footprint_pages());
                assert!(write);
            }
            ref s => panic!("expected init touch, got {s:?}"),
        }
        assert_eq!(*init.last().unwrap(), Step::EndIteration(0));
    }

    #[test]
    fn serial_programs_have_no_communication() {
        let spec = WorkloadSpec::serial(Benchmark::IS, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 7);
        let mut n = 0;
        while let Some(s) = p.next_step() {
            n += 1;
            assert!(
                !matches!(
                    s,
                    Step::Barrier | Step::Exchange { .. } | Step::AllToAll { .. }
                ),
                "serial program emitted {s:?}"
            );
        }
        assert!(n > 0);
    }

    #[test]
    fn parallel_iterations_end_with_barrier() {
        let spec = WorkloadSpec::parallel(Benchmark::LU, Class::A, 4);
        let mut p = ProcessProgram::new(spec, 0, 7);
        let _init = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        let n = iter1.len();
        assert!(matches!(iter1[n - 2], Step::Barrier));
        assert!(matches!(iter1[n - 3], Step::Exchange { .. }));
        assert_eq!(iter1[n - 1], Step::EndIteration(1));
    }

    #[test]
    fn is_uses_alltoall() {
        let spec = WorkloadSpec::parallel(Benchmark::IS, Class::A, 4);
        let mut p = ProcessProgram::new(spec, 0, 7);
        let _ = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        assert!(iter1.iter().any(|s| matches!(s, Step::AllToAll { .. })));
    }

    #[test]
    fn lu_iteration_is_two_full_sweeps() {
        let spec = WorkloadSpec::serial(Benchmark::LU, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 7);
        let _ = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        let sweeps: Vec<_> = iter1
            .iter()
            .filter(|s| matches!(s, Step::Touch { .. }))
            .collect();
        assert_eq!(sweeps.len(), 2);
        if let Step::Touch { len, write, .. } = sweeps[0] {
            assert!(*write);
            let frac = *len as f64 / p.footprint_pages() as f64;
            assert!((0.85..=0.95).contains(&frac), "sweep covers ~92%: {frac}");
        }
    }

    #[test]
    fn mg_vcycle_touches_levels_down_and_up() {
        let spec = WorkloadSpec::serial(Benchmark::MG, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 7);
        let _ = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        let lens: Vec<u32> = iter1
            .iter()
            .filter_map(|s| match s {
                Step::Touch { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        assert_eq!(lens.len(), 8, "4 levels down + 4 up");
        assert!(
            lens[0] > lens[1] && lens[1] > lens[2],
            "restriction shrinks"
        );
        assert_eq!(lens[3], lens[4], "turnaround at the coarsest level");
        assert!(lens[5] > lens[4], "prolongation grows");
        assert_eq!(lens[0], lens[7], "finest level revisited");
    }

    #[test]
    fn cg_scatter_stays_inside_footprint() {
        let spec = WorkloadSpec::serial(Benchmark::CG, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 99);
        let fp = p.footprint_pages();
        for _ in 0..2000 {
            match p.next_step() {
                Some(Step::Touch { first, len, .. }) => {
                    assert!(first + len <= fp, "touch {first}+{len} beyond {fp}");
                }
                Some(_) => {}
                None => break,
            }
        }
    }

    #[test]
    fn program_terminates_with_exact_iteration_count() {
        let spec = WorkloadSpec::serial(Benchmark::IS, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 3);
        let mut last_iter = None;
        while let Some(s) = p.next_step() {
            if let Step::EndIteration(i) = s {
                last_iter = Some(i);
            }
        }
        assert_eq!(last_iter, Some(spec.iterations()));
        assert_eq!(p.progress(), (spec.iterations(), spec.iterations()));
        assert_eq!(p.next_step(), None, "stays finished");
    }

    #[test]
    fn ep_is_compute_dominated() {
        let spec = WorkloadSpec::serial(Benchmark::EP, Class::B);
        let mut p = ProcessProgram::new(spec, 0, 1);
        let _init = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        let compute: u64 = iter1
            .iter()
            .filter_map(|s| match s {
                Step::Compute(d) => Some(d.as_us()),
                _ => None,
            })
            .sum();
        let touch_cost: u64 = iter1
            .iter()
            .filter_map(|s| match s {
                Step::Touch {
                    len, cpu_per_page, ..
                } => Some(*len as u64 * cpu_per_page.as_us()),
                _ => None,
            })
            .sum();
        assert!(
            compute > touch_cost * 10,
            "EP must be compute-dominated: {compute} vs {touch_cost}"
        );
    }

    #[test]
    fn ft_uses_alltoall_transpose() {
        let spec = WorkloadSpec::parallel(Benchmark::FT, Class::A, 4);
        let mut p = ProcessProgram::new(spec, 0, 1);
        let _ = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        assert!(iter1.iter().any(|s| matches!(s, Step::AllToAll { .. })));
    }

    #[test]
    fn bt_is_three_sweeps() {
        let spec = WorkloadSpec::serial(Benchmark::BT, Class::A);
        let mut p = ProcessProgram::new(spec, 0, 1);
        let _ = steps_of_one_iteration(&mut p);
        let iter1 = steps_of_one_iteration(&mut p);
        let sweeps = iter1
            .iter()
            .filter(|s| matches!(s, Step::Touch { .. }))
            .count();
        assert_eq!(sweeps, 3);
    }

    /// Every benchmark's program, serial and on four ranks (its last
    /// rank), with its whole step stream and, per position k in it, the
    /// exact CPU of the steps from k to the next `Barrier` or the end.
    fn drained_programs() -> Vec<(ProcessProgram, Vec<Step>, Vec<SimDur>)> {
        let mut out = Vec::new();
        for bench in Benchmark::ALL {
            for spec in [
                WorkloadSpec::serial(bench, Class::A),
                WorkloadSpec::parallel(bench, Class::A, 4),
            ] {
                let p = ProcessProgram::new(spec, spec.nprocs - 1, 11);
                let mut all = p.clone();
                let steps: Vec<Step> = std::iter::from_fn(|| all.next_step()).collect();
                let mut exact = vec![SimDur::ZERO; steps.len() + 1];
                for k in (0..steps.len()).rev() {
                    if steps[k] != Step::Barrier {
                        exact[k] = step_cpu(&steps[k]) + exact[k + 1];
                    }
                }
                out.push((p, steps, exact));
            }
        }
        out
    }

    /// `p`'s `cpu_before_sync` at position `k` of its stream: at most
    /// `want`, the exact CPU to the next barrier or the end, and equal to
    /// it while those steps are all queued.
    fn check_cpu_before_sync(p: &ProcessProgram, k: usize, want: SimDur) {
        let (spec, got) = (p.spec(), p.cpu_before_sync());
        let whole = p.queue.contains(&Step::Barrier) || p.next_iter > p.iters_total;
        assert!(got <= want, "{spec} step {k}: {got} > {want}");
        if whole {
            assert_eq!(got, want, "{spec} step {k}: not exact");
        }
    }

    /// `cpu_before_sync` is a lower bound on the CPU of the steps left
    /// before the next barrier or the end, and exact while they are all
    /// queued: drained step by step for every benchmark, serial and on
    /// four ranks, with `at_sync` generating some iterations early.
    #[test]
    fn cpu_before_sync_bounds_the_cpu_to_the_next_barrier() {
        for (mut p, steps, exact) in drained_programs() {
            for (k, want) in exact.iter().enumerate() {
                check_cpu_before_sync(&p, k, *want);
                if k % 3 == 0 {
                    let sync = p.at_sync();
                    let next = steps[k..]
                        .iter()
                        .find(|s| !matches!(s, Step::EndIteration(_)));
                    assert_eq!(sync, next.is_none_or(|s| *s == Step::Barrier));
                }
                assert_eq!(p.next_step(), steps.get(k).copied());
            }
        }
    }

    /// `pop_touch` takes only a front `Touch`, leaves every other step
    /// queued in order for `next_step`, generates the next iteration only
    /// when the queue is empty, and keeps `cpu_before_sync` exact: every
    /// benchmark's program drained with `pop_touch` tried first at two
    /// positions in three and `next_step` alone at the third.
    #[test]
    fn pop_touch_takes_only_a_front_touch() {
        for (mut p, steps, exact) in drained_programs() {
            let spec = *p.spec();
            for (k, want) in exact.iter().enumerate() {
                check_cpu_before_sync(&p, k, *want);
                let (queued, iter) = (p.queue.len(), p.next_iter);
                let tried = k % 3 != 2;
                let popped = if tried { p.pop_touch() } else { None };
                let generated = p.next_iter != iter;
                if tried {
                    let due = queued == 0 && iter <= p.iters_total;
                    assert_eq!(generated, due, "{spec} step {k}: generation");
                }
                let touch = matches!(steps.get(k), Some(Step::Touch { .. }));
                match popped {
                    Some(s) => {
                        assert!(touch, "{spec} step {k}: popped {s:?}");
                        assert_eq!(Some(s), steps.get(k).copied(), "{spec} step {k}");
                    }
                    None => {
                        assert!(!(tried && touch), "{spec} step {k}: a front Touch stayed");
                        if !generated {
                            assert_eq!(p.queue.len(), queued, "{spec} step {k}: queue changed");
                        }
                        assert_eq!(p.next_step(), steps.get(k).copied(), "{spec} step {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_pages_estimate_matches_generated_steps() {
        for bench in Benchmark::ALL {
            let spec = WorkloadSpec::serial(bench, Class::A);
            let mut p = ProcessProgram::new(spec, 0, 5);
            let est = p.sweep_pages_per_iteration();
            let _ = steps_of_one_iteration(&mut p);
            let iter1 = steps_of_one_iteration(&mut p);
            let prof = spec.profile();
            let actual: u64 = iter1
                .iter()
                .filter_map(|s| match s {
                    Step::Touch { len, write, .. }
                        if *write == prof.sweep_write || prof.random_region_fraction == 0.0 =>
                    {
                        Some(*len as u64)
                    }
                    _ => None,
                })
                .sum();
            // Scattered touches make `actual` exceed the sweep estimate for
            // CG/IS; the estimate must never exceed what is generated.
            assert!(
                actual >= est,
                "{bench}: estimate {est} vs generated {actual}"
            );
        }
    }
}
