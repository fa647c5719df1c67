//! Simulated process state for the executor.

use agp_mem::ProcId;
use agp_sim::{SimDur, SimTime};
use agp_workload::{ProcessProgram, Step};
use gang_ids::JobId;

// The gang crate names; re-exported locally to keep imports tidy.
mod gang_ids {
    pub use agp_gang::JobId;
}

/// Why a process is not currently consuming CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    /// Waiting for paging I/O (its fault plan) to complete.
    Io,
    /// Waiting inside a job-wide barrier.
    Barrier,
}

/// Executor state of one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PState {
    /// SIGSTOPped (descheduled by the gang scheduler) or not yet started.
    Stopped,
    /// Eligible to run; has a Dispatch event in flight.
    Runnable,
    /// Blocked in the kernel.
    Blocked(BlockKind),
    /// Workload complete.
    Done,
}

/// A partially executed step, resumed on the next dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurStep {
    /// A touch run with `done` pages already processed.
    Touch {
        /// First page of the run.
        first: u32,
        /// Total run length.
        len: u32,
        /// Pages already touched.
        done: u32,
        /// Whether touches write.
        write: bool,
        /// CPU per touched page.
        cpu_per_page: SimDur,
    },
}

/// One simulated process (one rank of one job, pinned to one node).
#[derive(Clone, Debug)]
pub struct SimProc {
    /// Kernel-visible process id.
    pub pid: ProcId,
    /// Owning job.
    pub job: JobId,
    /// Node index the rank is pinned to.
    pub node: usize,
    /// Rank within the job.
    pub rank: u32,
    /// The workload program.
    pub program: ProcessProgram,
    /// Partially executed step, if any.
    pub cur: Option<CurStep>,
    /// Executor state.
    pub state: PState,
    /// Event generation: Dispatch/IoDone events carry the generation they
    /// were scheduled under; stale events are ignored. Bumped whenever the
    /// process's future is rescheduled out from under an in-flight event.
    pub gen: u64,
    /// A STOP signal has been delivered but not yet acted on (stops take
    /// effect at the next dispatch/wake boundary).
    pub stop_pending: bool,
    /// Completion instant, once Done.
    pub finished_at: Option<SimTime>,
    /// Work iterations completed (excludes the init pass).
    pub iterations_done: u32,
}

impl SimProc {
    /// A stopped process ready to be scheduled for the first time.
    pub fn new(pid: ProcId, job: JobId, node: usize, rank: u32, program: ProcessProgram) -> Self {
        SimProc {
            pid,
            job,
            node,
            rank,
            program,
            cur: None,
            state: PState::Stopped,
            gen: 0,
            stop_pending: false,
            finished_at: None,
            iterations_done: 0,
        }
    }

    /// The current touch step, or else the program's next step if it is
    /// a `Touch` ([`ProcessProgram::pop_touch`]), with nothing done yet.
    #[inline]
    pub fn touch_step(&mut self) -> Option<CurStep> {
        if self.cur.is_some() {
            return self.cur;
        }
        match self.program.pop_touch()? {
            Step::Touch {
                first,
                len,
                write,
                cpu_per_page,
            } => Some(CurStep::Touch {
                first,
                len,
                done: 0,
                write,
                cpu_per_page,
            }),
            _ => None,
        }
    }

    /// Invalidate in-flight events for this process and return the new
    /// generation.
    pub fn bump_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }

    /// Whether `gen` matches the live generation.
    pub fn live(&self, gen: u64) -> bool {
        self.gen == gen
    }

    /// Block on paging I/O until the fault's `IoDone`.
    pub fn block_io(&mut self) {
        self.state = PState::Blocked(BlockKind::Io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_workload::{Benchmark, Class, WorkloadSpec};

    fn proc() -> SimProc {
        let spec = WorkloadSpec::serial(Benchmark::IS, Class::A);
        SimProc::new(ProcId(7), JobId(0), 0, 0, ProcessProgram::new(spec, 0, 1))
    }

    #[test]
    fn generation_invalidation() {
        let mut p = proc();
        let g0 = p.gen;
        assert!(p.live(g0));
        let g1 = p.bump_gen();
        assert!(!p.live(g0));
        assert!(p.live(g1));
    }

    #[test]
    fn io_block_accounting() {
        let mut p = proc();
        p.block_io();
        assert_eq!(p.state, PState::Blocked(BlockKind::Io));
    }

    #[test]
    fn starts_stopped() {
        let p = proc();
        assert_eq!(p.state, PState::Stopped);
        assert!(!p.stop_pending);
        assert!(p.cur.is_none());
    }
}
