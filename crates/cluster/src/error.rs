//! Typed simulation errors with node/time provenance.
//!
//! The cluster layer historically reported failures as bare `String`s.
//! With fault injection in the tree, callers need to *distinguish*
//! outcomes — a configuration mistake, a memory-model error on a
//! specific node, a blown invariant, a tick-budget overrun — so the
//! public APIs now return [`SimError`]. Every variant renders the same
//! human-readable text as before via `Display`, and
//! `From<SimError> for String` keeps legacy `Result<_, String>` call
//! sites compiling through `?`.

use agp_mem::MemError;
use agp_sim::SimDur;
use std::fmt;

/// Why a simulation could not be built or run to completion.
///
/// Carries provenance where it exists: the node index and simulated
/// instant (µs) at which the failing operation executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed validation before the run started.
    InvalidConfig(String),
    /// The attached fault plan failed validation.
    FaultPlan(String),
    /// The gang scheduler rejected a job placement.
    Schedule {
        /// Job name from the config.
        job: String,
        /// The scheduler's complaint.
        detail: String,
    },
    /// The memory subsystem failed on a node.
    Mem {
        /// Operation that failed (`on_fault`, `touch_run`, ...).
        what: &'static str,
        /// Node the operation ran on.
        node: u32,
        /// Simulated instant, µs.
        at_us: u64,
        /// The underlying memory error.
        source: MemError,
    },
    /// A conservation/coherence invariant sweep found corrupt state.
    InvariantViolation {
        /// Which sweep tripped (`periodic sweep`, `post-switch`, ...).
        context: String,
        /// Node whose state was incoherent, when localized.
        node: Option<u32>,
        /// Simulated instant, µs.
        at_us: u64,
        /// The violated invariant.
        detail: String,
    },
    /// Simulated time blew past the configured wall
    /// (`ClusterConfig::max_sim_time`) — thrashing livelock, or a fault
    /// plan whose recovery cannot keep up.
    SimTimeExceeded {
        /// The configured limit.
        limit: SimDur,
        /// Simulated instant that breached it, µs.
        at_us: u64,
    },
    /// The event queue drained with jobs unfinished (model deadlock).
    Deadlock {
        /// Simulated instant of the last event, µs.
        at_us: u64,
        /// Jobs still incomplete.
        unfinished: u32,
    },
    /// A deterministic rule of the run's attached watchdog tripped; the
    /// run's flight ring holds the incident window.
    WatchdogTrip {
        /// The rule that tripped.
        rule: agp_obs::WatchdogRule,
        /// Observed value that crossed the limit.
        value: u64,
        /// The configured limit.
        limit: u64,
        /// Simulated instant of the trip, µs.
        at_us: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "{msg}"),
            SimError::FaultPlan(msg) => write!(f, "fault plan: {msg}"),
            SimError::Schedule { job, detail } => write!(f, "scheduling {job}: {detail}"),
            SimError::Mem {
                what,
                node,
                at_us,
                source,
            } => write!(
                f,
                "memory subsystem error in {what} (node {node}, t={at_us}us): {source}"
            ),
            SimError::InvariantViolation {
                context,
                node,
                at_us,
                detail,
            } => match node {
                Some(n) => write!(
                    f,
                    "invariant violation at {at_us}us ({context}, node {n}): {detail}"
                ),
                None => write!(f, "invariant violation at {at_us}us ({context}): {detail}"),
            },
            SimError::SimTimeExceeded { limit, at_us } => write!(
                f,
                "simulation exceeded max_sim_time ({limit}) at {at_us}us — thrashing livelock?"
            ),
            SimError::Deadlock { at_us, unfinished } => write!(
                f,
                "event queue drained at {at_us}us with {unfinished} job(s) unfinished \
                 (model deadlock)"
            ),
            SimError::WatchdogTrip {
                rule,
                value,
                limit,
                at_us,
            } => write!(
                f,
                "watchdog tripped at {at_us}us: {} ({value} > {limit}) — incident dump frozen",
                rule.name()
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

// Legacy bridge: `?` in a `Result<_, String>` context keeps working.
impl From<SimError> for String {
    fn from(e: SimError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agp_mem::ProcId;

    #[test]
    fn display_carries_provenance() {
        let e = SimError::Mem {
            what: "on_fault",
            node: 3,
            at_us: 1_500,
            source: MemError::NoSuchProc(ProcId(9)),
        };
        let s = e.to_string();
        assert!(s.contains("on_fault"));
        assert!(s.contains("node 3"));
        assert!(s.contains("t=1500us"));
        assert!(s.contains("pid9"));
    }

    #[test]
    fn string_conversion_matches_display() {
        let e = SimError::Deadlock {
            at_us: 42,
            unfinished: 2,
        };
        let s: String = e.clone().into();
        assert_eq!(s, e.to_string());
        assert!(s.contains("2 job(s) unfinished"));
    }

    #[test]
    fn watchdog_trip_display_names_the_rule() {
        let e = SimError::WatchdogTrip {
            rule: agp_obs::WatchdogRule::JobStall,
            value: 9_000_000,
            limit: 5_000_000,
            at_us: 12_000,
        };
        let s = e.to_string();
        assert!(s.contains("job_stall"));
        assert!(s.contains("at 12000us"));
        assert!(s.contains("9000000 > 5000000"));
    }

    #[test]
    fn mem_source_is_exposed() {
        use std::error::Error;
        let e = SimError::Mem {
            what: "touch_run",
            node: 0,
            at_us: 0,
            source: MemError::OutOfFrames,
        };
        assert!(e.source().is_some());
        assert!(SimError::InvalidConfig("x".into()).source().is_none());
    }
}
