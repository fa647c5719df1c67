//! Typed fault-plan errors.
//!
//! `FaultPlan::from_json_str` and `FaultPlan::validate` reject adversarial
//! input — the fuzzer feeds them mutated plans, so "bad plan" must be a
//! closed, matchable taxonomy rather than a formatted `String`. Every
//! variant's `Display` keeps the exact phrasing the string-error era used
//! (CLI output and tests key on those fragments); `From<PlanError> for
//! String` keeps legacy `Result<_, String>` callers compiling through `?`.

use std::fmt;

/// Everything that can be wrong with a fault plan, either as JSON text
/// (parse-time variants carry the offending field) or as a configuration
/// against a concrete cluster geometry (validation variants carry the
/// out-of-range value and the bound it crossed).
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The text is not well-formed JSON at all.
    Parse(String),
    /// A node that must be a JSON object is not (`what` names it).
    NotObject {
        /// Which plan node (`"plan"`, `"recovery"`, `"faults[i]"`).
        what: String,
    },
    /// `plan.faults` is present but not an array.
    FaultsNotArray,
    /// A required field is absent.
    MissingField {
        /// Which plan node the field belongs to.
        what: String,
        /// The missing key.
        field: &'static str,
    },
    /// A field is present with the wrong shape (`expected` describes the
    /// accepted shape, e.g. "a non-negative integer").
    BadField {
        /// Which plan node the field belongs to.
        what: String,
        /// The offending key.
        field: &'static str,
        /// Human description of the accepted shape.
        expected: &'static str,
    },
    /// Strict-parse leftover: a key no schema field consumed.
    UnknownField {
        /// Which plan node the field belongs to.
        what: String,
        /// The unconsumed key.
        field: String,
    },
    /// `kind` names no known fault class.
    UnknownKind {
        /// Which plan node the kind belongs to.
        what: String,
        /// The unrecognized kind string.
        kind: String,
    },
    /// The plan's schema version is not the one this build reads.
    SchemaVersion {
        /// Version found in the plan.
        found: u32,
        /// Version this build supports.
        expected: u32,
    },
    /// A probability fell outside `[0, 1]` (NaN included).
    Probability {
        /// Which fault carries it.
        what: String,
        /// The offending value.
        p: f64,
    },
    /// A fault targets a node the cluster does not have.
    NodeOutOfRange {
        /// Which fault targets it.
        what: String,
        /// The out-of-range node index.
        node: u32,
        /// How many nodes the cluster has.
        nodes: usize,
    },
    /// A fault targets a job the config does not define.
    JobOutOfRange {
        /// Which fault targets it.
        what: String,
        /// The out-of-range job index.
        job: u32,
        /// How many jobs the config has.
        jobs: usize,
    },
    /// A half-open window `[from_us, until_us)` selects nothing.
    EmptyWindow {
        /// Which fault carries it.
        what: String,
        /// Window start, µs.
        from_us: u64,
        /// Window end, µs.
        until_us: u64,
    },
    /// A strictly-positive magnitude (outage length, burst pages) is zero.
    ZeroMagnitude {
        /// Which fault carries it.
        what: String,
        /// The zero field.
        field: &'static str,
    },
    /// An intensity is implausibly large for the simulated regime — a
    /// fuzzer-mutated or fat-fingered plan, not a scenario.
    AbsurdIntensity {
        /// Which fault carries it.
        what: String,
        /// The offending field.
        field: &'static str,
        /// The offending value.
        value: u64,
        /// The sanity cap it crossed.
        max: u64,
    },
    /// Two faults are byte-for-byte identical — a duplicated entry, which
    /// would double-draw the same failure and silently skew probabilities.
    DuplicateFault {
        /// Index of the first copy.
        first: usize,
        /// Index of the duplicate.
        second: usize,
    },
    /// Two crash windows on the same node overlap: the node would crash
    /// while already down, which the restart model cannot represent.
    OverlappingCrashes {
        /// The doubly-crashed node.
        node: u32,
        /// Index of the earlier crash fault.
        first: usize,
        /// Index of the overlapping crash fault.
        second: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse(e) => write!(f, "fault plan parse error: {e}"),
            PlanError::NotObject { what } => write!(f, "{what}: expected a JSON object"),
            PlanError::FaultsNotArray => write!(f, "plan: `faults` must be an array"),
            PlanError::MissingField { what, field } => {
                if *field == "kind" {
                    write!(f, "{what}: missing string field `kind`")
                } else {
                    write!(f, "{what}: missing field `{field}`")
                }
            }
            PlanError::BadField {
                what,
                field,
                expected,
            } => write!(f, "{what}: `{field}` must be {expected}"),
            PlanError::UnknownField { what, field } => {
                write!(f, "{what}: unknown field `{field}`")
            }
            PlanError::UnknownKind { what, kind } => {
                write!(f, "{what}: unknown fault kind `{kind}`")
            }
            PlanError::SchemaVersion { found, expected } => write!(
                f,
                "fault plan schema v{found} unsupported (expected v{expected})"
            ),
            PlanError::Probability { what, p } => {
                write!(f, "{what}: probability {p} outside [0, 1]")
            }
            PlanError::NodeOutOfRange { what, node, nodes } => {
                write!(f, "{what}: node {node} out of range (cluster has {nodes})")
            }
            PlanError::JobOutOfRange { what, job, jobs } => {
                write!(f, "{what}: job {job} out of range (config has {jobs})")
            }
            PlanError::EmptyWindow {
                what,
                from_us,
                until_us,
            } => write!(f, "{what}: empty window [{from_us}, {until_us})"),
            PlanError::ZeroMagnitude { what, field } => {
                write!(f, "{what}: {field} must be > 0")
            }
            PlanError::AbsurdIntensity {
                what,
                field,
                value,
                max,
            } => write!(f, "{what}: {field} {value} exceeds the sanity cap {max}"),
            PlanError::DuplicateFault { first, second } => {
                write!(f, "faults[{second}]: exact duplicate of faults[{first}]")
            }
            PlanError::OverlappingCrashes {
                node,
                first,
                second,
            } => write!(
                f,
                "faults[{second}]: crash window on node {node} overlaps faults[{first}]"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PlanError> for String {
    fn from(e: PlanError) -> String {
        e.to_string()
    }
}
