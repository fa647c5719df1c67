//! The fault plan: a committed, seeded description of injected failures.
//!
//! A plan is deliberately *declarative*: it names windows, probabilities,
//! and instants, and leaves every probabilistic draw to the
//! [`FaultInjector`](crate::FaultInjector) so that the draw order — and
//! therefore the whole simulation — is reproducible from the seed.
//!
//! Plans serialize through [`agp_metrics::Json`] (the workspace's
//! deterministic, dependency-free JSON model) so `plans/*.json` files are
//! byte-stable and the parser is strict: unknown fields are errors, not
//! silently ignored typos. Integer fields are carried as JSON numbers and
//! must stay below 2^53 (the exact-integer range of an IEEE double). The
//! seed may be any `u64`: from 2^53 on it is written as a decimal string.

use crate::error::PlanError;
use agp_metrics::Json;

/// Version stamped into every serialized plan; bump on breaking changes.
pub const FAULT_PLAN_SCHEMA_VERSION: u32 = 1;

/// Sanity cap on a single latency spike: one simulated hour per request
/// is a wedged device, not a spike — reject the plan instead of stalling.
pub const MAX_PENALTY_US: u64 = 3_600_000_000;

/// Sanity cap on a crash outage: a day of simulated downtime outlives
/// every workload in the registry.
pub const MAX_DOWN_US: u64 = 86_400_000_000;

/// Sanity cap on a memory-pressure burst (2^24 frames = 64 GiB of 4 KiB
/// pages, beyond any configured node).
pub const MAX_PAGES: u64 = 1 << 24;

/// 2^53: JSON numbers below it are exact integers.
const MAX_JSON_INT: u64 = 1 << 53;

/// One injected failure mode. Windows are half-open `[from_us, until_us)`
/// in sim time; probabilities are per *decision* (per disk request, per
/// barrier release), not per unit time, so they compose with the
/// simulation's own event density.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSpec {
    /// Each disk request submitted on `node` inside the window fails with
    /// probability `p` (a transient medium error: the device burns its
    /// command overhead and reports failure; no pages move).
    DiskErrors {
        /// Target node index.
        node: u32,
        /// Per-request failure probability in `[0, 1]`.
        p: f64,
        /// Window start, µs (default 0).
        from_us: u64,
        /// Window end, µs, exclusive (default: forever).
        until_us: u64,
    },
    /// Each disk request submitted on `node` inside the window is slowed
    /// by `penalty_us` with probability `p` (a latency spike: thermal
    /// recalibration, firmware GC, a bus retry storm).
    DiskSlow {
        /// Target node index.
        node: u32,
        /// Added service latency per affected request, µs.
        penalty_us: u64,
        /// Per-request spike probability in `[0, 1]`.
        p: f64,
        /// Window start, µs (default 0).
        from_us: u64,
        /// Window end, µs, exclusive (default: forever).
        until_us: u64,
    },
    /// The barrier release message for `job` is dropped with probability
    /// `p` inside the window; blocked ranks sit until the barrier timeout
    /// re-issues it (see [`RecoveryPolicy::barrier_timeout_us`]).
    BarrierDrops {
        /// Target job index.
        job: u32,
        /// Per-release drop probability in `[0, 1]`.
        p: f64,
        /// Window start, µs (default 0).
        from_us: u64,
        /// Window end, µs, exclusive (default: forever).
        until_us: u64,
    },
    /// `node` crashes at `at_us` and restarts `down_us` later. Every job
    /// with a rank on the node loses its volatile state: the cluster
    /// requeues those jobs (restarted from iteration 0 — there is no
    /// checkpointing in the model) and the gang keeps rotating over the
    /// survivors instead of wedging.
    NodeCrash {
        /// Crashing node index.
        node: u32,
        /// Crash instant, µs.
        at_us: u64,
        /// Outage duration, µs (the restart fires at `at_us + down_us`).
        down_us: u64,
    },
    /// A transient memory-pressure burst on `node` at `at_us`: an
    /// external agent (in the paper's setting, a daemon waking up)
    /// demands `pages` frames, forcing an immediate reclaim of that many
    /// pages through the normal eviction path.
    MemPressure {
        /// Target node index.
        node: u32,
        /// Burst instant, µs.
        at_us: u64,
        /// Frames reclaimed by the burst.
        pages: u64,
    },
}

/// Recovery knobs consumed by the cluster simulation. All defaults are
/// deliberately conservative; a plan may override any subset.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries after a failed disk request before the transient fault is
    /// considered cleared (the attempt after the last retry always
    /// succeeds — the injected errors model *transient* media failures).
    pub io_retries: u32,
    /// Backoff before the first retry, µs; doubles per attempt.
    pub io_backoff_us: u64,
    /// Upper bound on any single backoff, µs.
    pub io_backoff_cap_us: u64,
    /// Injected disk errors on a node after which adaptive page-in (`ai`)
    /// degrades to plain demand paging on that node (bulk replay reads
    /// amplify a flaky disk; falling back sheds the amplification).
    pub ai_degrade_after: u32,
    /// Barrier release re-issue timeout, µs. Defaults to
    /// `agp-net`'s documented barrier timeout (60 s).
    pub barrier_timeout_us: u64,
    /// Re-issue attempts before the release is forced through (the
    /// network fault is transient; delivery is guaranteed eventually).
    pub barrier_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            io_retries: 4,
            io_backoff_us: 2_000,
            io_backoff_cap_us: 64_000,
            ai_degrade_after: 3,
            barrier_timeout_us: 60_000_000,
            barrier_retries: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry number `attempt` (0-based): capped
    /// exponential, `min(io_backoff_us << attempt, io_backoff_cap_us)`.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        let shifted = self
            .io_backoff_us
            .checked_shl(attempt.min(32))
            .unwrap_or(self.io_backoff_cap_us);
        shifted.min(self.io_backoff_cap_us)
    }

    /// Whether disk-request retry number `attempt` (0-based) falls past
    /// the retry budget — the point at which the simulation forces the
    /// request through and the watchdog's recovery-exhaustion trigger
    /// fires.
    pub fn io_exhausted(&self, attempt: u32) -> bool {
        attempt >= self.io_retries
    }

    /// Whether barrier re-issue number `attempt` (1-based) falls past
    /// the re-issue budget — the point at which the release is forced
    /// through and the watchdog's recovery-exhaustion trigger fires.
    pub fn barrier_exhausted(&self, attempt: u32) -> bool {
        attempt > self.barrier_retries
    }
}

/// A complete, committable chaos scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Plan schema version (see [`FAULT_PLAN_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Seed for the injector's RNG substreams. Independent of the
    /// simulation seed: the same weather can be replayed over different
    /// workload seeds and vice versa.
    pub seed: u64,
    /// The injected failure modes.
    pub faults: Vec<FaultSpec>,
    /// Recovery knobs.
    pub recovery: RecoveryPolicy,
}

impl FaultPlan {
    /// An empty plan (no faults, default recovery) — useful as a base.
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            schema_version: FAULT_PLAN_SCHEMA_VERSION,
            seed,
            faults: Vec::new(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The built-in smoke scenario used by `agp chaos` when no plan file
    /// is given, and the generator for the committed `plans/smoke.json`.
    /// Geometry: assumes ≥ 2 nodes and ≥ 2 jobs (the chaos demo config).
    /// It exercises every fault class: early disk errors and a latency
    /// spike window on node 0, barrier drops for job 0, a memory-pressure
    /// burst, and a crash/restart of node 1 mid-run.
    pub fn smoke(seed: u64) -> FaultPlan {
        FaultPlan {
            schema_version: FAULT_PLAN_SCHEMA_VERSION,
            seed,
            faults: vec![
                FaultSpec::DiskErrors {
                    node: 0,
                    p: 0.08,
                    from_us: 0,
                    until_us: 400_000_000,
                },
                FaultSpec::DiskSlow {
                    node: 0,
                    penalty_us: 15_000,
                    p: 0.10,
                    from_us: 0,
                    until_us: 600_000_000,
                },
                FaultSpec::BarrierDrops {
                    job: 0,
                    p: 0.02,
                    from_us: 0,
                    until_us: u64::MAX,
                },
                FaultSpec::MemPressure {
                    node: 0,
                    at_us: 30_000_000,
                    pages: 512,
                },
                FaultSpec::NodeCrash {
                    node: 1,
                    at_us: 120_000_000,
                    down_us: 45_000_000,
                },
            ],
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The built-in recovery-exhaustion scenario used by the watchdog
    /// trip smoke, and the generator for the committed `plans/trip.json`.
    /// Node 0's disk fails **every** request over a long window while the
    /// retry budget is cut to 2, so the very first disk request burns
    /// through its retries deterministically — with a watchdog attached
    /// (`--flight-recorder`), the recovery-exhaustion rule trips within
    /// the first switch regardless of workload seed.
    pub fn trip(seed: u64) -> FaultPlan {
        FaultPlan {
            schema_version: FAULT_PLAN_SCHEMA_VERSION,
            seed,
            faults: vec![FaultSpec::DiskErrors {
                node: 0,
                p: 1.0,
                from_us: 0,
                until_us: u64::MAX,
            }],
            recovery: RecoveryPolicy {
                io_retries: 2,
                ..RecoveryPolicy::default()
            },
        }
    }

    /// Validate the plan against a cluster geometry. `nodes`/`jobs` are
    /// the config's counts; out-of-range targets are configuration
    /// errors, not silent no-ops. Beyond per-fault shape checks this also
    /// rejects whole-plan pathologies the fuzzer's mutators can produce:
    /// exact-duplicate faults (double-drawing the same failure) and
    /// overlapping crash windows on one node (crashing while down).
    pub fn validate(&self, nodes: usize, jobs: usize) -> Result<(), PlanError> {
        if self.schema_version != FAULT_PLAN_SCHEMA_VERSION {
            return Err(PlanError::SchemaVersion {
                found: self.schema_version,
                expected: FAULT_PLAN_SCHEMA_VERSION,
            });
        }
        let chk_p = |p: f64, what: &str| {
            if !(0.0..=1.0).contains(&p) {
                Err(PlanError::Probability {
                    what: what.to_string(),
                    p,
                })
            } else {
                Ok(())
            }
        };
        let chk_node = |n: u32, what: &str| {
            if (n as usize) < nodes {
                Ok(())
            } else {
                Err(PlanError::NodeOutOfRange {
                    what: what.to_string(),
                    node: n,
                    nodes,
                })
            }
        };
        let chk_window = |from_us: u64, until_us: u64, what: &str| {
            if from_us >= until_us {
                Err(PlanError::EmptyWindow {
                    what: what.to_string(),
                    from_us,
                    until_us,
                })
            } else {
                Ok(())
            }
        };
        let chk_cap = |value: u64, max: u64, field: &'static str, what: &str| {
            if value > max {
                Err(PlanError::AbsurdIntensity {
                    what: what.to_string(),
                    field,
                    value,
                    max,
                })
            } else {
                Ok(())
            }
        };
        for (i, f) in self.faults.iter().enumerate() {
            let what = format!("faults[{i}]");
            match *f {
                FaultSpec::DiskErrors {
                    node,
                    p,
                    from_us,
                    until_us,
                } => {
                    chk_node(node, &what)?;
                    chk_p(p, &what)?;
                    chk_window(from_us, until_us, &what)?;
                }
                FaultSpec::DiskSlow {
                    node,
                    penalty_us,
                    p,
                    from_us,
                    until_us,
                } => {
                    chk_node(node, &what)?;
                    chk_p(p, &what)?;
                    chk_window(from_us, until_us, &what)?;
                    chk_cap(penalty_us, MAX_PENALTY_US, "penalty_us", &what)?;
                }
                FaultSpec::BarrierDrops {
                    job,
                    p,
                    from_us,
                    until_us,
                } => {
                    if job as usize >= jobs {
                        return Err(PlanError::JobOutOfRange { what, job, jobs });
                    }
                    chk_p(p, &what)?;
                    chk_window(from_us, until_us, &what)?;
                }
                FaultSpec::NodeCrash { node, down_us, .. } => {
                    chk_node(node, &what)?;
                    if down_us == 0 {
                        return Err(PlanError::ZeroMagnitude {
                            what,
                            field: "down_us",
                        });
                    }
                    chk_cap(down_us, MAX_DOWN_US, "down_us", &what)?;
                }
                FaultSpec::MemPressure { node, pages, .. } => {
                    chk_node(node, &what)?;
                    if pages == 0 {
                        return Err(PlanError::ZeroMagnitude {
                            what,
                            field: "pages",
                        });
                    }
                    chk_cap(pages, MAX_PAGES, "pages", &what)?;
                }
            }
        }
        // Whole-plan checks, quadratic over a list that is small by
        // construction (committed plans and generated plans alike).
        for (j, f) in self.faults.iter().enumerate() {
            for (i, earlier) in self.faults[..j].iter().enumerate() {
                if earlier == f {
                    return Err(PlanError::DuplicateFault {
                        first: i,
                        second: j,
                    });
                }
                if let (
                    FaultSpec::NodeCrash {
                        node: n1,
                        at_us: a1,
                        down_us: d1,
                    },
                    FaultSpec::NodeCrash {
                        node: n2,
                        at_us: a2,
                        down_us: d2,
                    },
                ) = (earlier, f)
                {
                    let overlap =
                        n1 == n2 && *a1 < a2.saturating_add(*d2) && *a2 < a1.saturating_add(*d1);
                    if overlap {
                        return Err(PlanError::OverlappingCrashes {
                            node: *n1,
                            first: i,
                            second: j,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Parse a plan from JSON text (strict: unknown fields are errors).
    pub fn from_json_str(text: &str) -> Result<FaultPlan, PlanError> {
        let doc = Json::parse(text).map_err(|e| PlanError::Parse(e.to_string()))?;
        plan_from_json(&doc)
    }

    /// The plan as a [`Json`] document with a fixed field order
    /// (windows open until forever omit `until_us`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), num(self.schema_version as u64)),
            ("seed".into(), seed_json(self.seed)),
            (
                "faults".into(),
                Json::Arr(self.faults.iter().map(spec_json).collect()),
            ),
            (
                "recovery".into(),
                Json::Obj(vec![
                    ("io_retries".into(), num(self.recovery.io_retries as u64)),
                    ("io_backoff_us".into(), num(self.recovery.io_backoff_us)),
                    (
                        "io_backoff_cap_us".into(),
                        num(self.recovery.io_backoff_cap_us),
                    ),
                    (
                        "ai_degrade_after".into(),
                        num(self.recovery.ai_degrade_after as u64),
                    ),
                    (
                        "barrier_timeout_us".into(),
                        num(self.recovery.barrier_timeout_us),
                    ),
                    (
                        "barrier_retries".into(),
                        num(self.recovery.barrier_retries as u64),
                    ),
                ]),
            ),
        ])
    }

    /// Serialize the plan as pretty JSON with a trailing newline (the
    /// format committed under `plans/`). Byte-deterministic.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty() + "\n"
    }
}

/// The seed as a JSON number while that is exact (every committed plan),
/// else as its decimal string, so any seed reads back unchanged.
fn seed_json(seed: u64) -> Json {
    if seed < MAX_JSON_INT {
        num(seed)
    } else {
        Json::Str(seed.to_string())
    }
}

fn num(v: u64) -> Json {
    debug_assert!(v < MAX_JSON_INT, "JSON number out of exact-integer range");
    Json::Num(v as f64)
}

fn spec_json(f: &FaultSpec) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    let mut push = |k: &str, v: Json| pairs.push((k.into(), v));
    let window = |push: &mut dyn FnMut(&str, Json), from_us: u64, until_us: u64| {
        push("from_us", num(from_us));
        if until_us != u64::MAX {
            push("until_us", num(until_us));
        }
    };
    match *f {
        FaultSpec::DiskErrors {
            node,
            p,
            from_us,
            until_us,
        } => {
            push("kind", Json::Str("disk_errors".into()));
            push("node", num(node as u64));
            push("p", Json::Num(p));
            window(&mut push, from_us, until_us);
        }
        FaultSpec::DiskSlow {
            node,
            penalty_us,
            p,
            from_us,
            until_us,
        } => {
            push("kind", Json::Str("disk_slow".into()));
            push("node", num(node as u64));
            push("penalty_us", num(penalty_us));
            push("p", Json::Num(p));
            window(&mut push, from_us, until_us);
        }
        FaultSpec::BarrierDrops {
            job,
            p,
            from_us,
            until_us,
        } => {
            push("kind", Json::Str("barrier_drops".into()));
            push("job", num(job as u64));
            push("p", Json::Num(p));
            window(&mut push, from_us, until_us);
        }
        FaultSpec::NodeCrash {
            node,
            at_us,
            down_us,
        } => {
            push("kind", Json::Str("node_crash".into()));
            push("node", num(node as u64));
            push("at_us", num(at_us));
            push("down_us", num(down_us));
        }
        FaultSpec::MemPressure { node, at_us, pages } => {
            push("kind", Json::Str("mem_pressure".into()));
            push("node", num(node as u64));
            push("at_us", num(at_us));
            push("pages", num(pages));
        }
    }
    Json::Obj(pairs)
}

/// Strict field reader over one JSON object: every `take` marks the key
/// consumed; [`Fields::finish`] rejects leftovers (typo protection a
/// committed plan format needs).
struct Fields<'a> {
    what: String,
    pairs: &'a [(String, Json)],
    seen: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    fn of(doc: &'a Json, what: &str) -> Result<Fields<'a>, PlanError> {
        let pairs = doc.as_object().ok_or_else(|| PlanError::NotObject {
            what: what.to_string(),
        })?;
        Ok(Fields {
            what: what.to_string(),
            pairs,
            seen: Vec::new(),
        })
    }

    fn take(&mut self, key: &'a str) -> Option<&'a Json> {
        self.seen.push(key);
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn u64(&mut self, key: &'static str) -> Result<u64, PlanError> {
        let what = self.what.clone();
        let v = self.take(key).ok_or_else(|| PlanError::MissingField {
            what: what.clone(),
            field: key,
        })?;
        to_u64(v).ok_or(PlanError::BadField {
            what,
            field: key,
            expected: "a non-negative integer",
        })
    }

    fn u64_or(&mut self, key: &'static str, default: u64) -> Result<u64, PlanError> {
        match self.take(key) {
            None => Ok(default),
            Some(v) => to_u64(v).ok_or_else(|| PlanError::BadField {
                what: self.what.clone(),
                field: key,
                expected: "a non-negative integer",
            }),
        }
    }

    fn f64(&mut self, key: &'static str) -> Result<f64, PlanError> {
        let what = self.what.clone();
        let v = self.take(key).ok_or_else(|| PlanError::MissingField {
            what: what.clone(),
            field: key,
        })?;
        v.as_f64().ok_or(PlanError::BadField {
            what,
            field: key,
            expected: "a number",
        })
    }

    fn finish(self) -> Result<(), PlanError> {
        for (k, _) in self.pairs {
            if !self.seen.contains(&k.as_str()) {
                return Err(PlanError::UnknownField {
                    what: self.what,
                    field: k.clone(),
                });
            }
        }
        Ok(())
    }
}

fn to_u64(v: &Json) -> Option<u64> {
    let f = v.as_f64()?;
    if f >= 0.0 && f.fract() == 0.0 && f < MAX_JSON_INT as f64 {
        Some(f as u64)
    } else {
        None
    }
}

fn plan_from_json(doc: &Json) -> Result<FaultPlan, PlanError> {
    let mut top = Fields::of(doc, "plan")?;
    let schema_version = top.u64_or("schema_version", u64::from(FAULT_PLAN_SCHEMA_VERSION))? as u32;
    // Only seeds a number cannot carry take the string form, so each
    // seed has one spelling and re-rendering stays byte-stable.
    let seed = match top.take("seed") {
        None => {
            return Err(PlanError::MissingField {
                what: "plan".to_string(),
                field: "seed",
            })
        }
        Some(Json::Str(s)) => s.parse().ok().filter(|&v| v >= MAX_JSON_INT),
        Some(v) => to_u64(v),
    }
    .ok_or_else(|| PlanError::BadField {
        what: "plan".to_string(),
        field: "seed",
        expected: "a non-negative integer",
    })?;
    let faults = match top.take("faults") {
        None => Vec::new(),
        Some(v) => {
            let items = v.as_array().ok_or(PlanError::FaultsNotArray)?;
            items
                .iter()
                .enumerate()
                .map(|(i, item)| spec_from_json(item, i))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let recovery = match top.take("recovery") {
        None => RecoveryPolicy::default(),
        Some(v) => recovery_from_json(v)?,
    };
    top.finish()?;
    Ok(FaultPlan {
        schema_version,
        seed,
        faults,
        recovery,
    })
}

fn recovery_from_json(doc: &Json) -> Result<RecoveryPolicy, PlanError> {
    let d = RecoveryPolicy::default();
    let mut f = Fields::of(doc, "recovery")?;
    let out = RecoveryPolicy {
        io_retries: f.u64_or("io_retries", d.io_retries as u64)? as u32,
        io_backoff_us: f.u64_or("io_backoff_us", d.io_backoff_us)?,
        io_backoff_cap_us: f.u64_or("io_backoff_cap_us", d.io_backoff_cap_us)?,
        ai_degrade_after: f.u64_or("ai_degrade_after", d.ai_degrade_after as u64)? as u32,
        barrier_timeout_us: f.u64_or("barrier_timeout_us", d.barrier_timeout_us)?,
        barrier_retries: f.u64_or("barrier_retries", d.barrier_retries as u64)? as u32,
    };
    f.finish()?;
    Ok(out)
}

fn spec_from_json(doc: &Json, index: usize) -> Result<FaultSpec, PlanError> {
    let what = format!("faults[{index}]");
    let mut f = Fields::of(doc, &what)?;
    let kind = f
        .take("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| PlanError::MissingField {
            what: what.clone(),
            field: "kind",
        })?
        .to_string();
    let spec = match kind.as_str() {
        "disk_errors" => FaultSpec::DiskErrors {
            node: f.u64("node")? as u32,
            p: f.f64("p")?,
            from_us: f.u64_or("from_us", 0)?,
            until_us: f.u64_or("until_us", u64::MAX)?,
        },
        "disk_slow" => FaultSpec::DiskSlow {
            node: f.u64("node")? as u32,
            penalty_us: f.u64("penalty_us")?,
            p: f.f64("p")?,
            from_us: f.u64_or("from_us", 0)?,
            until_us: f.u64_or("until_us", u64::MAX)?,
        },
        "barrier_drops" => FaultSpec::BarrierDrops {
            job: f.u64("job")? as u32,
            p: f.f64("p")?,
            from_us: f.u64_or("from_us", 0)?,
            until_us: f.u64_or("until_us", u64::MAX)?,
        },
        "node_crash" => FaultSpec::NodeCrash {
            node: f.u64("node")? as u32,
            at_us: f.u64("at_us")?,
            down_us: f.u64("down_us")?,
        },
        "mem_pressure" => FaultSpec::MemPressure {
            node: f.u64("node")? as u32,
            at_us: f.u64("at_us")?,
            pages: f.u64("pages")?,
        },
        other => {
            return Err(PlanError::UnknownKind {
                what,
                kind: other.to_string(),
            })
        }
    };
    f.finish()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_plan_roundtrips_and_validates() {
        let plan = FaultPlan::smoke(42);
        plan.validate(2, 2).expect("smoke plan valid for 2x2");
        let text = plan.to_json_string();
        let back = FaultPlan::from_json_str(&text).expect("roundtrip");
        assert_eq!(plan, back);
        assert_eq!(text, back.to_json_string(), "serialization is stable");
    }

    #[test]
    fn parser_rejects_unknown_fields_and_kinds() {
        let bad_field = r#"{ "seed": 1, "faults": [
            { "kind": "node_crash", "node": 0, "at_us": 5, "down_us": 5, "oops": 1 }
        ] }"#;
        let err = FaultPlan::from_json_str(bad_field).unwrap_err();
        assert!(
            matches!(&err, PlanError::UnknownField { field, .. } if field == "oops"),
            "{err}"
        );
        assert!(err.to_string().contains("unknown field `oops`"), "{err}");
        let bad_kind = r#"{ "seed": 1, "faults": [ { "kind": "gamma_rays" } ] }"#;
        let err = FaultPlan::from_json_str(bad_kind).unwrap_err();
        assert!(
            matches!(&err, PlanError::UnknownKind { kind, .. } if kind == "gamma_rays"),
            "{err}"
        );
        assert!(err.to_string().contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn parser_returns_typed_shape_errors() {
        assert!(matches!(
            FaultPlan::from_json_str("not json").unwrap_err(),
            PlanError::Parse(_)
        ));
        assert!(matches!(
            FaultPlan::from_json_str("[]").unwrap_err(),
            PlanError::NotObject { .. }
        ));
        assert!(matches!(
            FaultPlan::from_json_str(r#"{ "seed": 1, "faults": 3 }"#).unwrap_err(),
            PlanError::FaultsNotArray
        ));
        assert!(matches!(
            FaultPlan::from_json_str(r#"{ "faults": [] }"#).unwrap_err(),
            PlanError::MissingField { field: "seed", .. }
        ));
        assert!(matches!(
            FaultPlan::from_json_str(r#"{ "seed": -4 }"#).unwrap_err(),
            PlanError::BadField { field: "seed", .. }
        ));
    }

    #[test]
    fn seeds_from_2_pow_53_round_trip_as_strings() {
        for (seed, spelled) in [
            (MAX_JSON_INT - 1, "9007199254740991"),
            (MAX_JSON_INT, "\"9007199254740992\""),
            (u64::MAX, "\"18446744073709551615\""),
        ] {
            let text = FaultPlan::empty(seed).to_json_string();
            assert!(text.contains(&format!("\"seed\": {spelled},")), "{text}");
            assert_eq!(FaultPlan::from_json_str(&text).unwrap().seed, seed);
        }
        // A seed a number carries has no string spelling.
        let err = FaultPlan::from_json_str(r#"{"seed": "5"}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "plan: `seed` must be a non-negative integer"
        );
    }

    #[test]
    fn validate_rejects_duplicates_overlaps_and_absurd_intensities() {
        let dup = FaultSpec::DiskErrors {
            node: 0,
            p: 0.5,
            from_us: 0,
            until_us: u64::MAX,
        };
        let mut plan = FaultPlan::empty(1);
        plan.faults = vec![dup.clone(), dup];
        assert!(matches!(
            plan.validate(1, 1).unwrap_err(),
            PlanError::DuplicateFault {
                first: 0,
                second: 1
            }
        ));
        let mut crashes = FaultPlan::empty(1);
        crashes.faults = vec![
            FaultSpec::NodeCrash {
                node: 0,
                at_us: 100,
                down_us: 50,
            },
            FaultSpec::NodeCrash {
                node: 0,
                at_us: 120,
                down_us: 10,
            },
        ];
        assert!(matches!(
            crashes.validate(1, 1).unwrap_err(),
            PlanError::OverlappingCrashes {
                node: 0,
                first: 0,
                second: 1
            }
        ));
        // Back-to-back crash windows (half-open) on one node are fine, and
        // overlapping windows on *different* nodes are fine.
        crashes.faults[1] = FaultSpec::NodeCrash {
            node: 0,
            at_us: 150,
            down_us: 10,
        };
        crashes
            .validate(1, 1)
            .expect("adjacent windows are disjoint");
        crashes.faults[1] = FaultSpec::NodeCrash {
            node: 1,
            at_us: 120,
            down_us: 10,
        };
        crashes.validate(2, 1).expect("different nodes may overlap");
        let mut absurd = FaultPlan::empty(1);
        absurd.faults = vec![FaultSpec::MemPressure {
            node: 0,
            at_us: 0,
            pages: MAX_PAGES + 1,
        }];
        assert!(matches!(
            absurd.validate(1, 1).unwrap_err(),
            PlanError::AbsurdIntensity { field: "pages", .. }
        ));
        absurd.faults = vec![FaultSpec::DiskSlow {
            node: 0,
            penalty_us: MAX_PENALTY_US + 1,
            p: 0.1,
            from_us: 0,
            until_us: u64::MAX,
        }];
        assert!(matches!(
            absurd.validate(1, 1).unwrap_err(),
            PlanError::AbsurdIntensity {
                field: "penalty_us",
                ..
            }
        ));
        absurd.faults = vec![FaultSpec::NodeCrash {
            node: 0,
            at_us: 0,
            down_us: MAX_DOWN_US + 1,
        }];
        assert!(matches!(
            absurd.validate(1, 1).unwrap_err(),
            PlanError::AbsurdIntensity {
                field: "down_us",
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_zero_width_windows_with_a_typed_error() {
        let mut plan = FaultPlan::empty(1);
        plan.faults = vec![FaultSpec::DiskErrors {
            node: 0,
            p: 0.5,
            from_us: 7,
            until_us: 7,
        }];
        assert!(matches!(
            plan.validate(1, 1).unwrap_err(),
            PlanError::EmptyWindow {
                from_us: 7,
                until_us: 7,
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_bad_geometry_and_probabilities() {
        let plan = FaultPlan::smoke(42);
        // Node 1 crash is out of range on a 1-node cluster.
        assert!(plan.validate(1, 2).is_err());
        let mut bad = FaultPlan::empty(1);
        bad.faults.push(FaultSpec::DiskErrors {
            node: 0,
            p: 1.5,
            from_us: 0,
            until_us: u64::MAX,
        });
        assert!(bad.validate(1, 1).is_err());
        let mut zero = FaultPlan::empty(1);
        zero.faults.push(FaultSpec::NodeCrash {
            node: 0,
            at_us: 5,
            down_us: 0,
        });
        assert!(zero.validate(1, 1).is_err());
    }

    #[test]
    fn schema_version_gate_rejects_future_plans() {
        let mut plan = FaultPlan::empty(7);
        plan.schema_version = FAULT_PLAN_SCHEMA_VERSION + 1;
        assert!(plan.validate(1, 1).is_err());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RecoveryPolicy::default();
        assert_eq!(r.backoff_us(0), 2_000);
        assert_eq!(r.backoff_us(1), 4_000);
        assert_eq!(r.backoff_us(4), 32_000);
        assert_eq!(r.backoff_us(5), 64_000);
        assert_eq!(r.backoff_us(63), 64_000, "huge attempts stay capped");
    }

    #[test]
    fn exhaustion_thresholds_match_forced_outcomes() {
        let r = RecoveryPolicy::default();
        // I/O attempts are 0-based: attempts 0..3 retry, attempt 4 is
        // forced through.
        assert!(!r.io_exhausted(3));
        assert!(r.io_exhausted(4));
        // Barrier re-issues are 1-based: attempts 1..=8 re-issue,
        // attempt 9 forces the release.
        assert!(!r.barrier_exhausted(8));
        assert!(r.barrier_exhausted(9));
    }

    #[test]
    fn trip_plan_validates_and_exhausts_on_first_request() {
        let plan = FaultPlan::trip(7);
        plan.validate(1, 1).expect("trip plan must validate");
        assert_eq!(plan.recovery.io_retries, 2);
        assert!(plan.recovery.io_exhausted(2));
        let round = FaultPlan::from_json_str(&plan.to_json_string()).expect("round trip");
        assert_eq!(round, plan);
    }

    #[test]
    fn committed_trip_plan_matches_the_generator() {
        let committed = include_str!("../../../plans/trip.json");
        // The CLI's default chaos seed; `agp chaos --emit-trip-plan
        // plans/trip.json` regenerates the file after a deliberate change.
        assert_eq!(
            FaultPlan::trip(0x5EED_600D).to_json_string(),
            committed,
            "plans/trip.json drifted from FaultPlan::trip"
        );
        let plan = FaultPlan::from_json_str(committed).expect("committed plan parses");
        plan.validate(2, 2)
            .expect("trip plan valid for the chaos-demo geometry");
    }

    #[test]
    fn missing_fields_take_defaults() {
        let plan = FaultPlan::from_json_str(r#"{ "seed": 9 }"#).expect("minimal plan");
        assert_eq!(plan.schema_version, FAULT_PLAN_SCHEMA_VERSION);
        assert!(plan.faults.is_empty());
        assert_eq!(plan.recovery, RecoveryPolicy::default());
        let windowless = r#"{ "seed": 9, "faults": [
            { "kind": "disk_errors", "node": 0, "p": 0.5 }
        ] }"#;
        let plan = FaultPlan::from_json_str(windowless).expect("window defaults");
        assert_eq!(
            plan.faults[0],
            FaultSpec::DiskErrors {
                node: 0,
                p: 0.5,
                from_us: 0,
                until_us: u64::MAX,
            }
        );
    }
}
