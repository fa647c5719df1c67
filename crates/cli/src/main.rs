//! `agp` — command-line driver for the adaptive-gang-paging reproduction.
//!
//! ```text
//! agp list                         # enumerate paper experiments
//! agp run fig7 [--scale paper]     # regenerate one figure (or `all`)
//! agp run all --scale quick        # CI-sized pass over every figure
//! agp sim --bench LU --class B --nodes 1 --policy so/ao/ai/bg ...
//!                                  # one custom cluster run
//! agp profile fig6 [--events ev.jsonl]
//!                                  # switch-phase breakdown + histograms
//! agp trace fig6 --perfetto out.json
//!                                  # Perfetto/Chrome trace of one run
//! agp report [--check]             # parity manifest vs committed golden
//! ```
//!
//! Output is plain text: aligned tables, unicode sparklines for the
//! paging traces, and the paper-vs-measured notes. `--csv` switches the
//! tables to CSV, `--json` dumps the whole experiment output as JSON.

// The CLI reads the host clock only to report how long real runs took;
// nothing derived from it feeds simulation state. This is the one
// crate-wide exemption from clippy.toml's clock ban.
#![allow(clippy::disallowed_methods)]

use agp_cluster::{
    incident_dump, ClusterConfig, ClusterSim, JobSpec, RunResult, ScheduleMode, SimError, Watchdog,
};
use agp_core::PolicyConfig;
use agp_experiments::{
    all_experiments, chaos_demo, default_tolerances, find, manifest_of, profile_config, run_pool,
    scale_name, ExperimentOutput, Scale, REPORT_SEED,
};
use agp_faults::FaultPlan;
use agp_metrics::report::{bar_chart, sparkline};
use agp_metrics::{BenchManifest, ParityManifest, Table};
use agp_obs::flight::RING_EVENTS;
use agp_obs::{shared, unwrap_shared, Collector, JsonlWriter, ObsLink, RingBuffer, SharedSink};
use agp_sim::SimDur;
use agp_telemetry::PerfettoTrace;
use agp_workload::{Benchmark, Class, WorkloadSpec};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

mod fuzz;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("sim") => cmd_sim(&args[1..]),
        // chaos has a three-way exit: 0 clean, 2 fuzz findings or corpus
        // regressions, 1 error — so it bypasses the Result funnel below.
        Some("chaos") => {
            return match cmd_chaos(&args[1..]) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("agp: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("profile") => cmd_profile(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("postmortem") => cmd_postmortem(&args[1..]),
        // trace-diff has a three-way exit: 0 identical, 2 divergent,
        // 1 usage/IO error — so it bypasses the Result funnel below.
        Some("trace-diff") => {
            return match cmd_trace_diff(&args[1..]) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("agp: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("perf") => cmd_perf(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try `agp help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("agp: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "agp — simulation reproduction of 'Adaptive Memory Paging for Efficient Gang \
         Scheduling of Parallel Applications' (Ryu, Pachapurkar, Fong; IPPS 2004)\n\n\
         USAGE:\n\
         \x20 agp list                          list the paper experiments\n\
         \x20 agp run <id>|all [options]        regenerate a figure/table\n\
         \x20 agp sim [options]                 run one custom cluster configuration\n\
         \x20 agp chaos [options]               fault-injection demo, fuzzer, and corpus gate (exit 2 on findings)\n\
         \x20 agp profile <id> [options]        profile an experiment's gang switches\n\
         \x20 agp trace <id> [options]          export one run as a Perfetto/Chrome trace\n\
         \x20 agp explain <id> [options]        causal critical-path attribution of switch latency\n\
         \x20 agp postmortem <dump> [options]   triage + causal replay of a flight-recorder incident dump\n\
         \x20 agp trace-diff <left> <right>     first divergence between two JSONL traces (exit 2)\n\
         \x20 agp perf <id> [options]           self-profile one run: hot spans, rates, flamegraph export\n\
         \x20 agp report [options]              run the registry, emit the parity manifest\n\n\
         RUN OPTIONS:\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: paper)\n\
         \x20 --jobs N                          fan experiments out over N worker threads (default 1)\n\
         \x20 --csv                             emit tables as CSV\n\
         \x20 --json                            emit the raw experiment output as JSON\n\
         \x20 --trace                           print the experiments' paging traces\n\n\
         SIM OPTIONS:\n\
         \x20 --bench LU|SP|CG|IS|MG            workload (default LU)\n\
         \x20 --class A|B|C                     problem class (default B)\n\
         \x20 --nodes N                         cluster size = ranks per job (default 1)\n\
         \x20 --jobs N                          instances to co-schedule (default 2)\n\
         \x20 --policy P                        orig | subset of so,ao,ai,bg (default orig)\n\
         \x20 --quantum SECONDS                 gang quantum (default 300)\n\
         \x20 --mem MIB / --wired MIB           node memory geometry (default 1024/574)\n\
         \x20 --batch                           run jobs back-to-back instead of gang\n\
         \x20 --seed N                          RNG seed (default 0x5EED600D)\n\
         \x20 --trace                           print the node-0 paging trace\n\
         \x20 --events PATH                     export the structured event stream as JSONL\n\
         \x20 --obs-budget K                    retain at most K events in memory; drops are reported\n\
         \x20 --check-invariants                sweep conservation/coherence invariants during the run\n\
         \x20 --faults PATH                     inject a deterministic fault plan (JSON, see `agp chaos --emit-plan`)\n\
         \x20 --flight-recorder / --incident-out PATH / --stall-slo SECS /\n\
         \x20 --no-progress-slo SECS / --queue-limit N\n\
         \x20                                   see FLIGHT RECORDER below\n\n\
         CHAOS OPTIONS:\n\
         \x20 --plan PATH                       fault plan JSON (default: the built-in smoke plan)\n\
         \x20 --emit-plan PATH                  write the built-in smoke plan as JSON and exit\n\
         \x20 --emit-trip-plan PATH             write the recovery-exhaustion trip plan as JSON and exit\n\
         \x20 --seed N                          seed for the demo run and built-in plan (default 0x5EED600D)\n\
         \x20 --verify                          run twice, require byte-identical event streams\n\
         \x20 --events PATH                     export the JSONL event stream\n\
         \x20 --check-invariants                sweep conservation/coherence invariants during the run\n\
         \x20 --bench-out PATH                  append this pass's wall-clock to a BENCH manifest\n\
         \x20 --fuzz                            search the fault space: generate plans, classify, shrink\n\
         \x20 --iters N                         fuzz iterations (default 32); each runs every scenario\n\
         \x20 --findings DIR                    where reproducers + findings.json land (default findings/)\n\
         \x20 --shrink-budget N                 oracle calls per delta-debugged finding (default 160)\n\
         \x20 --replay-corpus DIR               re-classify committed reproducers, exit 2 on verdict drift\n\
         \x20 --flight-recorder / --incident-out PATH / --stall-slo SECS /\n\
         \x20 --no-progress-slo SECS / --queue-limit N\n\
         \x20                                   see FLIGHT RECORDER below\n\
         \x20 exit codes: 0 clean / no findings, 2 findings or corpus regressions, 1 error\n\n\
         POSTMORTEM OPTIONS:\n\
         \x20 --json PATH                       write the postmortem report as deterministic JSON\n\n\
         FLIGHT RECORDER (sim / chaos):\n\
         \x20 --flight-recorder                 black box: ring-buffer the run's last 4096 events\n\
         \x20                                   and arm deterministic watchdogs (the flags below need it)\n\
         \x20 --incident-out PATH               where a frozen incident dump is written (default incident.json)\n\
         \x20 --stall-slo SECS                  trip when a job makes no progress for SECS of sim time\n\
         \x20 --no-progress-slo SECS            trip when EVERY unfinished job stalls for SECS — the hang detector\n\
         \x20 --queue-limit N                   trip when the event queue exceeds N entries\n\n\
         PROFILE OPTIONS:\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: quick)\n\
         \x20 --policy P                        orig | subset of so,ao,ai,bg (default so/ao/ai/bg)\n\
         \x20 --events PATH                     also export the JSONL event stream\n\n\
         TRACE OPTIONS:\n\
         \x20 --perfetto PATH                   output file (default <id>.perfetto.json)\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: quick)\n\
         \x20 --policy P                        orig | subset of so,ao,ai,bg (default so/ao/ai/bg)\n\
         \x20 --sample-ms N                     gauge sampling cadence (default 500 quick, 5000 paper)\n\n\
         EXPLAIN OPTIONS:\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: quick)\n\
         \x20 --policy P                        orig | subset of so,ao,ai,bg (default so/ao/ai/bg)\n\
         \x20 --against P                       also run a base policy, emit the differential report\n\
         \x20 --json PATH                       write the (diff) report as deterministic JSON\n\
         \x20 --bench-out PATH                  append this pass's wall-clock to a BENCH manifest\n\n\
         PERF OPTIONS:\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: quick)\n\
         \x20 --policy P                        orig | subset of so,ao,ai,bg (default so/ao/ai/bg)\n\
         \x20 --top N                           span-table rows (default 12)\n\
         \x20 --json PATH                       write the full profile as deterministic JSON\n\
         \x20 --collapsed PATH                  write collapsed stacks (flamegraph.pl / inferno input)\n\n\
         REPORT OPTIONS:\n\
         \x20 --scale paper|quick               testbed geometry or CI-sized (default: quick)\n\
         \x20 --jobs N                          fan the registry out over N worker threads (default 1)\n\
         \x20 --check                           compare against the committed golden; exit 1 on drift\n\
         \x20 --update-golden                   rewrite the committed golden from this run\n\
         \x20 --out PATH                        manifest path (default report.json)\n\
         \x20 --bench-out PATH                  self-timing path (default BENCH_agp.json)\n\
         \x20 --golden PATH                     golden path (default goldens/report.<scale>.json)\n\
         \x20 --iters N                         timing iterations per experiment; wall = min (default 1)\n\
         \x20 --stamp LABEL                     bench-manifest run label (default: <scale>-seed<seed>-j<jobs>)\n\
         \x20 --wall-band REL                   --check wall-clock regression band, fraction (default 2.0)\n\
         \x20 --wall-abs SECS                   --check wall-clock absolute slack (default 1.0)"
    );
}

fn cmd_list() -> Result<(), String> {
    println!("{:<10} TITLE", "ID");
    for e in all_experiments() {
        println!("{:<10} {}", e.id, e.title);
    }
    Ok(())
}

/// The `--flight-recorder` flag family shared by `sim` and `chaos`:
/// whether to record and watch the run, where an incident dump lands,
/// and the watchdog's rules.
#[derive(Clone, Debug, Default)]
struct FlightArgs {
    armed: bool,
    incident_out: Option<String>,
    watchdog: Watchdog,
}

impl FlightArgs {
    /// Consume one CLI token if it belongs to this flag family.
    /// Returns `Ok(true)` when the token (and possibly its value) was
    /// taken, `Ok(false)` when it is not a flight flag.
    fn accept(&mut self, arg: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("{name} needs a value"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))
        };
        let secs = |s: u64| SimDur::from_us(s.saturating_mul(1_000_000));
        match arg {
            "--flight-recorder" => self.armed = true,
            "--incident-out" => {
                self.incident_out = Some(it.next().ok_or("--incident-out needs a value")?.clone());
            }
            "--stall-slo" => self.watchdog.stall_slo = Some(secs(num(arg)?)),
            "--queue-limit" => self.watchdog.queue_limit = Some(num(arg)?),
            "--no-progress-slo" => self.watchdog.no_progress = Some(secs(num(arg)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Refuse the family's other flags without `--flight-recorder`: the
    /// dump path and the watchdog rules act on a recorded run only, so
    /// on their own they would do nothing.
    fn check(&self) -> Result<(), String> {
        let w = &self.watchdog;
        let given = [
            (self.incident_out.is_some(), "--incident-out"),
            (w.stall_slo.is_some(), "--stall-slo"),
            (w.queue_limit.is_some(), "--queue-limit"),
            (w.no_progress.is_some(), "--no-progress-slo"),
        ];
        match given.iter().find(|(set, _)| *set) {
            Some((_, flag)) if !self.armed => Err(format!("{flag} needs --flight-recorder")),
            _ => Ok(()),
        }
    }

    fn incident_path(&self) -> &str {
        self.incident_out.as_deref().unwrap_or("incident.json")
    }

    /// Say where a dump would go (no-op without `--flight-recorder`).
    fn announce(&self) {
        if self.armed {
            eprintln!(
                "flight recorder: armed (incident dump → {})",
                self.incident_path()
            );
        }
    }

    /// Run `cfg` with `sinks` attached. Armed, the run also gets its own
    /// flight ring and the watchdog, and an error from the run writes
    /// the incident dump and names it in the message. Dump-write
    /// problems are appended to the error rather than masking it; a
    /// config `ClusterSim::new` rejects never ran and has no dump.
    fn run(&self, cfg: &ClusterConfig, mut sinks: Vec<SharedSink>) -> Result<RunResult, String> {
        let ring = self.armed.then(|| shared(RingBuffer::new(RING_EVENTS)));
        if let Some(ring) = &ring {
            sinks.push(ring.clone() as SharedSink);
        }
        let link = ObsLink::fanout(sinks);
        let mut sim = ClusterSim::new(cfg.clone())?;
        sim.attach_observer(&link);
        if self.armed {
            sim.attach_watchdog(self.watchdog);
        }
        let outcome = sim.run();
        drop(link);
        match (outcome, ring) {
            (Ok(r), _) => Ok(r),
            (Err(e), None) => Err(e.to_string()),
            (Err(e), Some(ring)) => Err(self.write_incident(&e, ring, cfg)),
        }
    }

    fn write_incident(
        &self,
        err: &SimError,
        ring: Arc<Mutex<RingBuffer>>,
        cfg: &ClusterConfig,
    ) -> String {
        let dump = match unwrap_shared(ring) {
            Ok(ring) => incident_dump(ring, cfg, err),
            Err(e) => return format!("{err} ({e})"),
        };
        let path = self.incident_path();
        match std::fs::write(path, dump.to_json_string()) {
            Ok(()) => {
                eprintln!("flight recorder: wrote incident dump to {path}");
                format!("{err} (incident dump: {path})")
            }
            Err(e) => format!("{err} (incident dump write failed: {path}: {e})"),
        }
    }

    /// Report that an armed run finished clean: no incident, no dump.
    fn on_success(&self) {
        if self.armed {
            eprintln!("flight recorder: clean run, no incident");
        }
    }
}

struct Flags {
    scale: Scale,
    csv: bool,
    json: bool,
    trace: bool,
    jobs: usize,
}

fn parse_flags(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut flags = Flags {
        scale: Scale::Paper,
        csv: false,
        json: false,
        trace: false,
        jobs: 1,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                flags.scale = v.parse()?;
            }
            "--jobs" => {
                flags.jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if flags.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--csv" => flags.csv = true,
            "--json" => flags.json = true,
            "--trace" => flags.trace = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown option '{other}'"));
            }
            other => positional.push(other.to_string()),
        }
    }
    Ok((positional, flags))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let id = pos
        .first()
        .ok_or("usage: agp run <id>|all [--scale paper|quick] [--jobs N]")?;
    let experiments = if id == "all" {
        all_experiments()
    } else {
        vec![find(id).ok_or_else(|| format!("no experiment '{id}' (see `agp list`)"))?]
    };

    // Fan the experiments out (inline when --jobs 1), then render in
    // input order — the rendered output is byte-identical at any width.
    let n = experiments.len();
    let t0 = Instant::now();
    if flags.jobs > 1 {
        eprintln!(
            "running {n} experiment(s) over {} worker(s) ({:?} scale)...",
            flags.jobs.min(n.max(1)),
            flags.scale
        );
    }
    let outs = run_pool(n, flags.jobs, |i| {
        let e = &experiments[i];
        if flags.jobs <= 1 {
            eprintln!("running {} ({:?} scale)...", e.id, flags.scale);
        }
        let t = Instant::now();
        let out = (e.runner)(flags.scale);
        eprintln!("{} finished in {:.1?}", e.id, t.elapsed());
        out
    })?;
    if flags.jobs > 1 {
        eprintln!("all {n} experiment(s) finished in {:.1?}", t0.elapsed());
    }
    for out in &outs {
        if let Err(e) = out {
            return Err(e.clone());
        }
    }
    for out in outs {
        render(&out?, &flags)?;
    }
    Ok(())
}

fn render(out: &ExperimentOutput, flags: &Flags) -> Result<(), String> {
    if flags.json {
        println!("{}", out.to_json().to_string_compact());
        return Ok(());
    }
    println!("\n#### {} — {}\n", out.id, out.title);
    for t in &out.tables {
        if flags.csv {
            println!("# {}", t.title());
            print!("{}", t.to_csv());
        } else {
            println!("{t}");
        }
    }
    if flags.trace {
        for (label, trace) in &out.traces {
            println!("trace [{label:<11}] in : {}", sparkline(trace.ins()));
            println!("trace [{label:<11}] out: {}", sparkline(trace.outs()));
        }
    }
    if !out.notes.is_empty() {
        println!("\nnotes:");
        for n in &out.notes {
            println!("  * {n}");
        }
    }
    Ok(())
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let mut bench = Benchmark::LU;
    let mut class = Class::B;
    let mut nodes = 1u32;
    let mut jobs = 2usize;
    let mut policy = PolicyConfig::original();
    let mut quantum = SimDur::from_secs(300);
    let mut mem = 1024u64;
    let mut wired = 574u64;
    let mut batch = false;
    let mut seed = 0x5EED_600Du64;
    let mut show_trace = false;
    let mut events: Option<String> = None;
    let mut obs_budget: Option<usize> = None;
    let mut check_invariants = false;
    let mut faults: Option<String> = None;
    let mut flight_args = FlightArgs::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flight_args.accept(a.as_str(), &mut it)? {
            continue;
        }
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--bench" => bench = val("--bench")?.parse()?,
            "--class" => class = val("--class")?.parse()?,
            "--nodes" => {
                nodes = val("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--jobs" => jobs = val("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--policy" => policy = val("--policy")?.parse().map_err(|e| format!("{e}"))?,
            "--quantum" => {
                quantum = SimDur::from_secs(
                    val("--quantum")?
                        .parse()
                        .map_err(|e| format!("--quantum: {e}"))?,
                )
            }
            "--mem" => mem = val("--mem")?.parse().map_err(|e| format!("--mem: {e}"))?,
            "--wired" => {
                wired = val("--wired")?
                    .parse()
                    .map_err(|e| format!("--wired: {e}"))?
            }
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--batch" => batch = true,
            "--trace" => show_trace = true,
            "--events" => events = Some(val("--events")?.clone()),
            "--obs-budget" => {
                obs_budget = Some(
                    val("--obs-budget")?
                        .parse()
                        .map_err(|e| format!("--obs-budget: {e}"))?,
                )
            }
            "--check-invariants" => check_invariants = true,
            "--faults" => faults = Some(val("--faults")?.clone()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    flight_args.check()?;

    let workload = WorkloadSpec::parallel(bench, class, nodes);
    let mut cfg = ClusterConfig::paper_defaults(nodes);
    cfg.mem_mib = mem;
    cfg.wired_mib = wired;
    cfg.quantum = quantum;
    cfg.policy = policy;
    cfg.mode = if batch {
        ScheduleMode::Batch
    } else {
        ScheduleMode::Gang
    };
    cfg.seed = seed;
    cfg.check_invariants = check_invariants;
    cfg.jobs = (0..jobs)
        .map(|i| JobSpec::new(format!("{workload} #{}", i + 1), workload))
        .collect();
    if let Some(path) = &faults {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--faults {path}: {e}"))?;
        let plan = FaultPlan::from_json_str(&text).map_err(|e| format!("--faults {path}: {e}"))?;
        eprintln!(
            "injecting fault plan {path} ({} fault(s), plan seed {})",
            plan.faults.len(),
            plan.seed
        );
        cfg.faults = Some(plan);
    }

    let t0 = std::time::Instant::now();
    // A Collector rides along whenever faults are injected so the run can
    // report what actually fired (observers never perturb the sim).
    let collector = cfg.faults.is_some().then(|| shared(Collector::new()));
    // Without a budget, --events streams the full trace through a
    // buffered writer (memory stays O(buffer) regardless of run length).
    // With --obs-budget K, a last-K ring rides along instead and the
    // retained window is written out after the run.
    let budget = obs_budget.map(|k| shared(RingBuffer::new(k)));
    let writer = match &events {
        Some(path) if budget.is_none() => {
            let file = std::fs::File::create(path).map_err(|e| format!("--events {path}: {e}"))?;
            Some(shared(JsonlWriter::new(std::io::BufWriter::new(file))))
        }
        _ => None,
    };
    let mut sinks: Vec<SharedSink> = Vec::new();
    if let Some(c) = &collector {
        sinks.push(c.clone() as SharedSink);
    }
    if let Some(w) = &writer {
        sinks.push(w.clone() as SharedSink);
    }
    if let Some(b) = &budget {
        sinks.push(b.clone() as SharedSink);
    }
    flight_args.announce();
    let r = flight_args.run(&cfg, sinks)?;
    flight_args.on_success();
    if let Some(sink) = writer {
        let path = events.as_deref().unwrap_or("");
        let w = unwrap_shared(sink)?;
        let lines = w.lines();
        w.finish().map_err(|e| format!("--events {path}: {e}"))?;
        eprintln!("wrote {lines} events to {path}");
    }
    if let Some(sink) = budget {
        let b = unwrap_shared(sink)?;
        // Truncation is never silent: the retention summary prints even
        // when nothing was dropped.
        eprintln!(
            "obs budget: kept {} of {} events ({} dropped by --obs-budget)",
            b.len(),
            b.total_seen(),
            b.dropped()
        );
        if let Some(path) = &events {
            let mut out = String::with_capacity(b.len() * 64);
            for te in b.events() {
                out.push_str(&te.event.to_json_line(te.at, te.src));
                out.push('\n');
            }
            std::fs::write(path, out).map_err(|e| format!("--events {path}: {e}"))?;
            eprintln!("wrote the {} retained events to {path}", b.len());
        }
    }
    eprintln!("simulated in {:.1?} ({} events)", t0.elapsed(), r.events);
    if check_invariants {
        eprintln!(
            "invariants: {} sweeps over {} node(s), zero violations",
            r.invariant_checks,
            r.nodes.len()
        );
    }

    println!(
        "policy {}  mode {:?}  makespan {:.1} min  switches {}",
        r.policy,
        r.mode,
        r.makespan.as_mins_f64(),
        r.switches
    );
    for j in &r.jobs {
        println!(
            "  {:<14} completed {:.1} min  ({} iterations)",
            j.name,
            j.completion.as_mins_f64(),
            j.iterations
        );
    }
    let es = r.total_engine_stats();
    println!(
        "paging: {} pages in, {} pages out, {} major faults, {} false evictions, {} replayed",
        r.total_pages_in(),
        r.total_pages_out(),
        es.major_faults,
        es.false_evictions,
        es.replayed_pages
    );
    println!(
        "engine: {} recorded, {} replay-skipped, {} reclaim calls, {} reclaimed, {} aggressive, {} readahead",
        es.recorded_pages,
        es.replay_skipped,
        es.reclaim_calls,
        es.reclaimed_pages,
        es.aggressive_evictions,
        es.readahead_pages
    );
    if show_trace {
        let tr = &r.nodes[0].trace;
        println!("node0 page-in  : {}", sparkline(tr.ins()));
        println!("node0 page-out : {}", sparkline(tr.outs()));
    }
    if let Some(sink) = collector {
        let c = unwrap_shared(sink)?;
        print_fault_summary(&c.counters, &r);
    }
    Ok(())
}

/// What the injected faults and the recovery machinery did: disk faults
/// from the run's disk statistics, recovery from the ride-along
/// collector's chaos counters.
fn print_fault_summary(c: &agp_obs::ObsCounters, r: &agp_cluster::RunResult) {
    let disks = r.nodes.iter().map(|n| &n.disk);
    println!(
        "faults: {} disk errors ({} retries), {}us slowdown penalty, {} barrier timeouts, \
         {} mem-pressure pages",
        disks.clone().map(|d| d.errors).sum::<u64>(),
        c.fault_io_retries,
        disks.map(|d| d.slow_penalty.as_us()).sum::<u64>(),
        c.fault_barrier_timeouts,
        c.fault_mem_pressure_pages
    );
    println!(
        "recovery: {} node crashes, {} restarts, {} jobs requeued, {} ai degradations",
        c.fault_node_crashes, c.fault_node_restarts, c.fault_jobs_requeued, c.fault_ai_degrades
    );
}

/// `agp chaos`: run the demo cluster under a fault plan (the built-in
/// smoke plan unless `--plan` is given) and summarize what fired and how
/// the scheduler recovered. `--verify` runs the whole simulation twice
/// and requires byte-identical event streams — the determinism guarantee
/// `plans/smoke.json` is committed to document.
/// `agp chaos`: demo run, fuzzer, and corpus gate. Exit contract
/// (documented in the README and pinned by a CLI test): 0 = clean run /
/// no fuzz findings / corpus verdicts hold, 2 = fuzz findings written or
/// corpus regressions, 1 = any error.
fn cmd_chaos(args: &[String]) -> Result<ExitCode, String> {
    let mut plan_path: Option<String> = None;
    let mut emit_plan: Option<String> = None;
    let mut seed = 0x5EED_600Du64;
    let mut verify = false;
    let mut events: Option<String> = None;
    let mut check_invariants = false;
    let mut bench_out: Option<String> = None;
    let mut emit_trip_plan: Option<String> = None;
    let mut do_fuzz = false;
    let mut iters = 32u64;
    let mut findings_dir = "findings".to_string();
    let mut shrink_budget = fuzz::DEFAULT_SHRINK_BUDGET;
    let mut replay_corpus: Option<String> = None;
    let mut flight_args = FlightArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flight_args.accept(a.as_str(), &mut it)? {
            continue;
        }
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--plan" => plan_path = Some(val("--plan")?.clone()),
            "--emit-plan" => emit_plan = Some(val("--emit-plan")?.clone()),
            "--emit-trip-plan" => emit_trip_plan = Some(val("--emit-trip-plan")?.clone()),
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--verify" => verify = true,
            "--events" => events = Some(val("--events")?.clone()),
            "--check-invariants" => check_invariants = true,
            "--bench-out" => bench_out = Some(val("--bench-out")?.clone()),
            "--fuzz" => do_fuzz = true,
            "--iters" => {
                iters = val("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--findings" => findings_dir = val("--findings")?.clone(),
            "--shrink-budget" => {
                shrink_budget = val("--shrink-budget")?
                    .parse()
                    .map_err(|e| format!("--shrink-budget: {e}"))?;
            }
            "--replay-corpus" => replay_corpus = Some(val("--replay-corpus")?.clone()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    flight_args.check()?;

    if do_fuzz || replay_corpus.is_some() {
        // The verdict harness records and watches each classified run
        // itself (its own ring, a fixed rule set): the demo-run flag
        // families don't compose with it.
        if flight_args.armed || verify || plan_path.is_some() || events.is_some() {
            return Err(
                "--fuzz/--replay-corpus run under the harness's own flight recorder and \
                 scenario matrix; drop --flight-recorder/--verify/--plan/--events"
                    .into(),
            );
        }
        let t0 = std::time::Instant::now();
        let (failures, bench_key) = match &replay_corpus {
            Some(dir) => (fuzz::replay_corpus(dir)?, "chaos.replay"),
            None => (
                fuzz::run_fuzz(seed, iters, &findings_dir, shrink_budget)?,
                "chaos.fuzz",
            ),
        };
        if let Some(path) = &bench_out {
            append_bench(path, bench_key, t0.elapsed().as_secs_f64())?;
        }
        return Ok(if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        });
    }

    if let Some(path) = &emit_plan {
        let plan = FaultPlan::smoke(seed);
        std::fs::write(path, plan.to_json_string())
            .map_err(|e| format!("--emit-plan {path}: {e}"))?;
        println!(
            "wrote the built-in smoke plan (seed {seed}, {} faults) to {path}",
            plan.faults.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &emit_trip_plan {
        let plan = FaultPlan::trip(seed);
        std::fs::write(path, plan.to_json_string())
            .map_err(|e| format!("--emit-trip-plan {path}: {e}"))?;
        println!(
            "wrote the recovery-exhaustion trip plan (seed {seed}, {} fault(s)) to {path}",
            plan.faults.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let plan = match &plan_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("--plan {path}: {e}"))?;
            FaultPlan::from_json_str(&text).map_err(|e| format!("--plan {path}: {e}"))?
        }
        None => FaultPlan::smoke(seed),
    };
    let mut cfg = chaos_demo(seed);
    cfg.check_invariants = check_invariants;
    cfg.faults = Some(plan);
    cfg.validate()?;

    // One observed run: collector for the summary, an in-memory JSONL
    // writer for --verify's byte comparison, a file writer for --events.
    let run_once = |capture: bool| -> Result<(RunResult, agp_obs::ObsCounters, Vec<u8>), String> {
        let collector = shared(Collector::new());
        let mem = capture.then(|| shared(JsonlWriter::new(Vec::new())));
        let mut sinks: Vec<SharedSink> = vec![collector.clone() as SharedSink];
        if let Some(m) = &mem {
            sinks.push(m.clone() as SharedSink);
        }
        let r = flight_args.run(&cfg, sinks)?;
        let counters = unwrap_shared(collector)?.counters;
        let bytes = match mem {
            Some(m) => unwrap_shared(m)?
                .finish()
                .map_err(|e| format!("event capture: {e}"))?,
            None => Vec::new(),
        };
        Ok((r, counters, bytes))
    };

    let t0 = std::time::Instant::now();
    eprintln!(
        "chaos demo: 2x CG.A on 2 nodes, policy {}, seed {seed}, {} fault(s)",
        cfg.policy.label(),
        cfg.faults.as_ref().map_or(0, |p| p.faults.len())
    );
    flight_args.announce();
    let (r, counters, first) = run_once(verify || events.is_some())?;
    eprintln!("simulated in {:.1?} ({} events)", t0.elapsed(), r.events);

    if verify {
        let (_, _, second) = run_once(true)?;
        if first != second {
            return Err("verify: same plan + seed produced divergent event streams".into());
        }
        println!(
            "verify: two runs, byte-identical event streams ({} bytes)",
            first.len()
        );
        // The counter-tiling audit (same invariant the fuzz harness
        // enforces): retries tile disk errors exactly, degradations and
        // restarts stay within their budgets.
        if let Some(violation) = agp_cluster::counter_tiling_violation(&counters, &r) {
            return Err(format!("verify: counter tiling violated: {violation}"));
        }
        println!("verify: fault counters tile (retries == errors, degradations within bounds)");
    }
    flight_args.on_success();
    if let Some(path) = &events {
        std::fs::write(path, &first).map_err(|e| format!("--events {path}: {e}"))?;
        eprintln!("wrote {} event bytes to {path}", first.len());
    }

    println!(
        "policy {}  mode {:?}  makespan {:.1} min  switches {}",
        r.policy,
        r.mode,
        r.makespan.as_mins_f64(),
        r.switches
    );
    for j in &r.jobs {
        println!(
            "  {:<14} completed {:.1} min  ({} iterations)",
            j.name,
            j.completion.as_mins_f64(),
            j.iterations
        );
    }
    print_fault_summary(&counters, &r);
    if check_invariants {
        println!(
            "invariants: {} sweeps over {} node(s), zero violations",
            r.invariant_checks,
            r.nodes.len()
        );
    }
    if let Some(path) = &bench_out {
        append_bench(path, "chaos.smoke", t0.elapsed().as_secs_f64())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Append one wall-clock timing row to a BENCH manifest (creating it
/// when absent).
fn append_bench(path: &str, key: &str, secs: f64) -> Result<(), String> {
    let mut bench = match std::fs::read_to_string(path) {
        Ok(text) => BenchManifest::parse(&text)
            .map_err(|e| format!("--bench-out {path}: {e} (delete it to start fresh)"))?,
        Err(_) => BenchManifest::new(),
    };
    bench.insert(key.to_string(), secs);
    std::fs::write(path, bench.to_json()).map_err(|e| format!("--bench-out {path}: {e}"))?;
    eprintln!("appended {key} wall-clock to {path}");
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut id: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut policy: Option<PolicyConfig> = None;
    let mut out: Option<String> = None;
    let mut sample_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => scale = val("--scale")?.parse()?,
            "--policy" => policy = Some(val("--policy")?.parse().map_err(|e| format!("{e}"))?),
            "--perfetto" => out = Some(val("--perfetto")?.clone()),
            "--sample-ms" => {
                sample_ms = Some(
                    val("--sample-ms")?
                        .parse()
                        .map_err(|e| format!("--sample-ms: {e}"))?,
                )
            }
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => id = Some(other.to_string()),
        }
    }
    let id = id.ok_or(
        "usage: agp trace <id> [--perfetto PATH] [--scale paper|quick] [--policy P] [--sample-ms N]",
    )?;
    let mut cfg = profile_config(&id, scale)
        .ok_or_else(|| format!("no experiment '{id}' (see `agp list`)"))?;
    if let Some(p) = policy {
        cfg.policy = p;
    }
    // Default cadence: dense enough to draw counter tracks, coarse enough
    // that gauges stay a small fraction of the trace.
    cfg.sample_every = Some(SimDur::from_ms(sample_ms.unwrap_or(match scale {
        Scale::Paper => 5_000,
        Scale::Quick => 500,
    })));
    let path = out.unwrap_or_else(|| format!("{id}.perfetto.json"));

    let sink = shared(PerfettoTrace::new());
    let analyzer = shared(agp_explain::Analyzer::new());
    let link = ObsLink::fanout(vec![
        sink.clone() as SharedSink,
        analyzer.clone() as SharedSink,
    ]);
    eprintln!("tracing {id} ({scale:?} scale)...");
    // Self-profile the traced run so the export carries a "host perf"
    // counter track next to the sim tracks.
    agp_perf::enable(true);
    let _ = agp_perf::take_report();
    let t0 = std::time::Instant::now();
    let r = agp_cluster::run_observed(cfg, &link)?;
    agp_perf::enable(false);
    let perf = agp_perf::take_report();
    drop(link);
    eprintln!("simulated in {:.1?} ({} events)", t0.elapsed(), r.events);
    let mut trace = unwrap_shared(sink)?;
    trace.host_perf_track(&perf, r.makespan.as_us());
    // Overlay the per-switch critical path as its own track: one span
    // per attributed cause segment, tiling each switch exactly.
    let analysis = unwrap_shared(analyzer)?;
    let mut highlighted = 0usize;
    for sw in analysis.switches() {
        let mut ts = sw.at_us;
        for seg in &sw.segments {
            trace.highlight(ts, seg.dur_us, seg.cause.name());
            ts += seg.dur_us;
        }
        highlighted += 1;
    }
    eprintln!("highlighted the critical path of {highlighted} switches");
    let spans = trace.len();
    std::fs::write(&path, trace.finish()).map_err(|e| format!("--perfetto {path}: {e}"))?;
    eprintln!("wrote {spans} trace events to {path} (open in ui.perfetto.dev)");
    println!(
        "policy {}  mode {:?}  makespan {:.1} min  switches {}",
        r.policy,
        r.mode,
        r.makespan.as_mins_f64(),
        r.switches
    );
    Ok(())
}

/// Self-profile one experiment run: hot-span table, throughput gauges,
/// and the flamegraph / JSON exports.
fn cmd_perf(args: &[String]) -> Result<(), String> {
    let mut id: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut policy: Option<PolicyConfig> = None;
    let mut top = 12usize;
    let mut json_out: Option<String> = None;
    let mut collapsed_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => scale = val("--scale")?.parse()?,
            "--policy" => policy = Some(val("--policy")?.parse().map_err(|e| format!("{e}"))?),
            "--top" => top = val("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--json" => json_out = Some(val("--json")?.clone()),
            "--collapsed" => collapsed_out = Some(val("--collapsed")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => id = Some(other.to_string()),
        }
    }
    let id = id.ok_or(
        "usage: agp perf <id> [--scale paper|quick] [--policy P] [--top N] \
         [--json PATH] [--collapsed PATH]",
    )?;
    let mut cfg = profile_config(&id, scale)
        .ok_or_else(|| format!("no experiment '{id}' (see `agp list`)"))?;
    if let Some(p) = policy {
        cfg.policy = p;
    }

    agp_perf::enable(true);
    let _ = agp_perf::take_report(); // discard anything a prior region recorded
    eprintln!("profiling {id} ({scale:?} scale)...");
    let t0 = std::time::Instant::now();
    let r = agp_cluster::run(cfg)?;
    let wall = t0.elapsed();
    agp_perf::enable(false);
    let mut rep = agp_perf::take_report();
    let es = r.total_engine_stats();
    let d = agp_perf::Derived {
        events: r.events,
        faults: es.major_faults + es.minor_faults,
        sim_us: r.makespan.as_us(),
        wall_ns: wall.as_nanos() as u64,
    };
    rep.derived = Some(d);

    println!(
        "profiled {id} ({} scale): policy {}, wall {:.3} s, {} events, {} switches",
        scale_name(scale),
        r.policy,
        wall.as_secs_f64(),
        r.events,
        r.switches
    );
    println!(
        "rates: {:.0} events/s, {:.0} faults/s, {:.1} sim-us per wall-ms",
        d.events_per_sec(),
        d.faults_per_sec(),
        d.sim_us_per_wall_ms()
    );

    println!(
        "\n{:<14} {:>10} {:>11} {:>11} {:>6} {:>9} {:>9}",
        "SPAN", "CALLS", "TOTAL_MS", "SELF_MS", "SELF%", "P50_NS", "P99_NS"
    );
    let total_self = rep.total_self_ns();
    for agg in rep.by_self_time().into_iter().take(top) {
        let pct = if total_self == 0 {
            0.0
        } else {
            agg.excl_ns as f64 * 100.0 / total_self as f64
        };
        println!(
            "{:<14} {:>10} {:>11.3} {:>11.3} {:>6.1} {:>9} {:>9}",
            agg.span.name(),
            agg.count,
            agg.incl_ns as f64 / 1e6,
            agg.excl_ns as f64 / 1e6,
            pct,
            agg.p50_ns(),
            agg.p99_ns()
        );
    }

    // Tiling: self times sum to the root span's inclusive time by
    // construction; both should cover nearly all of the measured wall
    // (the gap is setup/teardown outside the instrumented run).
    let root_ns = rep
        .spans
        .iter()
        .find(|a| a.span == agp_perf::Span::Run)
        .map_or(0, |a| a.incl_ns);
    let wall_ns = wall.as_nanos() as u64;
    let coverage = if wall_ns == 0 {
        0.0
    } else {
        total_self as f64 * 100.0 / wall_ns as f64
    };
    println!(
        "\ncoverage: spans tile {:.3} ms of {:.3} ms wall ({:.1}%); root span {:.3} ms, {} unbalanced exits",
        total_self as f64 / 1e6,
        wall_ns as f64 / 1e6,
        coverage,
        root_ns as f64 / 1e6,
        rep.unbalanced_exits
    );

    if let Some(path) = &json_out {
        std::fs::write(path, rep.to_json_string()).map_err(|e| format!("--json {path}: {e}"))?;
        eprintln!("wrote profile JSON to {path}");
    }
    if let Some(path) = &collapsed_out {
        std::fs::write(path, rep.collapsed()).map_err(|e| format!("--collapsed {path}: {e}"))?;
        eprintln!("wrote collapsed stacks to {path} (flamegraph.pl / inferno-flamegraph input)");
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut scale = Scale::Quick;
    let mut check = false;
    let mut update_golden = false;
    let mut out = "report.json".to_string();
    let mut bench_out = "BENCH_agp.json".to_string();
    let mut golden: Option<String> = None;
    let mut iters = 1u32;
    let mut stamp = String::new();
    let mut wall_band = 2.0f64;
    let mut wall_abs = 1.0f64;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => scale = val("--scale")?.parse()?,
            "--jobs" => {
                jobs = val("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--check" => check = true,
            "--update-golden" => update_golden = true,
            "--out" => out = val("--out")?.clone(),
            "--bench-out" => bench_out = val("--bench-out")?.clone(),
            "--golden" => golden = Some(val("--golden")?.clone()),
            "--iters" => {
                iters = val("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if iters == 0 {
                    return Err("--iters must be at least 1".into());
                }
            }
            "--stamp" => stamp = val("--stamp")?.clone(),
            "--wall-band" => {
                wall_band = val("--wall-band")?
                    .parse()
                    .map_err(|e| format!("--wall-band: {e}"))?
            }
            "--wall-abs" => {
                wall_abs = val("--wall-abs")?
                    .parse()
                    .map_err(|e| format!("--wall-abs: {e}"))?
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let golden_path =
        golden.unwrap_or_else(|| format!("goldens/report.{}.json", scale_name(scale)));
    // The default stamp is derived, not sampled: same scale/seed/jobs →
    // same stamp, so regenerating the committed manifest on any machine
    // yields an identical metadata block.
    if stamp.is_empty() {
        stamp = format!("{}-seed{:x}-j{jobs}", scale_name(scale), REPORT_SEED);
    }

    // Read the committed wall-clock baseline before this run overwrites
    // it. Unreadable/missing baselines downgrade the wall gate to a
    // warning — the parity gate below stays strict either way.
    let baseline = if check && !update_golden {
        match std::fs::read_to_string(&bench_out) {
            Ok(text) => match BenchManifest::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!(
                        "warning: wall-clock baseline {bench_out}: {e}; skipping the wall gate"
                    );
                    None
                }
            },
            Err(_) => {
                eprintln!("warning: no wall-clock baseline at {bench_out}; skipping the wall gate");
                None
            }
        }
    } else {
        None
    };

    // Start from the manifest already on disk (rows appended by other
    // gate steps — `explain.*`, `chaos.smoke`, the other `registry.jobsN`
    // width — survive a rerun). A missing, unparsable or cross-profile
    // manifest starts fresh.
    let mut bench = match std::fs::read_to_string(&bench_out) {
        Ok(text) => BenchManifest::parse(&text).unwrap_or_default(),
        Err(_) => BenchManifest::new(),
    };
    if bench.build_profile != BenchManifest::new().build_profile {
        bench = BenchManifest::new();
    }
    bench.iterations = iters;
    bench.stamp = stamp;
    let mut outputs = Vec::new();
    if jobs > 1 {
        // Fan the registry out over worker threads. The self-profiler is
        // process-global, so per-experiment wall rows and span cells are
        // a serial-only feature: a sharded sweep records one honest
        // number — the whole registry's wall — under `registry.jobsN`.
        let exps = all_experiments();
        eprintln!(
            "report: running {} experiments over {jobs} workers ({:?} scale, {iters} iter)...",
            exps.len(),
            scale
        );
        let mut best: Option<(f64, Vec<ExperimentOutput>)> = None;
        for _ in 0..iters {
            let t0 = std::time::Instant::now();
            let outs: Result<Vec<ExperimentOutput>, String> =
                run_pool(exps.len(), jobs, |i| (exps[i].runner)(scale))?
                    .into_iter()
                    .collect();
            let secs = t0.elapsed().as_secs_f64();
            let outs = outs?;
            if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                best = Some((secs, outs));
            }
        }
        // iters >= 1 is enforced at flag parse.
        #[allow(clippy::expect_used)]
        let (secs, outs) = best.expect("iters >= 1");
        eprintln!("report: registry sweep took {secs:.1} s over {jobs} workers");
        bench.insert(format!("registry.jobs{jobs}"), secs);
        outputs = outs;
    } else {
        // Experiments run under the self-profiler so the bench manifest
        // carries per-span host-time aggregates next to the wall numbers.
        agp_perf::enable(true);
        let _ = agp_perf::take_report();
        for e in all_experiments() {
            eprintln!(
                "report: running {} ({:?} scale, {iters} iter)...",
                e.id, scale
            );
            let mut best: Option<(f64, agp_perf::PerfReport, ExperimentOutput)> = None;
            for _ in 0..iters {
                let t0 = std::time::Instant::now();
                let output = (e.runner)(scale)?;
                let secs = t0.elapsed().as_secs_f64();
                let rep = agp_perf::take_report();
                if best.as_ref().is_none_or(|(b, _, _)| secs < *b) {
                    best = Some((secs, rep, output));
                }
            }
            // iters >= 1 is enforced at flag parse.
            #[allow(clippy::expect_used)]
            let (secs, rep, output) = best.expect("iters >= 1");
            outputs.push(output);
            bench.insert(e.id, secs);
            let cells: std::collections::BTreeMap<String, agp_metrics::SpanCell> = rep
                .spans
                .iter()
                .map(|a| {
                    (
                        a.span.name().to_string(),
                        agp_metrics::SpanCell {
                            calls: a.count,
                            total_ns: a.incl_ns,
                            self_ns: a.excl_ns,
                        },
                    )
                })
                .collect();
            if !cells.is_empty() {
                bench.insert_spans(e.id, cells);
            }
        }
        agp_perf::enable(false);
        // The serial sweep's wall is the sum of its best per-experiment
        // runs — the `--jobs N` speedup baseline.
        let total: f64 = all_experiments()
            .iter()
            .filter_map(|e| bench.wall_secs.get(e.id).copied())
            .sum();
        bench.insert("registry.jobs1", total);
    }
    let manifest = manifest_of(&outputs, scale);
    std::fs::write(&out, manifest.to_json()).map_err(|e| format!("--out {out}: {e}"))?;
    std::fs::write(&bench_out, bench.to_json())
        .map_err(|e| format!("--bench-out {bench_out}: {e}"))?;
    eprintln!(
        "wrote {} metrics to {out}, {} timings to {bench_out}",
        manifest.metrics.len(),
        bench.wall_secs.len()
    );

    if update_golden {
        if let Some(dir) = std::path::Path::new(&golden_path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        std::fs::write(&golden_path, manifest.to_json())
            .map_err(|e| format!("--golden {golden_path}: {e}"))?;
        eprintln!("updated golden {golden_path}");
    }
    if check {
        let text = std::fs::read_to_string(&golden_path).map_err(|e| {
            format!("--check: cannot read golden {golden_path}: {e} (run `agp report --update-golden`?)")
        })?;
        let gold = ParityManifest::parse(&text)
            .map_err(|e| format!("--check: golden {golden_path}: {e}"))?;
        let drifts = manifest.compare(&gold, &default_tolerances());
        if !drifts.is_empty() {
            for d in &drifts {
                eprintln!("drift: {d}");
            }
            return Err(format!(
                "{} metric(s) drifted from {golden_path}",
                drifts.len()
            ));
        }
        println!(
            "parity OK: {} metrics within tolerance of {golden_path}",
            manifest.metrics.len()
        );
        if let Some(base) = &baseline {
            if base.build_profile != bench.build_profile {
                eprintln!(
                    "warning: baseline built under '{}' but this run is '{}'; skipping the wall gate",
                    base.build_profile, bench.build_profile
                );
            } else {
                let band = agp_metrics::Tolerance::new(wall_band, wall_abs);
                let slow = bench.compare_wall(base, band);
                if !slow.is_empty() {
                    for d in &slow {
                        eprintln!("drift: {d}");
                    }
                    return Err(format!(
                        "{} experiment(s) regressed past the wall-clock band of {bench_out} \
                         (rerun, or refresh the baseline with `agp report` on a quiet machine)",
                        slow.len()
                    ));
                }
                println!(
                    "wall-clock OK: {} experiments within +max({wall_abs} s, {:.0}% ) of {bench_out}",
                    bench.wall_secs.len(),
                    wall_band * 100.0
                );
            }
        }
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut id: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut policy: Option<PolicyConfig> = None;
    let mut against: Option<PolicyConfig> = None;
    let mut json: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => scale = val("--scale")?.parse()?,
            "--policy" => policy = Some(val("--policy")?.parse().map_err(|e| format!("{e}"))?),
            "--against" => against = Some(val("--against")?.parse().map_err(|e| format!("{e}"))?),
            "--json" => json = Some(val("--json")?.clone()),
            "--bench-out" => bench_out = Some(val("--bench-out")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => id = Some(other.to_string()),
        }
    }
    let id = id.ok_or(
        "usage: agp explain <id> [--scale paper|quick] [--policy P] [--against P] \
         [--json PATH] [--bench-out PATH]",
    )?;
    let mut cfg = profile_config(&id, scale)
        .ok_or_else(|| format!("no experiment '{id}' (see `agp list`)"))?;
    if let Some(p) = policy {
        cfg.policy = p;
    }

    let t0 = std::time::Instant::now();
    eprintln!(
        "explaining {id} ({scale:?} scale, policy {})...",
        cfg.policy.label()
    );
    let (r, report) = agp_explain::explain_run(&cfg, &id, scale_name(scale))?;
    eprintln!("simulated in {:.1?} ({} events)", t0.elapsed(), r.events);
    println!(
        "policy {}  mode {:?}  makespan {:.1} min  switches {}",
        r.policy,
        r.mode,
        r.makespan.as_mins_f64(),
        r.switches
    );

    let json_text = match against {
        None => {
            for t in report.tables() {
                println!("{t}");
            }
            println!("notes:");
            for n in report.notes() {
                println!("  * {n}");
            }
            report.to_json_string()
        }
        Some(base_policy) => {
            let mut base_cfg = cfg.clone();
            base_cfg.policy = base_policy;
            eprintln!("explaining base policy {}...", base_cfg.policy.label());
            let (rb, base_report) = agp_explain::explain_run(&base_cfg, &id, scale_name(scale))?;
            eprintln!("base simulated ({} events)", rb.events);
            let diff = agp_explain::ExplainDiff::new(report, base_report);
            for t in diff.tables() {
                println!("{t}");
            }
            println!("attribution:");
            for n in diff.notes() {
                println!("  * {n}");
            }
            diff.to_json_string()
        }
    };
    if let Some(path) = &json {
        std::fs::write(path, &json_text).map_err(|e| format!("--json {path}: {e}"))?;
        eprintln!("wrote explain report to {path}");
    }
    if let Some(path) = &bench_out {
        append_bench(path, &format!("explain.{id}"), t0.elapsed().as_secs_f64())?;
    }
    Ok(())
}

/// `agp postmortem <dump>`: reload a flight-recorder incident dump,
/// triage the recorded window by subsystem, and replay it through the
/// explain analyzer. `--json PATH` writes the report as deterministic
/// JSON (golden-pinned — byte-identical for identical dumps).
fn cmd_postmortem(args: &[String]) -> Result<(), String> {
    let mut dump_path: Option<String> = None;
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = Some(it.next().ok_or("--json needs a value")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => dump_path = Some(other.to_string()),
        }
    }
    let dump_path = dump_path.ok_or("usage: agp postmortem <dump.json> [--json PATH]")?;
    let text = std::fs::read_to_string(&dump_path).map_err(|e| format!("{dump_path}: {e}"))?;
    let report = agp_explain::PostmortemReport::from_dump_str(&text)
        .map_err(|e| format!("{dump_path}: {e}"))?;

    println!("incident: {}", report.headline());
    println!(
        "run: {} (seed {}, config {:016x})\n",
        report.meta.scenario, report.meta.seed, report.meta.config_fp
    );
    for t in report.tables() {
        println!("{t}");
    }
    println!("notes:");
    for n in report.notes() {
        println!("  * {n}");
    }
    if let Some(path) = &json {
        std::fs::write(path, report.to_json_string()).map_err(|e| format!("--json {path}: {e}"))?;
        eprintln!("wrote postmortem report to {path}");
    }
    Ok(())
}

/// `agp trace-diff <left> <right>`: exit 0 when the JSONL traces are
/// identical, 2 at the first divergence (printed with context), 1 on
/// usage or I/O errors.
fn cmd_trace_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut pos = Vec::new();
    for a in args {
        if a.starts_with("--") {
            return Err(format!("unknown option '{a}'"));
        }
        pos.push(a.as_str());
    }
    let (left, right) = match pos.as_slice() {
        [l, r] => (*l, *r),
        _ => return Err("usage: agp trace-diff <left.jsonl> <right.jsonl>".into()),
    };
    let l = std::fs::read_to_string(left).map_err(|e| format!("{left}: {e}"))?;
    let r = std::fs::read_to_string(right).map_err(|e| format!("{right}: {e}"))?;
    match agp_obs::trace_diff(&l, &r) {
        None => {
            println!("traces identical ({} lines)", l.lines().count());
            Ok(ExitCode::SUCCESS)
        }
        Some(d) => {
            print!("{d}");
            Ok(ExitCode::from(2))
        }
    }
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut id: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut policy: Option<PolicyConfig> = None;
    let mut events: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => scale = val("--scale")?.parse()?,
            "--policy" => policy = Some(val("--policy")?.parse().map_err(|e| format!("{e}"))?),
            "--events" => events = Some(val("--events")?.clone()),
            other if other.starts_with("--") => return Err(format!("unknown option '{other}'")),
            other => id = Some(other.to_string()),
        }
    }
    let id =
        id.ok_or("usage: agp profile <id> [--scale paper|quick] [--policy P] [--events PATH]")?;
    let mut cfg = profile_config(&id, scale)
        .ok_or_else(|| format!("no experiment '{id}' (see `agp list`)"))?;
    if let Some(p) = policy {
        cfg.policy = p;
    }

    let collector = shared(Collector::new());
    let mut sinks: Vec<SharedSink> = vec![collector.clone() as SharedSink];
    let jsonl = match &events {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("--events {path}: {e}"))?;
            let sink = shared(JsonlWriter::new(std::io::BufWriter::new(file)));
            sinks.push(sink.clone() as SharedSink);
            Some(sink)
        }
        None => None,
    };
    let link = ObsLink::fanout(sinks);

    eprintln!("profiling {id} ({scale:?} scale)...");
    let t0 = std::time::Instant::now();
    let r = agp_cluster::run_observed(cfg, &link)?;
    drop(link);
    eprintln!("simulated in {:.1?} ({} events)", t0.elapsed(), r.events);
    if let (Some(path), Some(sink)) = (&events, jsonl) {
        let writer = unwrap_shared(sink)?;
        let lines = writer.lines();
        writer
            .finish()
            .map_err(|e| format!("--events {path}: {e}"))?;
        eprintln!("wrote {lines} events to {path}");
    }
    let c = unwrap_shared(collector)?;

    println!(
        "policy {}  mode {:?}  makespan {:.1} min  switches {}",
        r.policy,
        r.mode,
        r.makespan.as_mins_f64(),
        r.switches
    );

    let mut table = Table::new(
        format!("{id}: switch-phase breakdown (us)"),
        &[
            "switch", "at (s)", "stop", "page-out", "page-in", "cont", "total",
        ],
    );
    for rec in c.switch_records() {
        table.row(vec![
            rec.switch.to_string(),
            format!("{:.1}", rec.at_us as f64 / 1e6),
            rec.stop_us.to_string(),
            rec.page_out_us.to_string(),
            rec.page_in_us.to_string(),
            rec.cont_us.to_string(),
            rec.total_us.to_string(),
        ]);
    }
    println!("{table}");

    // Paging and disk counts are the run's; the collector adds what only
    // the event stream carries (event and bg-burst totals, barriers).
    let es = r.total_engine_stats();
    let disk = |f: fn(&agp_disk::DiskStats) -> u64| r.nodes.iter().map(|n| f(&n.disk)).sum::<u64>();
    println!(
        "events {}: {} major faults ({} serviced, {} readahead pages), {} evictions \
         ({} false, {} recorded), {} reclaim runs freeing {}, {} aggressive, \
         {} replayed ({} skipped), {} bg bursts cleaning {}",
        c.counters.events,
        es.major_faults,
        es.major_faults,
        es.readahead_pages,
        es.reclaimed_pages,
        es.false_evictions,
        es.recorded_pages,
        es.reclaim_calls,
        es.reclaimed_pages - es.aggressive_evictions,
        es.aggressive_evictions,
        es.replayed_pages,
        es.replay_skipped,
        c.counters.bg_ticks,
        r.nodes.iter().map(|n| n.bg_cleaned_pages).sum::<u64>(),
    );
    println!(
        "disk: {} reads ({} pages), {} writes ({} pages); {} barriers",
        disk(|d| d.read_requests),
        disk(|d| d.pages_read),
        disk(|d| d.write_requests),
        disk(|d| d.pages_written),
        c.barrier_skew.count()
    );

    for (name, h) in [
        ("switch duration", &c.switch_total),
        ("fault service", &c.fault_service),
        ("disk queue wait", &c.disk_wait),
        ("disk service", &c.disk_service),
        ("barrier skew", &c.barrier_skew),
    ] {
        if h.is_empty() {
            println!("\n{name}: no samples");
            continue;
        }
        println!(
            "\n{name}: n={}  mean={}us  p50={}us  p90={}us  p99={}us  max={}us",
            h.count(),
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        );
        let rows: Vec<(String, u64)> = h
            .rows()
            .into_iter()
            .map(|(lo, n)| (us_label(lo), n))
            .collect();
        print!("{}", bar_chart(&rows));
    }
    Ok(())
}

/// Bar-chart label for a µs histogram bucket's lower bound (`0`, `1us`,
/// `512us`, `1ms`, `1s`, …).
fn us_label(lo: u64) -> String {
    if lo == 0 {
        "0".to_string()
    } else if lo >= 1_000_000 {
        format!("{}s", lo / 1_000_000)
    } else if lo >= 1_000 {
        format!("{}ms", lo / 1_000)
    } else {
        format!("{lo}us")
    }
}
