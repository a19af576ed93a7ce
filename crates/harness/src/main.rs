//! `gstm-repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! gstm-repro <command> [options]
//!
//! Commands:
//!   table1 table2 table3 table4 table5
//!   fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   stamp      (tables I, III, IV + figures 4-10)
//!   synquake   (table V + figures 11, 12)
//!   summary    (one row per STAMP benchmark x thread count with every
//!              derived metric)
//!   repeated   (the full STAMP pipeline --repeat times: mean +- sd per
//!              derived metric)
//!   inspect    (train one model, first --bench or kmeans, at the first
//!              thread count and print its hottest states, Figure 3-style)
//!   all        (everything)
//!
//! Options:
//!   --threads A,B       thread counts            (default: 8,16)
//!   --runs N            measurement runs/mode    (default: 20)
//!   --profile-runs N    model-training runs      (default: 12)
//!   --repeat N          pipeline repeats for `repeated` (default: 3)
//!   --bench a,b,...     restrict STAMP benchmarks
//!   --size s            small|medium|large test input (default: large
//!                       for kmeans; medium for genome, intruder,
//!                       labyrinth, ssca2; small for the rest)
//!   --train-size s      profiling input           (default: --size)
//!   --players N         SynQuake players          (default: 192)
//!   --frames N          SynQuake test frames      (default: 96)
//!   --tfactor F         guidance threshold knob   (default: 4)
//!   --seed X            input seed
//!   --out DIR           also write CSVs to DIR    (default: results)
//!   --no-csv            don't write CSVs
//!   --telemetry[=DIR]   write runtime telemetry (Prometheus snapshot,
//!                       JSONL + chrome://tracing trace) for the guided
//!                       phase of each STAMP experiment (default DIR: the
//!                       --out directory)
//!   --adaptive[=W]      regenerate the guided model online: commits feed
//!                       a W-state sliding window (default 4096) and a
//!                       background manager rebuilds + hot-swaps the model
//!                       when the drift ladder reaches Drifting/Stale
//!   --profile-threads N profile at N threads instead of the measurement
//!                       width (deliberately mismatching trains a stale
//!                       model — the adaptation demo scenario)
//!   --chaos SEED[:PLAN] arm a deterministic fault plan for the guided
//!                       phase. PLAN is `+`-separated site/alias tokens,
//!                       each optionally `@permille[xbudget]`; aliases:
//!                       forced-aborts commit-delays gate-stalls storms
//!                       corrupt-model guardian-panic all (default:
//!                       forced-aborts). The same SEED:PLAN replays a
//!                       bit-identical fault schedule.
//!   --breaker           gate every guided run through its own guidance
//!                       circuit breaker: trips to fail-open unguided
//!                       execution on released-rate / off-model /
//!                       starvation bounds, re-admits via half-open
//!                       probes after cooldown
//!   --serve ADDR        live ops plane: serve /metrics (Prometheus),
//!                       /health (SLO verdict, 503 in Incident), /vars
//!                       and /incidents from a std-only HTTP/1.1 thread
//!                       on ADDR (e.g. 127.0.0.1:9464) while the
//!                       campaign runs
//!   --slo SPEC          SLO watchdog rules over telemetry windows,
//!                       e.g. abort-ratio=30,released=5,warn=1,
//!                       incident=3,clear=3,window-ms=200; entering
//!                       Incident trips a flight-recorder dump
//!                       (incident<N>.json) that gstm-analyze ingests
//!   --duration SECS     keep the ops endpoint up until SECS after
//!                       process start (the campaign's final /metrics
//!                       body is frozen at completion, so late scrapes
//!                       equal the exported ops.prom byte-for-byte)
//! ```
//!
//! Any of `--serve`, `--slo` or `--duration` starts the live ops plane
//! ([`gstm_core::ops`]) before the campaign and attaches every guided
//! run's collector to it. At the end one `finish` stops the window
//! roller, freezes `/metrics`, and writes `ops.prom` plus one
//! `incident<N>.json` per incident into the telemetry directory
//! (`--telemetry=DIR`, else `--out`, else `results`).

#![forbid(unsafe_code)]

use gstm_core::ops::{OpsHandle, OpsPlane, SloSpec};
use gstm_core::{FaultPlan, GuidanceConfig, Telemetry};
use gstm_harness::experiment::{
    run_experiment_chaos, BenchExperiment, ExperimentConfig, Robustness,
};
use gstm_harness::game::{run_game_experiment, GameExperiment, GameExperimentConfig};
use gstm_harness::report::{self, Table};
use gstm_harness::{figures, tables};
use gstm_stamp::{all_benchmarks, Benchmark, InputSize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default input preset per benchmark, chosen so one run is long enough
/// for abort-driven timing effects to rise above host scheduling noise on
/// this reproduction's hardware (see EXPERIMENTS.md).
fn default_size(bench: &str) -> InputSize {
    match bench {
        "kmeans" => InputSize::Large,
        "genome" | "intruder" | "labyrinth" | "ssca2" => InputSize::Medium,
        _ => InputSize::Small,
    }
}

struct Options {
    command: String,
    threads: Vec<u16>,
    runs: usize,
    profile_runs: usize,
    benches: Option<Vec<String>>,
    size: Option<InputSize>,
    train_size: Option<InputSize>,
    players: u32,
    frames: u64,
    tfactor: f64,
    seed: u64,
    repeat: usize,
    out: Option<PathBuf>,
    /// `None` = telemetry off; `Some(None)` = on, write next to the CSVs;
    /// `Some(Some(dir))` = on, write into `dir`.
    telemetry: Option<Option<PathBuf>>,
    /// `Some(window)` = online model regeneration with that sliding
    /// window; `None` = fixed model.
    adaptive: Option<usize>,
    /// Profile-phase thread count override.
    profile_threads: Option<u16>,
    /// `--chaos=SEED[:PLAN]` spec for the deterministic fault plan armed
    /// during the guided phase; `None` = no injection.
    chaos: Option<String>,
    /// Gate every guided run through its own circuit breaker.
    breaker: bool,
    /// `--serve=ADDR`: bind the live ops endpoint there.
    serve: Option<String>,
    /// `--slo=SPEC`: watchdog rules; also turns the ops plane on.
    slo: Option<String>,
    /// `--duration=SECS`: hold the ops endpoint up this long.
    duration: Option<u64>,
}

impl Options {
    /// The STAMP experiments selected at `threads`: each benchmark
    /// `--bench` names (all when absent), with its config.
    fn experiments(&self, threads: u16) -> Vec<(Arc<dyn Benchmark>, ExperimentConfig)> {
        all_benchmarks()
            .into_iter()
            .filter(|b| {
                self.benches
                    .as_ref()
                    .is_none_or(|names| names.iter().any(|n| n == b.name()))
            })
            .map(|bench| {
                let size = self.size.unwrap_or_else(|| default_size(bench.name()));
                let cfg = ExperimentConfig {
                    threads,
                    profile_runs: self.profile_runs,
                    measure_runs: self.runs,
                    train_size: self.train_size.unwrap_or(size),
                    test_size: size,
                    yield_k: Some(2),
                    guidance: GuidanceConfig::with_tfactor(self.tfactor),
                    seed: self.seed,
                    adaptive: self.adaptive,
                    profile_threads: self.profile_threads,
                };
                (bench, cfg)
            })
            .collect()
    }
}

fn parse_size(s: &str) -> InputSize {
    match s {
        "small" => InputSize::Small,
        "medium" => InputSize::Medium,
        "large" => InputSize::Large,
        _ => {
            eprintln!("unknown size {s:?} (want small|medium|large)");
            std::process::exit(2);
        }
    }
}

/// Parse a flag's numeric value; malformed input is a usage error (exit
/// 2 with the offending flag named), never a panic.
fn parse_flag<T: std::str::FromStr>(flag: &str, val: &str) -> T {
    val.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {val:?}");
        std::process::exit(2);
    })
}

/// Split a `--bench` list, rejecting any name that is not a STAMP port.
fn parse_benches(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = list.split(',').map(str::to_string).collect();
    match names.iter().find(|n| gstm_stamp::by_name(n).is_none()) {
        None => Ok(names),
        Some(bad) => {
            let all = all_benchmarks();
            let valid: Vec<&str> = all.iter().map(|b| b.name()).collect();
            Err(format!(
                "unknown benchmark {bad:?} (want {})",
                valid.join("|")
            ))
        }
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        command: String::new(),
        threads: vec![8, 16],
        runs: 20,
        profile_runs: 12,
        benches: None,
        size: None,
        train_size: None,
        players: 192,
        frames: 96,
        tfactor: 4.0,
        seed: 0x5eed_cafe,
        repeat: 3,
        out: Some(PathBuf::from("results")),
        telemetry: None,
        adaptive: None,
        profile_threads: None,
        chaos: None,
        breaker: false,
        serve: None,
        slo: None,
        duration: None,
    };
    let next = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                opts.threads = next(&mut args, "--threads")
                    .split(',')
                    .map(|s| parse_flag("--threads", s))
                    .collect();
            }
            "--runs" => opts.runs = parse_flag("--runs", &next(&mut args, "--runs")),
            "--profile-runs" => {
                opts.profile_runs = parse_flag("--profile-runs", &next(&mut args, "--profile-runs"))
            }
            "--bench" => {
                let list = next(&mut args, "--bench");
                opts.benches = Some(parse_benches(&list).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }));
            }
            "--size" => opts.size = Some(parse_size(&next(&mut args, "--size"))),
            "--train-size" => {
                opts.train_size = Some(parse_size(&next(&mut args, "--train-size")))
            }
            "--players" => {
                opts.players = parse_flag("--players", &next(&mut args, "--players"))
            }
            "--frames" => opts.frames = parse_flag("--frames", &next(&mut args, "--frames")),
            "--tfactor" => {
                opts.tfactor = parse_flag("--tfactor", &next(&mut args, "--tfactor"))
            }
            "--seed" => opts.seed = parse_flag("--seed", &next(&mut args, "--seed")),
            "--repeat" => {
                opts.repeat = parse_flag("--repeat", &next(&mut args, "--repeat"))
            }
            "--out" => opts.out = Some(PathBuf::from(next(&mut args, "--out"))),
            "--no-csv" => opts.out = None,
            "--telemetry" => opts.telemetry = Some(None),
            s if s.starts_with("--telemetry=") => {
                opts.telemetry = Some(Some(PathBuf::from(&s["--telemetry=".len()..])));
            }
            "--adaptive" => opts.adaptive = Some(4096),
            s if s.starts_with("--adaptive=") => {
                opts.adaptive =
                    Some(parse_flag("--adaptive", &s["--adaptive=".len()..]));
            }
            "--chaos" => opts.chaos = Some(next(&mut args, "--chaos")),
            s if s.starts_with("--chaos=") => {
                opts.chaos = Some(s["--chaos=".len()..].to_string());
            }
            "--breaker" => opts.breaker = true,
            "--serve" => opts.serve = Some(next(&mut args, "--serve")),
            s if s.starts_with("--serve=") => {
                opts.serve = Some(s["--serve=".len()..].to_string());
            }
            "--slo" => opts.slo = Some(next(&mut args, "--slo")),
            s if s.starts_with("--slo=") => {
                opts.slo = Some(s["--slo=".len()..].to_string());
            }
            "--duration" => {
                opts.duration =
                    Some(parse_flag("--duration", &next(&mut args, "--duration")))
            }
            s if s.starts_with("--duration=") => {
                opts.duration =
                    Some(parse_flag("--duration", &s["--duration=".len()..]));
            }
            "--profile-threads" => {
                opts.profile_threads =
                    Some(parse_flag("--profile-threads", &next(&mut args, "--profile-threads")))
            }
            "help" | "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            cmd if opts.command.is_empty() && !cmd.starts_with('-') => {
                opts.command = cmd.to_string();
            }
            other => {
                eprintln!("unknown argument {other:?}; try `gstm-repro help`");
                std::process::exit(2);
            }
        }
    }
    if opts.command.is_empty() {
        opts.command = "all".into();
    }
    opts
}

fn print_help() {
    // A short form of the module-doc manual.
    println!(
        "gstm-repro — regenerate the paper's tables and figures\n\n\
         commands: table1 table2 table3 table4 table5 fig4 fig5 fig6 fig7\n\
         \x20         fig8 fig9 fig10 fig11 fig12 stamp synquake summary repeated inspect all\n\n\
         options: --threads A,B --runs N --profile-runs N --repeat N --bench a,b\n\
         \x20        --size s --train-size s --players N --frames N\n\
         \x20        --tfactor F --seed X --out DIR --no-csv --telemetry[=DIR]\n\
         \x20        --adaptive[=W] --profile-threads N --chaos SEED[:PLAN] --breaker\n\
         \x20        --serve ADDR --slo SPEC --duration SECS"
    );
}

/// Lazily computed experiment results shared by the commands of one
/// invocation.
struct Campaign {
    opts: Options,
    /// Chaos plumbing parsed once from `--chaos`/`--breaker`; one shared
    /// fault plan so injection counters accumulate across the campaign.
    robust: Robustness,
    /// Live ops plane (`--serve`/`--slo`/`--duration`); every per-run
    /// telemetry collector is attached here so live scrapes see one
    /// monotone cumulative view across the whole campaign.
    ops: Option<Arc<OpsPlane>>,
    stamp: HashMap<u16, Vec<BenchExperiment>>,
    games: Vec<GameExperiment>,
}

impl Campaign {
    fn new(opts: Options) -> Self {
        let faults = opts.chaos.as_deref().map(|spec| {
            match FaultPlan::parse_spec(spec) {
                Ok(plan) => Arc::new(plan),
                Err(e) => {
                    eprintln!("bad --chaos spec: {e}");
                    std::process::exit(2);
                }
            }
        });
        let robust = Robustness {
            faults,
            breaker: opts.breaker,
        };
        Campaign {
            opts,
            robust,
            ops: None,
            stamp: HashMap::new(),
            games: Vec::new(),
        }
    }

    fn stamp_for(&mut self, threads: u16) -> &[BenchExperiment] {
        if !self.stamp.contains_key(&threads) {
            let mut exps = Vec::new();
            for (bench, cfg) in self.opts.experiments(threads) {
                eprintln!("[gstm-repro] running {} @ {threads} threads ...", bench.name());
                // Collectors exist when artifacts were requested
                // (--telemetry) or the live ops plane is on
                // (--serve/--slo); the ops plane only needs counters, so
                // without --telemetry the tracer rings are sized to zero.
                let want_artifacts = self.opts.telemetry.is_some();
                let exp = if want_artifacts || self.ops.is_some() {
                    let dir = self
                        .opts
                        .telemetry
                        .clone()
                        .flatten()
                        .or_else(|| self.opts.out.clone())
                        .unwrap_or_else(|| PathBuf::from("results"));
                    // One collector per guided run, so repetition r+1
                    // does not overwrite repetition r's artifacts and
                    // gstm-analyze sees every run. The ring must hold a
                    // whole repetition: gstm-analyze's non-determinism
                    // (one traced state per commit) and abort-tail
                    // cross-checks degrade to "skipped" the moment one
                    // event is overwritten (default capacity wraps on the
                    // reference workloads' ~50k events/thread).
                    const TRACE_CAP_PER_THREAD: usize = 1 << 17;
                    let trace_cap = if want_artifacts { TRACE_CAP_PER_THREAD } else { 0 };
                    let tels: Vec<Arc<Telemetry>> = (0..cfg.measure_runs)
                        .map(|_| Arc::new(Telemetry::with_trace_capacity(trace_cap)))
                        .collect();
                    let ops = self.ops.clone();
                    let e = run_experiment_chaos(
                        &*bench,
                        &cfg,
                        |r| {
                            let tel = tels.get(r).cloned();
                            // The outgoing collector folds into the ops
                            // plane's cumulative base, so live /metrics
                            // totals stay monotone across repetitions.
                            if let (Some(ops), Some(tel)) = (ops.as_ref(), tel.as_ref()) {
                                ops.attach(tel);
                            }
                            tel
                        },
                        &self.robust,
                    );
                    // Each run's snapshot must agree with the harness's
                    // own accounting for that run; a divergence means an
                    // instrumentation hole, so say so loudly. A panicked
                    // guided rep's collector is skipped, and the runs
                    // that succeeded are numbered run0, run1, ... in order.
                    for (r, rep) in e.guided_m.ok_reps().enumerate() {
                        let tel = &tels[rep];
                        let snap = tel.snapshot();
                        let hists = &e.guided_m.per_run_hists[r];
                        let hc: u64 = hists.iter().map(|h| h.total_commits()).sum();
                        let ha: u64 = hists.iter().map(|h| h.total_aborts()).sum();
                        if snap.commits != hc || snap.aborts_total() != ha {
                            eprintln!(
                                "[gstm-repro] WARNING: run {r} telemetry totals diverge \
                                 from harness counts (commits {}/{hc}, aborts {}/{ha})",
                                snap.commits,
                                snap.aborts_total(),
                            );
                        }
                        if !want_artifacts {
                            continue;
                        }
                        let stem =
                            format!("{}_{}t_run{r}_telemetry", bench.name(), threads);
                        match report::save_telemetry(&dir, &stem, tel) {
                            Ok(paths) => {
                                for p in paths {
                                    eprintln!("[gstm-repro] wrote {}", p.display());
                                }
                            }
                            Err(err) => eprintln!(
                                "[gstm-repro] failed to write telemetry {stem}: {err}"
                            ),
                        }
                    }
                    if want_artifacts {
                        match report::save_run_metrics(&dir, &e) {
                            Ok(paths) => {
                                for p in paths {
                                    eprintln!("[gstm-repro] wrote {}", p.display());
                                }
                            }
                            Err(err) => {
                                eprintln!("[gstm-repro] failed to write run metrics: {err}")
                            }
                        }
                    }
                    // The drift tracker is shared across runs, so the
                    // last run's snapshot carries the full-campaign
                    // model-drift report.
                    if let Some(d) =
                        tels.last().and_then(|t| t.snapshot().model_drift)
                    {
                        eprint!("[gstm-repro] {}", d.render());
                    }
                    e
                } else {
                    run_experiment_chaos(&*bench, &cfg, |_| None, &self.robust)
                };
                if self.opts.adaptive.is_some() {
                    eprintln!(
                        "[gstm-repro] {} @ {threads}t: {} model swap(s) during guided runs",
                        bench.name(),
                        exp.model_swaps
                    );
                }
                if self.robust.faults.is_some() || self.robust.breaker {
                    let failed =
                        exp.default_m.failed.len() + exp.guided_m.failed.len();
                    eprintln!(
                        "[gstm-repro] {} @ {threads}t degradation: {} breaker trip(s), \
                         {} re-close(s), model rejected: {}, failed rep(s): {}{}",
                        bench.name(),
                        exp.breaker_trips,
                        exp.breaker_recloses,
                        exp.model_rejected,
                        failed,
                        self.robust
                            .faults
                            .as_ref()
                            .map(|f| format!(", {} fault(s) injected so far", f.injected_total()))
                            .unwrap_or_default(),
                    );
                }
                exps.push(exp);
            }
            self.stamp.insert(threads, exps);
        }
        &self.stamp[&threads]
    }

    fn stamp_pair(&mut self) -> (Vec<BenchExperiment>, Vec<BenchExperiment>) {
        let ts = self.opts.threads.clone();
        let t8 = ts.first().copied().unwrap_or(8);
        let t16 = ts.get(1).copied().unwrap_or(t8);
        let a = self.stamp_for(t8).to_vec();
        let b = if t16 == t8 {
            a.clone()
        } else {
            self.stamp_for(t16).to_vec()
        };
        (a, b)
    }

    fn games(&mut self) -> &[GameExperiment] {
        if self.games.is_empty() {
            for &threads in &self.opts.threads.clone() {
                eprintln!("[gstm-repro] running SynQuake @ {threads} threads ...");
                let cfg = GameExperimentConfig {
                    threads,
                    players: self.opts.players,
                    train_frames: self.opts.frames / 2,
                    test_frames: self.opts.frames,
                    yield_k: Some(2),
                    guidance: GuidanceConfig::with_tfactor(self.opts.tfactor),
                    seed: self.opts.seed,
                };
                let game = run_game_experiment(&cfg);
                let failures = game.audit_failures();
                for (quest, mode, n) in &failures {
                    eprintln!(
                        "[gstm-repro] SynQuake world audit failed: {quest} {mode} @ {threads} threads: {n} violations"
                    );
                }
                if !failures.is_empty() {
                    std::process::exit(1);
                }
                self.games.push(game);
            }
        }
        &self.games
    }

    fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        if let Some(dir) = &self.opts.out {
            if let Err(e) = table.save_csv(dir, name) {
                eprintln!("[gstm-repro] failed to write {name}.csv: {e}");
            }
        }
    }
}

/// Start the ops plane when any of `--serve`/`--slo`/`--duration` is
/// present: parse the SLO spec, then start the window roller and, with
/// `--serve`, the endpoint.
fn start_ops(opts: &Options) -> Option<OpsHandle> {
    if opts.serve.is_none() && opts.slo.is_none() && opts.duration.is_none() {
        return None;
    }
    let spec = SloSpec::parse(opts.slo.as_deref().unwrap_or("")).unwrap_or_else(|e| {
        eprintln!("bad --slo: {e}");
        std::process::exit(2);
    });
    let addr = opts.serve.as_deref();
    let handle = OpsPlane::new(spec).start(addr).unwrap_or_else(|e| {
        eprintln!("failed to bind --serve={}: {e}", addr.unwrap_or_default());
        std::process::exit(2);
    });
    if let Some(addr) = handle.addr() {
        eprintln!("[gstm-repro] ops endpoint on http://{addr} (/metrics /health /vars /incidents)");
    }
    Some(handle)
}

/// Campaign's over: finish the plane (exporting `ops.prom` and
/// `incident<N>.json` next to the telemetry), then hold the endpoint up
/// until `--duration` elapses after process start (serving the frozen
/// body, so a late scrape equals the exported file exactly).
fn finish_ops(mut ops: OpsHandle, opts: &Options, started: Instant) {
    let dir = opts
        .telemetry
        .clone()
        .flatten()
        .or_else(|| opts.out.clone())
        .unwrap_or_else(|| PathBuf::from("results"));
    match ops.finish(&dir) {
        Ok(report) => {
            for p in report.written {
                eprintln!("[gstm-repro] wrote {}", p.display());
            }
            if let Err(e) = report.partition {
                eprintln!("[gstm-repro] WARNING: {e}");
            }
        }
        Err(e) => eprintln!("[gstm-repro] failed to write ops artifacts: {e}"),
    }
    let plane = ops.plane();
    eprintln!(
        "[gstm-repro] ops: SLO {} after {} window(s), {} breached, {} incident(s)",
        plane.state().label(),
        plane.windows_closed(),
        plane.breached_windows(),
        plane.incidents().len(),
    );
    if let (Some(addr), Some(secs)) = (ops.addr(), opts.duration) {
        let deadline = started + Duration::from_secs(secs);
        let now = Instant::now();
        if now < deadline {
            eprintln!(
                "[gstm-repro] holding ops endpoint http://{addr} until --duration={secs}s elapses ..."
            );
            std::thread::sleep(deadline - now);
        }
    }
}

fn main() {
    let opts = parse_args();
    let command = opts.command.clone();
    let threads = opts.threads.clone();
    let t_lo = threads.first().copied().unwrap_or(8);
    let t_hi = threads.get(1).copied().unwrap_or(t_lo);
    let started = Instant::now();
    let ops = start_ops(&opts);
    let mut c = Campaign::new(opts);
    c.ops = ops.as_ref().map(|h| Arc::clone(h.plane()));

    let run_stamp_cmd = |c: &mut Campaign, which: &str| {
        let (e8, e16) = c.stamp_pair();
        // One column group per distinct thread count.
        let mut cols: Vec<tables::Column> = vec![(t_lo, &e8)];
        if t_hi != t_lo {
            cols.push((t_hi, &e16));
        }
        match which {
            "summary" => c.emit("summary", &tables::summary(&figures::each_once(&e8, &e16))),
            "table1" => c.emit("table1", &tables::table1(&cols)),
            "table3" => c.emit("table3", &tables::table3(&cols)),
            "table4" => c.emit("table4", &tables::table4(&cols)),
            "fig4" => c.emit("fig4", &figures::fig_variance(&e8, t_lo, 4)),
            "fig5" => c.emit("fig5", &figures::fig_abort_tail(&e8, t_lo, 5)),
            "fig6" => c.emit("fig6", &figures::fig_variance(&e16, t_hi, 6)),
            "fig7" => c.emit("fig7", &figures::fig_abort_tail(&e16, t_hi, 7)),
            "fig8" => c.emit("fig8", &figures::fig8_ssca2(&e8, &e16)),
            "fig9" => c.emit("fig9", &figures::fig9_nondeterminism(&e8, &e16)),
            "fig10" => c.emit("fig10", &figures::fig10_slowdown(&e8, &e16)),
            "stamp" => {
                c.emit("table1", &tables::table1(&cols));
                c.emit("table3", &tables::table3(&cols));
                c.emit("table4", &tables::table4(&cols));
                c.emit("fig4", &figures::fig_variance(&e8, t_lo, 4));
                c.emit("fig5", &figures::fig_abort_tail(&e8, t_lo, 5));
                c.emit("fig6", &figures::fig_variance(&e16, t_hi, 6));
                c.emit("fig7", &figures::fig_abort_tail(&e16, t_hi, 7));
                c.emit("fig8", &figures::fig8_ssca2(&e8, &e16));
                c.emit("fig9", &figures::fig9_nondeterminism(&e8, &e16));
                c.emit("fig10", &figures::fig10_slowdown(&e8, &e16));
            }
            _ => unreachable!(),
        }
    };
    let run_game_cmd = |c: &mut Campaign, which: &str| {
        let games = c.games().to_vec();
        match which {
            "table5" => c.emit("table5", &tables::table5(&games)),
            "fig11" => c.emit("fig11", &figures::fig_synquake(&games, true)),
            "fig12" => c.emit("fig12", &figures::fig_synquake(&games, false)),
            "synquake" => {
                c.emit("table5", &tables::table5(&games));
                c.emit("fig11", &figures::fig_synquake(&games, true));
                c.emit("fig12", &figures::fig_synquake(&games, false));
            }
            _ => unreachable!(),
        }
    };

    match command.as_str() {
        "inspect" => {
            // Train a model for one benchmark (default kmeans, override
            // with --bench) and print its hottest states, Figure 3-style.
            let name = c
                .opts
                .benches
                .as_ref()
                .and_then(|b| b.first().cloned())
                .unwrap_or_else(|| "kmeans".into());
            let threads = c.opts.threads.first().copied().unwrap_or(8);
            let (bench, cfg) = c
                .opts
                .experiments(threads)
                .into_iter()
                .find(|(b, _)| b.name() == name)
                .expect("--bench names are checked at parse time");
            eprintln!("[gstm-repro] training {name} @ {threads} threads ...");
            let model = gstm_harness::experiment::train_model(&*bench, &cfg);
            println!("{}", figures::fig3_excerpt(&model, 6));
        }
        "repeated" => {
            // Mean ± sd over full pipeline repeats — the statistically
            // honest view on a noisy host. Uses --repeat (default 3).
            let mut aggs = Vec::new();
            for &threads in &c.opts.threads {
                for (bench, cfg) in c.opts.experiments(threads) {
                    eprintln!(
                        "[gstm-repro] repeating {} @ {threads} threads x{} ...",
                        bench.name(),
                        c.opts.repeat
                    );
                    aggs.push(gstm_harness::experiment::run_repeated(
                        &*bench,
                        &cfg,
                        c.opts.repeat,
                    ));
                }
            }
            c.emit("repeated", &tables::repeated_summary(&aggs));
        }
        "table2" => c.emit("table2", &tables::table2()),
        "table1" | "table3" | "table4" | "fig4" | "fig5" | "fig6" | "fig7" | "fig8" | "fig9"
        | "fig10" | "stamp" | "summary" => run_stamp_cmd(&mut c, &command),
        "table5" | "fig11" | "fig12" | "synquake" => run_game_cmd(&mut c, &command),
        "all" => {
            c.emit("table2", &tables::table2());
            run_stamp_cmd(&mut c, "stamp");
            run_game_cmd(&mut c, "synquake");
        }
        other => {
            eprintln!("unknown command {other:?}");
            print_help();
            std::process::exit(2);
        }
    }

    if let Some(ops) = ops {
        finish_ops(ops, &c.opts, started);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_list_rejects_unknown_names() {
        assert_eq!(
            parse_benches("kmeans,genome").unwrap(),
            ["kmeans", "genome"]
        );
        let err = parse_benches("kmeans,nosuch").unwrap_err();
        assert!(err.contains("\"nosuch\""), "{err}");
        assert!(err.contains("kmeans|"), "lists the valid names: {err}");
    }
}
