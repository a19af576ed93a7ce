//! `gstm-server` — the overload-hardened SynQuake network server.
//!
//! Startup trains a guided model by self-play (the same
//! train-on-worst-case pipeline the harness uses), then serves the
//! world over TCP with admission control, the degradation ladder, and
//! the ops plane attached. `--chaos=SEED` arms the deterministic socket
//! fault plan; `--ticks=N` bounds the run for scripted campaigns.

use gstm_core::ops::{OpsPlane, SloSpec};
use gstm_core::prelude::*;
use gstm_libtm::{LibTm, LibTmConfig};
use gstm_server::admission::AdmissionConfig;
use gstm_server::engine::{Engine, EngineConfig};
use gstm_server::net::{self, NetConfig};
use gstm_server::signal;
use gstm_server::stats::ServerStats;
use gstm_synquake::{run_game, GameConfig, QuestLayout};
use std::io::Write as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

struct Options {
    port: u16,
    tick_ms: u64,
    max_sessions: usize,
    budget_us: u64,
    chaos: Option<String>,
    slo: Option<String>,
    ops_port: Option<u16>,
    out: PathBuf,
    ticks: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            port: 7777,
            tick_ms: 20,
            max_sessions: 64,
            budget_us: 2_000,
            chaos: None,
            slo: None,
            ops_port: None,
            out: PathBuf::from("results/server"),
            ticks: 0,
        }
    }
}

const USAGE: &str = "usage: gstm-server [options]
  --port=N           TCP port (default 7777)
  --tick-ms=N        tick cadence, ms (default 20)
  --max-sessions=N   session cap (default 64)
  --budget-us=N      tick budget, microseconds (default 2000)
  --chaos=SEED[:PLAN] arm the socket fault plan (plan default: socket)
  --slo=SPEC         SLO spec for the ops watchdog
  --ops-port=N       serve /metrics /health on this port
  --out=DIR          artifact directory (default results/server)
  --ticks=N          stop after N ticks (default: run until SIGINT)";

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, String> {
    val.parse().map_err(|_| format!("{key} wants a number, got {val:?}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    for arg in args {
        let (key, val) = match arg.split_once('=') {
            Some((k, v)) => (k, v),
            None => (arg.as_str(), ""),
        };
        match key {
            "--port" => o.port = parse_num(key, val)?,
            "--tick-ms" => o.tick_ms = parse_num(key, val)?,
            "--max-sessions" => o.max_sessions = parse_num(key, val)?,
            "--budget-us" => o.budget_us = parse_num(key, val)?,
            "--chaos" => o.chaos = Some(val.to_string()),
            "--slo" => o.slo = Some(val.to_string()),
            "--ops-port" => o.ops_port = Some(parse_num(key, val)?),
            "--out" => o.out = PathBuf::from(val),
            "--ticks" => o.ticks = parse_num(key, val)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ => return Err(format!("unknown flag {key:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

/// Self-play frames per training quest.
const TRAIN_FRAMES: u64 = 24;

/// Self-play training: record two training quests on a fixed world and
/// build their TSA. One thread, as the engine serves from one thread:
/// a multi-threaded self-play would train a different model in every
/// process.
fn train_tsa() -> Tsa {
    let recorder = Arc::new(RecorderHook::new());
    let mut runs = Vec::new();
    for quest in [QuestLayout::WorstCase4, QuestLayout::Moving4] {
        let tm = LibTm::with_hook(recorder.clone(), LibTmConfig::default());
        let cfg = GameConfig {
            threads: 1,
            players: 64,
            frames: TRAIN_FRAMES,
            quest,
            seed: 0x9a3e,
            ..GameConfig::default()
        };
        let _ = run_game(&tm, &cfg);
        runs.push(recorder.take_run());
    }
    Tsa::from_runs(&runs)
}

fn run(opts: Options) -> Result<(), String> {
    if !signal::install() {
        eprintln!("[gstm-server] no signal handler on this target; Ctrl-C will not drain");
    }

    // ---- fault plan ----
    let faults = match opts.chaos.as_deref() {
        Some(spec) => {
            let spec = if spec.contains(':') { spec.to_string() } else { format!("{spec}:socket") };
            let plan = FaultPlan::parse_spec(&spec).map_err(|e| format!("bad --chaos: {e}"))?;
            Some(Arc::new(plan.with_log()))
        }
        None => None,
    };

    // ---- model + STM runtime ----
    let guidance = GuidanceConfig::default();
    eprintln!("[gstm-server] training guided model ({TRAIN_FRAMES} frames/quest)...");
    let model = Arc::new(GuidedModel::build(train_tsa(), &guidance));
    let tel = Arc::new(Telemetry::new());
    let breaker = Arc::new(Breaker::new(BreakerConfig::default(), Some(tel.clone())));
    let hook = Arc::new(GuidedHook::with_robustness(
        model,
        guidance,
        Some(tel.clone()),
        None,
        Some(breaker.clone()),
        faults.clone(),
    ));
    let tm = LibTm::with_robustness(hook, LibTmConfig::default(), Some(tel.clone()), faults.clone());

    // ---- ops plane ----
    let spec = SloSpec::parse(opts.slo.as_deref().unwrap_or(""))
        .map_err(|e| format!("bad --slo: {e}"))?;
    let plane = OpsPlane::new(spec);
    plane.attach(&tel);
    let stats = Arc::new(ServerStats::new());
    plane.set_server_source(stats.clone());
    let addr = opts.ops_port.map(|p| format!("127.0.0.1:{p}"));
    let mut ops = plane
        .start(addr.as_deref())
        .map_err(|e| format!("failed to bind --ops-port={}: {e}", opts.ops_port.unwrap_or(0)))?;
    if let Some(a) = ops.addr() {
        eprintln!("[gstm-server] ops endpoint on http://{a} (/metrics /health)");
    }

    // ---- engine + socket loop ----
    let ecfg = EngineConfig {
        seed: faults.as_ref().map(|f| f.seed()).unwrap_or(0x9a3e),
        admission: AdmissionConfig {
            tick_budget: opts.budget_us,
            max_sessions: opts.max_sessions,
            ..AdmissionConfig::default()
        },
        // Chaos runs use the synthetic tick clock so the ladder
        // trajectory is a pure function of (seed, traffic).
        deterministic: faults.is_some(),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(ecfg, tm, Some(breaker.clone()), faults.clone(), stats.clone());
    let listener = TcpListener::bind(("127.0.0.1", opts.port))
        .map_err(|e| format!("failed to bind port {}: {e}", opts.port))?;
    let bound = listener.local_addr().map(|a| a.to_string()).unwrap_or_default();
    eprintln!("[gstm-server] serving on {bound}");
    let ncfg = NetConfig { tick_ms: opts.tick_ms, max_ticks: opts.ticks };
    let ticks = net::serve(&mut engine, listener, signal::stop_flag(), &ncfg, faults.clone())
        .map_err(|e| format!("socket loop failed: {e}"))?;

    // ---- drain + artifacts ----
    let report = ops.finish(&opts.out).map_err(|e| format!("cannot write ops artifacts: {e}"))?;
    if let Err(e) = report.partition {
        eprintln!("[gstm-server] WARNING: {e}");
    }
    for p in report.written {
        eprintln!("[gstm-server] wrote {}", p.display());
    }
    let audit = engine.world().audit();
    let ticks_path = opts.out.join("ticks.jsonl");
    let write_ticks = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&ticks_path)?);
        engine.write_ticks_jsonl(&mut f)?;
        f.flush()
    };
    write_ticks().map_err(|e| format!("cannot write {}: {e}", ticks_path.display()))?;
    if let Some(f) = &faults {
        let log: Vec<String> = f
            .log()
            .iter()
            .map(|r| format!("{} slot={} n={} entropy={:#x}", r.site.name(), r.slot, r.n, r.entropy))
            .collect();
        let fp = opts.out.join("faults.log");
        std::fs::write(&fp, log.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", fp.display()))?;
        eprintln!("[gstm-server] {} fault(s) fired, log at {}", log.len(), fp.display());
    }
    eprintln!(
        "[gstm-server] done: {ticks} tick(s), {} commit(s), rung {}, {} ladder move(s), \
         breaker {:?}, audit {}",
        engine.commits(),
        engine.rung().label(),
        stats.ladder_moves(),
        breaker.state(),
        audit,
    );
    if audit != 0 {
        return Err(format!("world audit failed: {audit} inconsistent cell(s)"));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(opts) {
        eprintln!("[gstm-server] error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::model_io;

    #[test]
    fn training_is_a_function_of_the_fixed_world() {
        let tsa = train_tsa();
        assert!(tsa.num_states() > 1, "training recorded states");
        assert_eq!(model_io::encode(&tsa), model_io::encode(&train_tsa()));
    }

    #[test]
    fn removed_knobs_are_unknown_flags() {
        for flag in [
            "--players=8",
            "--world-size=64",
            "--cell-size=8",
            "--items=4",
            "--train-frames=0",
        ] {
            let err = parse_args(&[flag.to_string()]).err().unwrap();
            assert!(err.starts_with("unknown flag"), "{flag}: {err}");
        }
    }
}
