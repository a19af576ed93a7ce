//! `gstm-mck` — exhaustive-interleaving model checker for the guidance
//! protocol (guided gate + circuit breaker + EpochCell hot-swap).
//!
//! Three modes:
//!
//! * **Explore** (default): enumerate every interleaving of the configured
//!   bounded model with DPOR, then of its fixed-model twin (the same
//!   geometry gated by a fixed model, with the early release), check all
//!   invariants, and report the state count, the measured POR reduction
//!   factor and a verdict for each. Exit 0 when both are clean, 2 on a
//!   violation (emitted to `--emit=PATH` when given).
//! * **Mutate** (`--mutate=SITE` or `--mutate=all`): flip one protocol
//!   decision and *demand* a violation — the checker proving it has teeth.
//!   A site that exists only on a fixed-model hook runs on the twin.
//!   Exit 0 when every requested site is caught with a counterexample that
//!   replays bit-identically, 2 when any site survives.
//! * **Replay** (`--replay=PATH`): parse a counterexample file, replay it,
//!   and verify the violation and trace fingerprint match the file bit for
//!   bit. Exit 0 on an identical reproduction, 2 on divergence.
//!
//! Only `std` is used; the model lives in `gstm_core::mck`.

use std::process::ExitCode;

use gstm_core::mck::{explore, Counterexample, ExploreOptions, ExploreReport, MckConfig, Mutation};

const USAGE: &str = "\
gstm-mck — exhaustive-interleaving model checker for the guidance protocol

USAGE:
  gstm-mck [OPTIONS]                 explore the configured model
  gstm-mck --mutate=SITE [OPTIONS]   flip one decision, demand a counterexample
  gstm-mck --replay=PATH             replay a counterexample file bit-identically

MODEL OPTIONS (default: the CI configuration, 3 threads x 2 windows; explore
mode also checks its fixed-model twin, which has no hot-swaps):
  --threads=N      logical worker threads (1..=16)       [default 3]
  --windows=N      transactions per thread (1..=8)       [default 2]
  --txns=N         distinct transaction ids              [default 1]
  --k=N            gate retry budget k_retries (1..=8)   [default 1]
  --abort-mask=M   bit t*windows+w => thread t aborts window w once  [default 0x1]
  --swaps=N        model hot-swaps the manager may run   [default 1]
  --tfactor=F      guidance threshold factor             [default 4]
  --no-breaker     run without the circuit breaker
  --no-adapt       run without the hot-swap manager (swaps=0)

SEARCH OPTIONS:
  --no-por         disable the reductions (still state-merging)
  --no-naive       skip the exact naive interleaving count
  --max-states=N   truncate the search after N states    [default 50000000]

OUTPUT:
  --emit=PATH      write the counterexample file here (explore/mutate modes)
  --mutate=all     check every mutation site in sequence
  -q               only the verdict lines
  -h, --help       this text

EXIT CODES: 0 verified as expected; 1 usage or I/O error; 2 verification failed.";

fn fail(msg: &str) -> ExitCode {
    eprintln!("gstm-mck: {msg}");
    ExitCode::from(1)
}

struct Cli {
    cfg: MckConfig,
    opts: ExploreOptions,
    mutate: Option<Vec<Mutation>>,
    emit: Option<String>,
    replay: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cfg = MckConfig::ci();
    let mut opts = ExploreOptions::default();
    let mut mutate = None;
    let mut emit = None;
    let mut replay = None;
    let mut quiet = false;
    for arg in std::env::args().skip(1) {
        let (key, val) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg.clone(), None),
        };
        let want = |v: &Option<String>| {
            v.clone().ok_or_else(|| format!("{key} needs =VALUE"))
        };
        let num = |v: &Option<String>| -> Result<u64, String> {
            let s = want(v)?;
            let r = if let Some(h) = s.strip_prefix("0x") {
                u64::from_str_radix(h, 16)
            } else {
                s.parse()
            };
            r.map_err(|_| format!("bad number for {key}: {s:?}"))
        };
        match key.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "-q" => quiet = true,
            "--threads" => cfg.threads = num(&val)? as u16,
            "--windows" => cfg.windows = num(&val)? as u16,
            "--txns" => cfg.txns = num(&val)? as u16,
            "--k" => cfg.k_retries = num(&val)? as u32,
            "--abort-mask" => cfg.abort_mask = num(&val)?,
            "--swaps" => cfg.swaps = num(&val)? as u32,
            "--tfactor" => {
                let s = want(&val)?;
                cfg.tfactor = s.parse().map_err(|_| format!("bad tfactor {s:?}"))?;
            }
            "--no-breaker" => cfg.breaker = None,
            "--no-adapt" => cfg.swaps = 0,
            "--no-por" => opts.por = false,
            "--no-naive" => opts.count_naive = false,
            "--max-states" => opts.max_states = num(&val)?,
            "--emit" => emit = Some(want(&val)?),
            "--replay" => replay = Some(want(&val)?),
            "--mutate" => {
                let s = want(&val)?;
                mutate = Some(if s == "all" {
                    Mutation::ALL.to_vec()
                } else {
                    vec![Mutation::parse(&s).ok_or_else(|| {
                        let names: Vec<_> =
                            Mutation::ALL.iter().map(|m| m.name()).collect();
                        format!("unknown mutation {s:?} (sites: {}, all)", names.join(", "))
                    })?]
                });
            }
            other => return Err(format!("unknown option {other:?} (see --help)")),
        }
    }
    cfg.validate()?;
    Ok(Some(Cli { cfg, opts, mutate, emit, replay, quiet }))
}

fn print_report(cfg: &MckConfig, r: &ExploreReport, quiet: bool) {
    if !quiet {
        println!(
            "model: threads={} windows={} txns={} k={} abort-mask={:#x} swaps={} breaker={} \
             gating={} mutation={}",
            cfg.threads,
            cfg.windows,
            cfg.txns,
            cfg.k_retries,
            cfg.abort_mask,
            cfg.swaps,
            if cfg.breaker.is_some() { "on" } else { "off" },
            if cfg.fixed_model { "fixed" } else { "adaptive" },
            cfg.mutation.map(|m| m.name()).unwrap_or("none"),
        );
        println!(
            "explored: states={} transitions={} complete-paths={} sleep-skips={} persistent-hits={}{}",
            r.states,
            r.transitions,
            r.complete_paths,
            r.sleep_skips,
            r.persistent_hits,
            if r.truncated { " TRUNCATED" } else { "" },
        );
        if let (Some(n), Some(s)) = (r.naive_interleavings, r.naive_states) {
            println!("naive: interleavings={n} states={s}");
        }
    }
    if let Some(f) = r.reduction_factor {
        println!("reduction-factor: {f:.1}x (naive interleavings / explored transitions)");
    }
}

fn emit_counterexample(
    cfg: &MckConfig,
    schedule: Vec<u16>,
    violation: gstm_core::mck::Violation,
    emit: &Option<String>,
    quiet: bool,
) -> Result<(), String> {
    let ce = Counterexample::capture(cfg, schedule, violation)?;
    ce.verify().map_err(|e| format!("counterexample failed self-verify: {e}"))?;
    println!(
        "counterexample: {} steps, fingerprint {:#018x}, replays bit-identically",
        ce.schedule.len(),
        ce.fingerprint
    );
    if let Some(path) = emit {
        std::fs::write(path, ce.to_text()).map_err(|e| format!("write {path}: {e}"))?;
        if !quiet {
            println!("emitted: {path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(Some(c)) => c,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => return fail(&e),
    };

    // Replay mode: the file is the whole specification.
    if let Some(path) = &cli.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("read {path}: {e}")),
        };
        let ce = match Counterexample::parse(&text) {
            Ok(ce) => ce,
            Err(e) => return fail(&format!("parse {path}: {e}")),
        };
        return match ce.verify() {
            Ok(out) => {
                println!(
                    "replay: {} steps -> {} agent={} step={} fingerprint {:#018x} (bit-identical)",
                    out.steps,
                    ce.violation.kind.name(),
                    ce.violation.agent,
                    ce.violation.step,
                    out.fingerprint
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("replay FAILED: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Mutation mode: every requested site must yield a counterexample.
    if let Some(sites) = &cli.mutate {
        let mut all_caught = true;
        for (i, &m) in sites.iter().enumerate() {
            let cfg = cli.cfg.reaching(m);
            let r = explore(&cfg, cli.opts);
            print_report(&cfg, &r, cli.quiet);
            match r.violation {
                Some((schedule, v)) => {
                    println!(
                        "mutation {}: CAUGHT {} agent={} step={} ({})",
                        m.name(),
                        v.kind.name(),
                        v.agent,
                        v.step,
                        v.detail
                    );
                    // With several sites, suffix the emit path per site.
                    let emit = cli.emit.as_ref().map(|p| {
                        if sites.len() == 1 { p.clone() } else { format!("{p}.{}", m.name()) }
                    });
                    if let Err(e) = emit_counterexample(&cfg, schedule, v, &emit, cli.quiet) {
                        eprintln!("gstm-mck: {e}");
                        all_caught = false;
                    }
                }
                None => {
                    eprintln!(
                        "mutation {}: NOT CAUGHT{} — the checker has a blind spot",
                        m.name(),
                        if r.truncated { " (search truncated)" } else { "" }
                    );
                    all_caught = false;
                }
            }
            if !cli.quiet && i + 1 < sites.len() {
                println!();
            }
        }
        return if all_caught { ExitCode::SUCCESS } else { ExitCode::from(2) };
    }

    // Explore mode: the trunk protocol must be clean, under adaptive and
    // fixed-model gating alike.
    let mut code = ExitCode::SUCCESS;
    for (i, cfg) in [cli.cfg.clone(), cli.cfg.fixed_twin()].iter().enumerate() {
        if !cli.quiet && i > 0 {
            println!();
        }
        if !explore_clean(cfg, &cli) {
            code = ExitCode::from(2);
        }
    }
    code
}

/// Explore one configuration and print its verdict; true when clean.
fn explore_clean(cfg: &MckConfig, cli: &Cli) -> bool {
    let r = explore(cfg, cli.opts);
    print_report(cfg, &r, cli.quiet);
    match r.violation {
        None if r.truncated => {
            eprintln!("verdict: INCONCLUSIVE (truncated at {} states)", r.states);
            false
        }
        None => {
            println!("verdict: clean — all invariants hold in every interleaving");
            true
        }
        Some((schedule, v)) => {
            println!(
                "verdict: VIOLATION {} agent={} step={} ({})",
                v.kind.name(),
                v.agent,
                v.step,
                v.detail
            );
            if let Err(e) = emit_counterexample(cfg, schedule, v, &cli.emit, cli.quiet) {
                eprintln!("gstm-mck: {e}");
            }
            false
        }
    }
}
