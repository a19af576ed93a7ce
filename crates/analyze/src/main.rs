//! `gstm-analyze` — cross-run variance analyzer over telemetry artifacts.
//!
//! ```text
//! gstm-analyze --dir telemetry-out --bench kmeans --threads 4 \
//!     [--out DIR] [--tol 1e-6] [--max-cv-pct 40] [--max-nondet 100] \
//!     [--max-abort-ratio-pct 60] [--max-off-model-pct 50] [--fail-on-stale]
//!     [--fail-on-degraded] [--max-hot-addr-pct 80]
//! gstm-analyze --server-ticks PATH [--out DIR] \
//!     [--max-frame-cv-pct F] [--max-frame-p99-ms F]
//! ```
//!
//! Campaign mode reads `<bench>_<threads>t_run<r>_telemetry.{jsonl,prom}`
//! for r = 0.., plus `<bench>_<threads>t_runs.csv` and
//! `_guided_summary.csv`, from `--dir`. Server mode reads the
//! `ticks.jsonl` a `gstm-server` run exported and gates on per-tick shed
//! accounting, ladder sanity, and the optional frame-variance/p99
//! thresholds. Both write `<stem>_verdict.json` and `<stem>_report.md`
//! and print the markdown report. Exit code 0 when every check passes,
//! 1 on a failed check, 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use gstm_analyze::{
    analyze_dir, analyze_server_ticks, parse_ticks_jsonl, render_markdown, render_server_markdown,
    render_server_verdict_json, render_verdict_json, Check, Thresholds,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Cli {
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    bench: Option<String>,
    threads: Option<u32>,
    server_ticks: Option<PathBuf>,
    thresholds: Thresholds,
}

const USAGE: &str = "usage: gstm-analyze --dir DIR --bench NAME --threads N [--out DIR] \
[--tol F] [--max-cv-pct F] [--max-nondet N] [--max-abort-ratio-pct F] \
[--max-off-model-pct F] [--fail-on-stale] [--fail-on-degraded] [--max-hot-addr-pct F]
       gstm-analyze --server-ticks PATH [--out DIR] [--max-frame-cv-pct F] [--max-frame-p99-ms F]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        dir: None,
        out: None,
        bench: None,
        threads: None,
        server_ticks: None,
        thresholds: Thresholds::default(),
    };
    let th = &mut cli.thresholds;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a {what}"))
        };
        match arg.as_str() {
            "--dir" => cli.dir = Some(PathBuf::from(val("path")?)),
            "--out" => cli.out = Some(PathBuf::from(val("path")?)),
            "--bench" => cli.bench = Some(val("name")?.clone()),
            "--threads" => {
                cli.threads = Some(val("count")?.parse().map_err(|_| "bad --threads")?)
            }
            "--server-ticks" => cli.server_ticks = Some(PathBuf::from(val("path")?)),
            "--tol" => th.float_tol = val("float")?.parse().map_err(|_| "bad --tol")?,
            "--max-cv-pct" => {
                th.max_cv_pct = Some(val("float")?.parse().map_err(|_| "bad --max-cv-pct")?)
            }
            "--max-nondet" => {
                th.max_non_determinism =
                    Some(val("count")?.parse().map_err(|_| "bad --max-nondet")?)
            }
            "--max-abort-ratio-pct" => {
                th.max_abort_ratio_pct =
                    Some(val("float")?.parse().map_err(|_| "bad --max-abort-ratio-pct")?)
            }
            "--max-off-model-pct" => {
                th.max_off_model_pct =
                    Some(val("float")?.parse().map_err(|_| "bad --max-off-model-pct")?)
            }
            "--max-hot-addr-pct" => {
                th.max_hot_addr_pct =
                    Some(val("float")?.parse().map_err(|_| "bad --max-hot-addr-pct")?)
            }
            "--max-frame-cv-pct" => {
                th.max_frame_cv_pct =
                    Some(val("float")?.parse().map_err(|_| "bad --max-frame-cv-pct")?)
            }
            "--max-frame-p99-ms" => {
                th.max_frame_p99_ms =
                    Some(val("float")?.parse().map_err(|_| "bad --max-frame-p99-ms")?)
            }
            "--fail-on-stale" => th.fail_on_stale = true,
            "--fail-on-degraded" => th.fail_on_degraded = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if cli.server_ticks.is_none() && (cli.dir.is_none() || cli.bench.is_none() || cli.threads.is_none())
    {
        return Err(format!(
            "--dir, --bench and --threads are required (or use --server-ticks)\n{USAGE}"
        ));
    }
    Ok(cli)
}

/// Server mode: analyze one `ticks.jsonl`, write `server_verdict.json` +
/// `server_report.md` next to it (or into `--out`).
fn run_server_mode(cli: &Cli, path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gstm-analyze: reading {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let (rows, truncated) = match parse_ticks_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gstm-analyze: parsing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let (facts, checks) = analyze_server_ticks(&rows, truncated, &cli.thresholds);
    let out_dir = cli
        .out
        .clone()
        .or_else(|| path.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let verdict = render_server_verdict_json(&facts, &checks);
    let md = render_server_markdown(&facts, &checks);
    emit(&out_dir, "server", verdict, md, &checks)
}

/// Write `<stem>_verdict.json` and `<stem>_report.md` into `out_dir`,
/// print the report and a one-line verdict, and map the verdict to the
/// exit code.
fn emit(out_dir: &Path, stem: &str, verdict: String, md: String, checks: &[Check]) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("gstm-analyze: creating {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let verdict_path = out_dir.join(format!("{stem}_verdict.json"));
    let report_path = out_dir.join(format!("{stem}_report.md"));
    for (path, body) in [(&verdict_path, verdict), (&report_path, md.clone())] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("gstm-analyze: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{md}");
    let pass = checks.iter().all(|c| c.pass);
    println!();
    println!(
        "verdict: {} ({} checks) -> {}",
        if pass { "PASS" } else { "FAIL" },
        checks.len(),
        verdict_path.display()
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = cli.server_ticks.clone() {
        return run_server_mode(&cli, &path);
    }
    // Campaign mode: parse_cli guaranteed these are present.
    let (Some(dir), Some(bench), Some(threads)) = (&cli.dir, &cli.bench, cli.threads) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let stem = format!("{bench}_{threads}t");
    let report = match analyze_dir(dir, &stem, &cli.thresholds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gstm-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = cli.out.unwrap_or_else(|| dir.clone());
    let verdict = render_verdict_json(&report);
    emit(
        &out_dir,
        &stem,
        verdict,
        render_markdown(&report),
        &report.checks,
    )
}
