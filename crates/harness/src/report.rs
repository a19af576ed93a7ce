//! Rendering helpers: fixed-width ASCII tables, CSV emission, and
//! telemetry artifact files (Prometheus exposition, JSONL trace, chrome
//! trace).

use crate::experiment::BenchExperiment;
use gstm_core::Telemetry;
use std::fmt::Write as _;
use std::path::Path;

/// A simple fixed-width table renderer.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub(crate) fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are already formatted).
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to an ASCII string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |out: &mut String, cells: &[String]| {
            let mut s = String::from("|");
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(s, " {cell:<w$} |", w = w);
            }
            let _ = writeln!(out, "{s}");
        };
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let _ = writeln!(out, "{sep}");
        line(&mut out, &self.header);
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            line(&mut out, row);
        }
        let _ = writeln!(out, "{sep}");
        out
    }

    /// Render to CSV (header + rows). A cell holding a comma, a quote or
    /// a line break is quoted (`"` doubled), so a multi-line panic cause
    /// stays one field.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|s| esc(s)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV form into `dir/name.csv` (creating `dir`).
    pub fn save_csv(&self, dir: &Path, name: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }
}

/// Write one experiment's telemetry artifacts into `dir` (creating it):
/// `{stem}.prom` (Prometheus text exposition), `{stem}.jsonl` (one trace
/// event per line), and `{stem}.trace.json` (chrome://tracing / Perfetto
/// format). Returns the paths written.
pub fn save_telemetry(
    dir: &Path,
    stem: &str,
    tel: &Telemetry,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let prom = dir.join(format!("{stem}.prom"));
    std::fs::write(&prom, tel.snapshot().render_prometheus())?;
    let mut written = vec![prom];
    if tel.trace_enabled() {
        let events = tel.trace_events();
        let jsonl = dir.join(format!("{stem}.jsonl"));
        std::fs::write(&jsonl, gstm_core::telemetry::export_jsonl(&events))?;
        written.push(jsonl);
        let chrome = dir.join(format!("{stem}.trace.json"));
        std::fs::write(&chrome, gstm_core::telemetry::export_chrome_trace(&events))?;
        written.push(chrome);
    }
    Ok(written)
}

/// Write the guided phase's per-run accounting next to the telemetry
/// artifacts (creating `dir`): `<bench>_<threads>t_runs.csv` with one
/// row per guided run per thread (`run,thread,secs,commits,aborts`) and
/// `<bench>_<threads>t_guided_summary.csv` with the harness-computed
/// cross-run metrics (`metric,thread,value` — per-thread execution-time
/// standard deviation and abort-tail metric, plus the scalar
/// non-determinism and commit/abort totals). `gstm-analyze` recomputes
/// the same quantities from the exported telemetry and cross-checks
/// them against these files. Returns the paths written.
pub fn save_run_metrics(
    dir: &Path,
    exp: &BenchExperiment,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let g = &exp.guided_m;
    let mut runs = Table::new("runs", &["run", "thread", "secs", "commits", "aborts"]);
    for (r, (times, hists)) in g.per_thread_times.iter().zip(&g.per_run_hists).enumerate() {
        for (t, (secs, hist)) in times.iter().zip(hists).enumerate() {
            runs.row(vec![
                r.to_string(),
                t.to_string(),
                format!("{secs:.9}"),
                hist.total_commits().to_string(),
                hist.total_aborts().to_string(),
            ]);
        }
    }
    let mut summary = Table::new("guided_summary", &["metric", "thread", "value"]);
    for (t, sd) in g.per_thread_std_dev().iter().enumerate() {
        summary.row(vec!["std_dev_secs".into(), t.to_string(), format!("{sd:.9}")]);
    }
    for (t, tail) in g.per_thread_tails().iter().enumerate() {
        summary.row(vec!["tail_metric".into(), t.to_string(), tail.to_string()]);
    }
    summary.row(vec!["non_determinism".into(), String::new(), g.non_determinism.to_string()]);
    summary.row(vec!["commits".into(), String::new(), g.total_commits().to_string()]);
    summary.row(vec!["aborts".into(), String::new(), g.total_aborts().to_string()]);
    let stem = format!("{}_{}t", exp.name, exp.threads);
    let runs_path = dir.join(format!("{stem}_runs.csv"));
    std::fs::write(&runs_path, runs.to_csv())?;
    let summary_path = dir.join(format!("{stem}_guided_summary.csv"));
    std::fs::write(&summary_path, summary.to_csv())?;
    // Campaign casualties (always written — an empty table means every
    // repetition completed, a missing file means a pre-chaos artifact
    // dir). One row per panicked repetition with its phase and cause;
    // `gstm-analyze` folds these into the degradation section of the
    // verdict.
    let mut failures = Table::new("failures", &["phase", "rep", "cause"]);
    for (phase, m) in [("default", &exp.default_m), ("guided", &exp.guided_m)] {
        for f in &m.failed {
            failures.row(vec![phase.into(), f.rep.to_string(), f.cause.clone()]);
        }
    }
    let failures_path = dir.join(format!("{stem}_failures.csv"));
    std::fs::write(&failures_path, failures.to_csv())?;
    Ok(vec![runs_path, summary_path, failures_path])
}

/// Format a float with 1 decimal.
pub(crate) fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 4 decimals (timings).
pub(crate) fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| alpha | 1     |"));
        assert!(s.contains("| b     | 12345 |"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn save_csv_writes_file() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("gstm_report_test");
        t.save_csv(&dir, "demo").unwrap();
        let body = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(body, "a\n1\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
