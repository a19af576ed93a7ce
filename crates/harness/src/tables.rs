//! Renderers for the paper's tables.

use crate::experiment::BenchExperiment;
use crate::game::GameExperiment;
use crate::report::{f1, Table};

/// One column group of a STAMP table: a thread count and the
/// experiments run at it.
pub type Column<'a> = (u16, &'a [BenchExperiment]);

/// A STAMP table: one row per benchmark of the first column and, under
/// each column's "N threads" heading followed by `extra` headings, the
/// cells `cells` renders from that thread count's experiment (blank where
/// the benchmark did not run at it).
fn per_thread_count(
    title: &str,
    cols: &[Column],
    extra: &[&str],
    cells: impl Fn(&BenchExperiment) -> Vec<String>,
) -> Table {
    let mut header = vec!["Application".to_string()];
    for (threads, _) in cols {
        header.push(format!("{threads} threads"));
        header.extend(extra.iter().map(|h| h.to_string()));
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header);
    let first = cols.first().map_or(&[][..], |&(_, exps)| exps);
    for e in first {
        let mut row = vec![e.name.to_string()];
        for (_, exps) in cols {
            match exps.iter().find(|s| s.name == e.name) {
                Some(s) => row.extend(cells(s)),
                None => row.extend(std::iter::repeat_n(String::new(), 1 + extra.len())),
            }
        }
        t.row(row);
    }
    t
}

/// Table I: model analyzer guidance metric percentage (lower is better),
/// one column per thread count.
pub fn table1(cols: &[Column]) -> Table {
    per_thread_count(
        "Table I: model analyzer guidance metric % (lower is better)",
        cols,
        &[],
        |e| vec![f1(e.analyzer.guidance_metric_pct)],
    )
}

/// Table II: configuration of the machine used for the experiments.
/// (The paper lists its two testbeds; we report the actual host.)
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table II: configuration of the machine used for experiments",
        &["Feature", "value"],
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    t.row(vec!["Core count".into(), cores]);
    t.row(vec!["OS".into(), std::env::consts::OS.to_string()]);
    t.row(vec!["Arch".into(), std::env::consts::ARCH.to_string()]);
    t.row(vec![
        "Concurrency substitute".into(),
        "oversubscribed threads + yield injection (see DESIGN.md)".into(),
    ]);
    t
}

/// Table III: number of states in each application's model.
pub fn table3(cols: &[Column]) -> Table {
    let kb = |bytes: usize| format!("{:.1} KB", bytes as f64 / 1024.0);
    per_thread_count(
        "Table III: number of states in the model (+ encoded size)",
        cols,
        &["size"],
        |e| vec![e.model_states.to_string(), kb(e.model_bytes)],
    )
}

/// Table IV: average % improvement in the abort-tail metric across all
/// threads.
pub fn table4(cols: &[Column]) -> Table {
    per_thread_count(
        "Table IV: average % improvement in the tail distribution of aborts",
        cols,
        &[],
        |e| vec![f1(e.tail_improvement_pct())],
    )
}

/// Table V: SynQuake guidance metric (lower is better).
pub fn table5(games: &[GameExperiment]) -> Table {
    let mut t = Table::new(
        "Table V: SynQuake guidance metric % (lower is better)",
        &["Application", "threads", "metric"],
    );
    for g in games {
        t.row(vec![
            "SynQuake".into(),
            g.threads.to_string(),
            f1(g.analyzer.guidance_metric_pct),
        ]);
    }
    t
}

/// A compact cross-metric summary: one row per benchmark × thread count
/// with every derived quantity the paper reports (not a paper table; a
/// convenience for eyeballing a whole campaign).
pub fn summary(exps: &[&BenchExperiment]) -> Table {
    use crate::report::f2;
    use gstm_core::metrics;
    let mut t = Table::new(
        "Campaign summary (all derived metrics per benchmark)",
        &[
            "Application",
            "threads",
            "metric %",
            "states",
            "var imp %",
            "nd red %",
            "tail imp %",
            "slowdown x",
            "gate pass/wait/rel",
        ],
    );
    for e in exps {
        let imp = e.variance_improvement_pct();
        t.row(vec![
            e.name.to_string(),
            e.threads.to_string(),
            f1(e.analyzer.guidance_metric_pct),
            e.model_states.to_string(),
            f1(metrics::mean(&imp)),
            f1(e.nondeterminism_reduction_pct()),
            f1(e.tail_improvement_pct()),
            f2(e.slowdown()),
            format!("{}/{}/{}", e.gate.passed, e.gate.waited, e.gate.released),
        ]);
    }
    t
}

/// Summary of repeated campaigns: mean ± sd per derived metric.
pub fn repeated_summary(aggs: &[crate::experiment::AggregatedExperiment]) -> Table {
    let mut t = Table::new(
        "Repeated-campaign summary (mean ± sd over pipeline repeats)",
        &[
            "Application",
            "threads",
            "repeats",
            "metric %",
            "var imp %",
            "nd red %",
            "tail imp %",
            "slowdown x",
        ],
    );
    for a in aggs {
        t.row(vec![
            a.name.to_string(),
            a.threads.to_string(),
            a.repeats.to_string(),
            a.metric_pct.to_string(),
            a.var_improvement.to_string(),
            a.nd_reduction.to_string(),
            a.tail_improvement.to_string(),
            format!("{:.2} ± {:.2}", a.slowdown.mean, a.slowdown.sd),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::analyzer::{AnalyzerReport, ModelVerdict};
    use gstm_core::guidance::GateStats;

    fn fake_exp(name: &'static str, threads: u16, metric: f64, states: usize) -> BenchExperiment {
        BenchExperiment {
            name,
            threads,
            model_states: states,
            model_bytes: states * 10,
            analyzer: AnalyzerReport {
                guidance_metric_pct: metric,
                num_states: states,
                num_edges: states * 2,
                total_destinations: 10,
                kept_destinations: 5,
                verdict: ModelVerdict::Fit,
            },
            default_m: Default::default(),
            guided_m: Default::default(),
            gate: GateStats::default(),
            model_swaps: 0,
            model_rejected: false,
            breaker_trips: 0,
            breaker_recloses: 0,
        }
    }

    #[test]
    fn table1_pairs_thread_counts() {
        let e8 = [fake_exp("kmeans", 8, 26.0, 100)];
        let e16 = [fake_exp("kmeans", 16, 37.0, 200)];
        let s = table1(&[(8, &e8), (16, &e16)]).render();
        assert!(s.contains("kmeans"));
        assert!(s.contains("26.0"));
        assert!(s.contains("37.0"));
    }

    #[test]
    fn table3_reports_state_counts() {
        let e8 = [fake_exp("yada", 8, 19.0, 27120)];
        let t = table3(&[(8, &e8), (16, &[])]);
        assert_eq!(t.to_csv().lines().nth(1), Some("yada,27120,264.8 KB,,"));
    }

    #[test]
    fn stamp_tables_label_columns_with_the_campaign_threads() {
        let lo = [fake_exp("kmeans", 2, 26.0, 100)];
        let hi = [fake_exp("kmeans", 4, 37.0, 200)];
        let cols = [(2, &lo[..]), (4, &hi[..])];
        for t in [table1(&cols), table3(&cols), table4(&cols)] {
            let s = t.render();
            assert!(s.contains("2 threads") && s.contains("4 threads"), "{s}");
            assert!(!s.contains("8 threads") && !s.contains("16 threads"), "{s}");
        }
    }

    #[test]
    fn a_single_thread_count_emits_one_column_group() {
        let only = [fake_exp("kmeans", 2, 26.0, 100)];
        let cols = [(2, &only[..])];
        for (t, width) in [(table1(&cols), 2), (table3(&cols), 3), (table4(&cols), 2)] {
            let csv = t.to_csv();
            let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
            assert_eq!(header.len(), width, "{csv}");
            assert_eq!(header.iter().filter(|h| **h == "2 threads").count(), 1, "{csv}");
        }
    }

    #[test]
    fn table2_reports_host() {
        let s = table2().render();
        assert!(s.contains("Core count"));
        assert!(s.contains(std::env::consts::ARCH));
    }
}
