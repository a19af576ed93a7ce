//! Renderers for the paper's tables.

use crate::experiment::BenchExperiment;
use crate::game::GameExperiment;
use crate::report::{f1, Table};

/// Pair up experiments by benchmark name across the two thread counts,
/// preserving the low-count ordering.
fn paired<'a>(
    lo: &'a [BenchExperiment],
    hi: &'a [BenchExperiment],
) -> Vec<(&'a BenchExperiment, Option<&'a BenchExperiment>)> {
    lo.iter()
        .map(|e| (e, hi.iter().find(|s| s.name == e.name)))
        .collect()
}

/// Column labels for a campaign's `(low, high)` thread counts.
fn thread_labels((lo, hi): (u16, u16)) -> [String; 2] {
    [format!("{lo} threads"), format!("{hi} threads")]
}

/// Table I: model analyzer guidance metric percentage (lower is better),
/// one column per thread count of `threads`.
pub fn table1(lo: &[BenchExperiment], hi: &[BenchExperiment], threads: (u16, u16)) -> Table {
    let [lo_label, hi_label] = thread_labels(threads);
    let mut t = Table::new(
        "Table I: model analyzer guidance metric % (lower is better)",
        &["Application", &lo_label, &hi_label],
    );
    for (e, s) in paired(lo, hi) {
        t.row(vec![
            e.name.to_string(),
            f1(e.analyzer.guidance_metric_pct),
            s.map(|s| f1(s.analyzer.guidance_metric_pct))
                .unwrap_or_default(),
        ]);
    }
    t
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
pub fn table3(lo: &[BenchExperiment], hi: &[BenchExperiment], threads: (u16, u16)) -> Table {
    let kb = |bytes: usize| format!("{:.1} KB", bytes as f64 / 1024.0);
    let [lo_label, hi_label] = thread_labels(threads);
    let mut t = Table::new(
        "Table III: number of states in the model (+ encoded size)",
        &["Application", &lo_label, "size", &hi_label, "size"],
    );
    for (e, s) in paired(lo, hi) {
        t.row(vec![
            e.name.to_string(),
            e.model_states.to_string(),
            kb(e.model_bytes),
            s.map(|s| s.model_states.to_string()).unwrap_or_default(),
            s.map(|s| kb(s.model_bytes)).unwrap_or_default(),
        ]);
    }
    t
}

/// Table IV: average % improvement in the abort-tail metric across all
/// threads.
pub fn table4(lo: &[BenchExperiment], hi: &[BenchExperiment], threads: (u16, u16)) -> Table {
    let [lo_label, hi_label] = thread_labels(threads);
    let mut t = Table::new(
        "Table IV: average % improvement in the tail distribution of aborts",
        &["Application", &lo_label, &hi_label],
    );
    for (e, s) in paired(lo, hi) {
        t.row(vec![
            e.name.to_string(),
            f1(e.tail_improvement_pct()),
            s.map(|s| f1(s.tail_improvement_pct())).unwrap_or_default(),
        ]);
    }
    t
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
        let e8 = vec![fake_exp("kmeans", 8, 26.0, 100)];
        let e16 = vec![fake_exp("kmeans", 16, 37.0, 200)];
        let s = table1(&e8, &e16, (8, 16)).render();
        assert!(s.contains("kmeans"));
        assert!(s.contains("26.0"));
        assert!(s.contains("37.0"));
    }

    #[test]
    fn table3_reports_state_counts() {
        let e8 = vec![fake_exp("yada", 8, 19.0, 27120)];
        let s = table3(&e8, &[], (8, 16)).render();
        assert!(s.contains("27120"));
    }

    #[test]
    fn stamp_tables_label_columns_with_the_campaign_threads() {
        let lo = vec![fake_exp("kmeans", 2, 26.0, 100)];
        let hi = vec![fake_exp("kmeans", 4, 37.0, 200)];
        for t in [
            table1(&lo, &hi, (2, 4)),
            table3(&lo, &hi, (2, 4)),
            table4(&lo, &hi, (2, 4)),
        ] {
            let s = t.render();
            assert!(s.contains("2 threads") && s.contains("4 threads"), "{s}");
            assert!(!s.contains("8 threads") && !s.contains("16 threads"), "{s}");
        }
    }

    #[test]
    fn table2_reports_host() {
        let s = table2().render();
        assert!(s.contains("Core count"));
        assert!(s.contains(std::env::consts::ARCH));
    }
}
