//! Renderers for the paper's figures (as data tables: one row per plotted
//! point/series, CSV-ready for replotting).

use crate::experiment::BenchExperiment;
use crate::game::GameExperiment;
use crate::report::{f1, f2, f4, Table};

/// The experiments of both thread counts, each `(bench, threads)` once.
/// A campaign with a single thread count passes the same experiments as
/// both.
pub fn each_once<'a>(
    lo: &'a [BenchExperiment],
    hi: &'a [BenchExperiment],
) -> Vec<&'a BenchExperiment> {
    let mut seen = std::collections::HashSet::new();
    lo.iter()
        .chain(hi)
        .filter(|e| seen.insert((e.name, e.threads)))
        .collect()
}

/// Figures 4 (the campaign's low thread count, 8 in the paper) and 6
/// (its high count, 16): per-thread percentage improvement in
/// execution-time standard deviation, per benchmark. `figure` is the
/// paper's figure number, 4 or 6.
pub fn fig_variance(exps: &[BenchExperiment], threads: u16, figure: u8) -> Table {
    let mut t = Table::new(
        &format!(
            "Figure {figure}: % execution-time variance improvement per thread ({threads} threads)"
        ),
        &["Application", "thread", "improvement %"],
    );
    for e in exps {
        for (th, imp) in e.variance_improvement_pct().iter().enumerate() {
            t.row(vec![e.name.to_string(), th.to_string(), f1(*imp)]);
        }
    }
    t
}

/// Figures 5 (the campaign's low thread count, 8 in the paper) and 7
/// (its high count, 16): tail of the abort distribution, default (dotted
/// in the paper) vs guided (solid), per thread. `figure` is the paper's
/// figure number, 5 or 7.
pub fn fig_abort_tail(exps: &[BenchExperiment], threads: u16, figure: u8) -> Table {
    let mut t = Table::new(
        &format!("Figure {figure}: abort distribution default vs guided ({threads} threads)"),
        &["Application", "thread", "aborts", "freq default", "freq guided"],
    );
    for e in exps {
        for (th, (dh, gh)) in e
            .default_m
            .per_thread_hists
            .iter()
            .zip(&e.guided_m.per_thread_hists)
            .enumerate()
        {
            let max_j = dh.max_aborts().max(gh.max_aborts());
            let d: std::collections::BTreeMap<u32, u64> = dh.iter().collect();
            let g: std::collections::BTreeMap<u32, u64> = gh.iter().collect();
            for j in 0..=max_j {
                let fd = d.get(&j).copied().unwrap_or(0);
                let fg = g.get(&j).copied().unwrap_or(0);
                if fd == 0 && fg == 0 {
                    continue;
                }
                t.row(vec![
                    e.name.to_string(),
                    th.to_string(),
                    j.to_string(),
                    fd.to_string(),
                    fg.to_string(),
                ]);
            }
        }
    }
    t
}

/// Figure 8: ssca2 under guidance — per-thread variance change (expected
/// negative: degradation) and its abort tails at both thread counts.
pub fn fig8_ssca2(eight: &[BenchExperiment], sixteen: &[BenchExperiment]) -> Table {
    let mut t = Table::new(
        "Figure 8: ssca2 with guided execution (degradation expected)",
        &["threads", "thread", "improvement %", "tail default", "tail guided"],
    );
    for e in each_once(eight, sixteen)
        .into_iter()
        .filter(|e| e.name == "ssca2")
    {
        let imps = e.variance_improvement_pct();
        let td = e.default_m.per_thread_tails();
        let tg = e.guided_m.per_thread_tails();
        for th in 0..imps.len() {
            t.row(vec![
                e.threads.to_string(),
                th.to_string(),
                f1(imps[th]),
                td[th].to_string(),
                tg[th].to_string(),
            ]);
        }
    }
    t
}

/// Figure 9: percentage reduction in non-determinism, guided vs default.
pub fn fig9_nondeterminism(eight: &[BenchExperiment], sixteen: &[BenchExperiment]) -> Table {
    let mut t = Table::new(
        "Figure 9: % reduction in non-determinism (distinct TSS)",
        &["Application", "threads", "default", "guided", "reduction %"],
    );
    for e in each_once(eight, sixteen) {
        t.row(vec![
            e.name.to_string(),
            e.threads.to_string(),
            e.default_m.non_determinism.to_string(),
            e.guided_m.non_determinism.to_string(),
            f1(e.nondeterminism_reduction_pct()),
        ]);
    }
    t
}

/// Figure 10: slowdown (×) of guided over default execution.
pub fn fig10_slowdown(eight: &[BenchExperiment], sixteen: &[BenchExperiment]) -> Table {
    let mut t = Table::new(
        "Figure 10: slowdown of guided vs default execution (x)",
        &["Application", "threads", "default s", "guided s", "slowdown x"],
    );
    for e in each_once(eight, sixteen) {
        t.row(vec![
            e.name.to_string(),
            e.threads.to_string(),
            f4(e.default_m.mean_wall()),
            f4(e.guided_m.mean_wall()),
            f2(e.slowdown()),
        ]);
    }
    t
}

/// Figures 11 (4quadrants) and 12 (4center_spread6): frame-rate variance
/// improvement, abort-ratio reduction, and slowdown for SynQuake.
pub fn fig_synquake(games: &[GameExperiment], quadrants: bool) -> Table {
    let (fig, quest) = if quadrants {
        ("Figure 11", "4quadrants")
    } else {
        ("Figure 12", "4center_spread6")
    };
    let mut t = Table::new(
        &format!("{fig}: SynQuake on {quest}"),
        &[
            "threads",
            "frame variance improvement %",
            "abort ratio reduction %",
            "slowdown x",
        ],
    );
    for g in games {
        let q = if quadrants {
            &g.quadrants
        } else {
            &g.center_spread
        };
        t.row(vec![
            g.threads.to_string(),
            f1(q.frame_variance_improvement_pct()),
            f1(q.abort_reduction_pct()),
            f2(q.slowdown()),
        ]);
    }
    t
}

/// Figure 3-style model excerpt: the automaton's hottest states with
/// their outbound transition probabilities in the paper's tuple notation
/// (`{<a6>, <b7>}` etc.), marking which destinations guidance keeps.
pub fn fig3_excerpt(model: &gstm_core::GuidedModel, top_k: usize) -> String {
    use std::fmt::Write as _;
    let tsa = model.tsa();
    // Rank states by outbound traffic (≈ visit count).
    let mut ranked: Vec<_> = tsa
        .state_ids()
        .map(|id| {
            let total: u64 = tsa.outbound(id).iter().map(|&(_, f)| f).sum();
            (id, total)
        })
        .filter(|&(_, f)| f > 0)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 3-style excerpt: top {top_k} states by visits (Tfactor {}) ==",
        model.tfactor()
    );
    for &(id, total) in ranked.iter().take(top_k) {
        let _ = writeln!(out, "state {} (visited {total}x):", tsa.state(id));
        let kept: std::collections::HashSet<u32> = model
            .kept_destinations(id)
            .iter()
            .map(|d| d.0)
            .collect();
        for &(dst, f) in tsa.outbound(id).iter().take(8) {
            let p = f as f64 / total as f64;
            let mark = if kept.contains(&dst.0) { "keep " } else { "prune" };
            let _ = writeln!(out, "  --{p:>6.3}--> {}  [{mark}]", tsa.state(dst));
        }
        let extra = tsa.outbound(id).len().saturating_sub(8);
        if extra > 0 {
            let _ = writeln!(out, "  ... and {extra} more destinations");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ModeMeasurement;
    use gstm_core::analyzer::{AnalyzerReport, ModelVerdict};
    use gstm_core::guidance::GateStats;
    use gstm_core::AbortHistogram;

    fn mode(times: Vec<Vec<f64>>, hist: Vec<AbortHistogram>, nd: usize) -> ModeMeasurement {
        ModeMeasurement {
            per_thread_times: times,
            per_thread_hists: hist,
            wall_secs: vec![1.0],
            non_determinism: nd,
            ..Default::default()
        }
    }

    fn fake() -> BenchExperiment {
        let dh: AbortHistogram = [(0u32, 10u64), (3, 2)].into_iter().collect();
        let gh: AbortHistogram = [(0u32, 12u64)].into_iter().collect();
        BenchExperiment {
            name: "kmeans",
            threads: 8,
            model_states: 5,
            model_bytes: 50,
            analyzer: AnalyzerReport {
                guidance_metric_pct: 30.0,
                num_states: 5,
                num_edges: 8,
                total_destinations: 8,
                kept_destinations: 3,
                verdict: ModelVerdict::Fit,
            },
            default_m: mode(
                vec![vec![1.0, 2.0], vec![3.0, 2.0]],
                vec![dh.clone(), dh],
                10,
            ),
            guided_m: mode(
                vec![vec![1.5, 2.0], vec![2.0, 2.0]],
                vec![gh.clone(), gh],
                6,
            ),
            gate: GateStats::default(),
            model_swaps: 0,
            model_rejected: false,
            breaker_trips: 0,
            breaker_recloses: 0,
        }
    }

    #[test]
    fn variance_figure_emits_one_row_per_thread() {
        let t = fig_variance(&[fake()], 8, 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 threads");
    }

    #[test]
    fn abort_tail_figure_merges_histograms() {
        let t = fig_abort_tail(&[fake()], 8, 5);
        let csv = t.to_csv();
        // abort counts 0 and 3 appear for both threads.
        assert!(csv.contains("kmeans,0,0,10,12"));
        assert!(csv.contains("kmeans,0,3,2,0"));
    }

    #[test]
    fn figure_numbers_come_from_the_caller_not_the_thread_count() {
        // `--threads 2 4` draws Figures 4/5 at 2 threads and 6/7 at 4;
        // the paper's 8 threads can be either count.
        let title = |t: Table| t.render().lines().next().unwrap().to_string();
        for (threads, low) in [(2, true), (4, false), (8, false), (16, true)] {
            let (var, tail) = if low { (4, 5) } else { (6, 7) };
            assert_eq!(
                title(fig_variance(&[fake()], threads, var)),
                format!("== Figure {var}: % execution-time variance improvement per thread ({threads} threads) ==")
            );
            assert_eq!(
                title(fig_abort_tail(&[fake()], threads, tail)),
                format!("== Figure {tail}: abort distribution default vs guided ({threads} threads) ==")
            );
        }
    }

    #[test]
    fn fig3_excerpt_prints_paper_notation() {
        use gstm_core::{GuidanceConfig, GuidedModel, Pair, StateKey, ThreadId, Tsa, TxnId};
        let a = StateKey::solo(Pair::new(TxnId(0), ThreadId(6)));
        let b = StateKey::new(
            vec![Pair::new(TxnId(0), ThreadId(6))],
            Pair::new(TxnId(1), ThreadId(7)),
        );
        let run = vec![a.clone(), b.clone(), a.clone(), b, a];
        let tsa = Tsa::from_runs(&[run]);
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        let s = fig3_excerpt(&model, 2);
        assert!(s.contains("{<a6>}"), "{s}");
        assert!(s.contains("{<a6>, <b7>}"), "{s}");
        assert!(s.contains("[keep ]"), "{s}");
    }

    #[test]
    fn nondeterminism_figure_computes_reduction() {
        let t = fig9_nondeterminism(&[fake()], &[]);
        assert!(t.to_csv().contains("kmeans,8,10,6,40.0"));
    }

    #[test]
    fn a_single_thread_count_emits_each_experiment_once() {
        // A campaign run with one `--threads` value passes the same
        // experiments as both thread counts.
        let mut ssca2 = fake();
        ssca2.name = "ssca2";
        let exps = [fake(), ssca2];
        let rows = |t: Table| t.to_csv().lines().count() - 1;
        assert_eq!(rows(fig9_nondeterminism(&exps, &exps)), 2);
        assert_eq!(rows(fig10_slowdown(&exps, &exps)), 2);
        assert_eq!(rows(fig8_ssca2(&exps, &exps)), 2, "ssca2's two threads");
        let mut sixteen = fake();
        sixteen.threads = 16;
        assert_eq!(each_once(&exps, &[sixteen]).len(), 3);
    }
}
