//! Model analysis — deciding whether a trained model can reduce variance.
//!
//! Section IV of the paper: guidance works by shrinking each state's
//! reachable destination set `S` to a constant high-probability subset
//! `S'`. If `|S'| ≈ |S|` everywhere (the transition distribution is close
//! to uniform), there is no bias to exploit and the gate is pure overhead —
//! the situation the paper observes for *ssca2*. The **guidance metric** is
//!
//! ```text
//! metric% = 100 · Σ_s |S'(s)| / Σ_s |S(s)|
//! ```
//!
//! Lower is better; at or above ~50% the model is rejected.

use crate::config::GuidanceConfig;
use crate::tsa::GuidedModel;

/// Guidance-metric percentage at or above which the analyzer rejects a
/// model ("If the metric is above 50 ... most of the transition states
/// in the model are high probability states"); the drift tracker applies
/// the same bound live.
pub const METRIC_REJECT_PCT: f64 = 50.0;

/// Whether the analyzer deems a model usable for guided execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelVerdict {
    /// The model is biased enough to guide execution.
    Fit,
    /// Transition distributions are too uniform (metric at or above
    /// [`METRIC_REJECT_PCT`]): guidance would only add overhead.
    TooUniform,
    /// The automaton has too few states to express meaningful bias.
    TooFewStates,
}

/// The analyzer's findings for one trained model.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerReport {
    /// `100 · Σ|S'| / Σ|S|` over all states with outbound transitions.
    pub guidance_metric_pct: f64,
    /// Number of states in the automaton.
    pub num_states: usize,
    /// Number of edges in the automaton.
    pub num_edges: usize,
    /// Sum of unguided destination-set sizes, `Σ|S|`.
    pub total_destinations: u64,
    /// Sum of thresholded destination-set sizes, `Σ|S'|`.
    pub kept_destinations: u64,
    /// The verdict under [`GuidanceConfig::min_states`] and
    /// [`METRIC_REJECT_PCT`].
    pub verdict: ModelVerdict,
}

impl AnalyzerReport {
    /// Convenience: is the model usable?
    pub fn is_fit(&self) -> bool {
        self.verdict == ModelVerdict::Fit
    }
}

/// Analyze a model with the default thresholds.
pub fn analyze(model: &GuidedModel) -> AnalyzerReport {
    analyze_with(model, &GuidanceConfig::default())
}

/// Analyze a model: compute the guidance metric and issue a verdict.
pub fn analyze_with(model: &GuidedModel, config: &GuidanceConfig) -> AnalyzerReport {
    let mut total = 0u64;
    let mut kept = 0u64;
    for id in model.tsa().state_ids() {
        let (all, k) = model.dest_counts(id);
        total += all as u64;
        kept += k as u64;
    }
    let metric = if total == 0 {
        100.0
    } else {
        100.0 * kept as f64 / total as f64
    };
    let verdict = if model.num_states() < config.min_states {
        ModelVerdict::TooFewStates
    } else if metric >= METRIC_REJECT_PCT {
        ModelVerdict::TooUniform
    } else {
        ModelVerdict::Fit
    };
    AnalyzerReport {
        guidance_metric_pct: metric,
        num_states: model.num_states(),
        num_edges: model.tsa().num_edges(),
        total_destinations: total,
        kept_destinations: kept,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Pair, ThreadId, TxnId};
    use crate::tsa::Tsa;
    use crate::tss::StateKey;

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    /// A strongly biased model: ten states, each usually stepping to the
    /// next in a cycle but occasionally jumping elsewhere, so every state
    /// has several destinations with one dominating — the structure the
    /// guidance metric rewards.
    fn biased_runs() -> Vec<Vec<StateKey>> {
        let state = |i: u16| StateKey::solo(p(0, i));
        let mut run = Vec::new();
        let mut cur: u16 = 0;
        for step in 0..2000u16 {
            run.push(state(cur));
            cur = if step % 13 == 5 {
                (cur + 2 + step % 7) % 10
            } else {
                (cur + 1) % 10
            };
        }
        vec![run]
    }

    /// A uniform model: every destination equally likely (ssca2-like).
    fn uniform_runs(width: u16) -> Vec<Vec<StateKey>> {
        let hub = StateKey::solo(p(0, 0));
        let mut run = Vec::new();
        for rep in 0..4 {
            let _ = rep;
            for i in 0..width {
                run.push(hub.clone());
                run.push(StateKey::solo(p(1, i)));
            }
        }
        vec![run]
    }

    #[test]
    fn biased_model_scores_low_and_fits() {
        let runs = biased_runs();
        let tsa = Tsa::from_runs(&runs);
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        let report = analyze(&model);
        assert!(
            report.guidance_metric_pct < 50.0,
            "metric was {}",
            report.guidance_metric_pct
        );
        assert_eq!(report.verdict, ModelVerdict::Fit);
    }

    #[test]
    fn uniform_model_is_rejected() {
        let runs = uniform_runs(12);
        let tsa = Tsa::from_runs(&runs);
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        let report = analyze(&model);
        // Every edge has equal probability, so every edge clears P_h/4 and
        // |S'| == |S| from the hub; metric ≈ 100.
        assert!(
            report.guidance_metric_pct > 50.0,
            "metric was {}",
            report.guidance_metric_pct
        );
        assert_eq!(report.verdict, ModelVerdict::TooUniform);
    }

    #[test]
    fn tiny_model_is_rejected() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let tsa = Tsa::from_runs(&[vec![a, b]]);
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        let report = analyze(&model);
        assert_eq!(report.verdict, ModelVerdict::TooFewStates);
    }

    #[test]
    fn kept_never_exceeds_total() {
        for runs in [biased_runs(), uniform_runs(5)] {
            let tsa = Tsa::from_runs(&runs);
            let model = GuidedModel::build(tsa, &GuidanceConfig::default());
            let report = analyze(&model);
            assert!(report.kept_destinations <= report.total_destinations);
            assert!(report.guidance_metric_pct <= 100.0 + 1e-9);
            // Every state with at least one outbound edge keeps at least
            // its highest-probability edge, so kept >= states-with-edges.
            assert!(report.kept_destinations >= 1);
        }
    }

    #[test]
    fn lower_tfactor_lowers_metric() {
        let runs = biased_runs();
        let tsa = Tsa::from_runs(&runs);
        let tight = analyze_with(
            &GuidedModel::build(tsa.clone(), &GuidanceConfig::with_tfactor(1.0)),
            &GuidanceConfig::default(),
        );
        let loose = analyze_with(
            &GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(10.0)),
            &GuidanceConfig::default(),
        );
        assert!(tight.guidance_metric_pct <= loose.guidance_metric_pct);
    }
}
