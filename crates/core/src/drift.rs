//! Model-drift observability: does the profiled TSA still match live
//! behaviour?
//!
//! Guided execution trusts a model trained on *past* profiling runs. If
//! the workload shifts — different input mix, different thread count,
//! different contention pattern — the profiled transition distribution
//! silently stops describing what the gate is steering, and guidance
//! degrades into pure overhead (the exact failure mode the analyzer's
//! guidance metric exists to predict, except now it happens *after*
//! deployment). This module watches for that live:
//!
//! * [`DriftTracker`] attaches to a [`crate::guidance::GuidedHook`] and
//!   accumulates the **observed** transition distribution during guided
//!   execution — one relaxed atomic add per commit against a flattened
//!   per-edge counter table (modeled edges), plus per-state counters for
//!   transitions that leave the modeled edge set entirely.
//! * [`DriftTracker::report`] compares observed against profiled:
//!   per-state KL divergence, the guidance metric recomputed from the
//!   observed distribution, the fraction of transitions landing outside
//!   modeled edges, and a [`DriftVerdict`] with a human-readable reason
//!   (e.g. *"guidance metric drifted 12% → 54%; model is no longer
//!   biased; re-profile"*).
//!
//! The tracker is exported through the telemetry layer: register it with
//! [`crate::telemetry::Telemetry::attach_drift`] and every snapshot (and
//! its Prometheus exposition, via the `gstm_model_*` families) carries
//! the current [`ModelDrift`]. The chrome-trace "TSA state" track renders
//! the same transitions the tracker counts, so a Perfetto timeline and a
//! drift report describe one execution from two angles.
//!
//! ## Divergence definitions
//!
//! For a state `s` with modeled outbound edges `E(s)` (profiled
//! frequencies `f_e`) and observed on-edge counts `c_e`:
//!
//! * **KL divergence** (nats): `KL(s) = Σ_e p̂_e · ln(p̂_e / p_e)` where
//!   `p̂_e = c_e / Σc` and `p_e = f_e / Σf`, summed over edges with
//!   `c_e > 0`. Both distributions are renormalized over `E(s)`, so KL
//!   measures *reshaping within the modeled edge set*; mass that leaves
//!   the set is reported separately as the off-model fraction (KL against
//!   a zero-probability event would be infinite and uninformative).
//! * **Observed guidance metric**: the analyzer's `100 · Σ|S'| / Σ|S|`
//!   recomputed with observed edge probabilities (per state: `|S|` =
//!   edges with `c_e > 0`, `|S'|` = those with `p̂_e ≥ p̂_h / Tfactor`),
//!   over states with at least one on-edge observation.
//! * **Off-model fraction**: `(off_edge + to_unknown) / (transitions out
//!   of modeled states)` — how often a commit lands somewhere the model
//!   never saw (an unmodeled edge between modeled states, or a state not
//!   in the model at all).
//! * **Unknown-origin fraction**: `from_unknown / (all transitions)` —
//!   the coverage complement. Transitions out of unknown states carry no
//!   per-state attribution and are excluded from the off-model fraction,
//!   so the verdict checks this share separately: a model that only ever
//!   *sees* a sliver of execution is stale no matter how well that
//!   sliver matches.

use crate::analyzer::{self, METRIC_REJECT_PCT};
use crate::telemetry::UNKNOWN_STATE;
use crate::tsa::GuidedModel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Transition-weighted mean KL (nats) at or above which the model counts
/// as drifting.
const KL_DRIFT_NATS: f64 = 0.5;
/// Off-model percentage at or above which the model counts as drifting.
const OFF_MODEL_DRIFT_PCT: f64 = 25.0;
/// Off-model percentage at or above which the model is stale.
const OFF_MODEL_STALE_PCT: f64 = 60.0;
/// Percentage of *all* transitions originating outside the model
/// (`from_unknown`) at or above which the model counts as drifting — a
/// coverage signal: off-model mass out of *unknown* states never shows up
/// in `off_model_pct`, so a model describing only a sliver of execution
/// would otherwise still read as matching.
const UNKNOWN_DRIFT_PCT: f64 = 25.0;
/// `from_unknown` percentage at or above which the model is stale.
const UNKNOWN_STALE_PCT: f64 = 60.0;

/// Evidence bar of the staleness verdict. The thresholds themselves are
/// fixed: KL 0.5 nats, off-model 25% / 60%, unknown-origin 25% / 60%
/// (drifting / stale), and an observed guidance metric at or above
/// `METRIC_REJECT_PCT` for a model that profiled below
/// it — the paper's "metric ≥ ~50 means guidance is useless" rejection,
/// applied live.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Observed transitions (all kinds) below which no verdict is issued
    /// ([`DriftVerdict::Insufficient`]).
    pub min_transitions: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            min_transitions: 100,
        }
    }
}

/// The staleness verdict of a drift report, ordered by severity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum DriftVerdict {
    /// Too few observed transitions to judge.
    #[default]
    Insufficient,
    /// Observed behaviour matches the profile.
    Fresh,
    /// Distributions are reshaping; guidance still biased but degrading.
    Drifting,
    /// The model no longer describes live behaviour; re-profile.
    Stale,
}

impl DriftVerdict {
    /// Stable numeric code for export (`gstm_model_staleness`):
    /// 0 insufficient, 1 fresh, 2 drifting, 3 stale.
    pub fn code(self) -> u8 {
        match self {
            DriftVerdict::Insufficient => 0,
            DriftVerdict::Fresh => 1,
            DriftVerdict::Drifting => 2,
            DriftVerdict::Stale => 3,
        }
    }

    /// Lower-case label used in reports and exports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DriftVerdict::Insufficient => "insufficient",
            DriftVerdict::Fresh => "fresh",
            DriftVerdict::Drifting => "drifting",
            DriftVerdict::Stale => "stale",
        }
    }
}

impl std::fmt::Display for DriftVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A point-in-time comparison of observed vs profiled transition
/// behaviour — the drift tracker's snapshot.
#[derive(Clone, Debug, Default)]
pub struct ModelDrift {
    /// Observed transitions along modeled edges.
    pub(crate) on_edge: u64,
    /// Observed transitions between modeled states over unmodeled edges.
    pub(crate) off_edge: u64,
    /// Observed transitions from a modeled state to an unmodeled one.
    pub(crate) to_unknown: u64,
    /// Observed transitions out of an unmodeled (unknown) state.
    pub(crate) from_unknown: u64,
    /// `100 · (off_edge + to_unknown) / (on_edge + off_edge +
    /// to_unknown)`; 0 when nothing was observed from modeled states.
    pub(crate) off_model_pct: f64,
    /// The analyzer's guidance metric of the profiled model.
    pub(crate) profiled_metric_pct: f64,
    /// The guidance metric recomputed from the observed distribution
    /// (see the module docs); `None` until at least one on-edge
    /// transition was observed.
    pub(crate) observed_metric_pct: Option<f64>,
    /// Transition-weighted mean per-state KL divergence (nats).
    pub(crate) mean_kl_nats: f64,
    /// Largest per-state KL divergence (nats).
    pub(crate) max_kl_nats: f64,
    /// Number of states in the profiled model.
    pub(crate) modeled_states: usize,
    /// Modeled states with at least one observed outbound transition.
    pub(crate) observed_states: usize,
    /// The staleness verdict under the tracker's [`DriftConfig`].
    pub verdict: DriftVerdict,
    /// Human-readable justification of the verdict.
    pub(crate) reason: String,
}

impl ModelDrift {
    /// All observed transitions, including those out of unknown states.
    pub fn transitions_total(&self) -> u64 {
        self.on_edge + self.off_edge + self.to_unknown + self.from_unknown
    }

    /// Share of all observed transitions that originate outside the
    /// model, percent — the coverage complement. High values mean the
    /// model never even *sees* most of the execution, regardless of how
    /// well the covered part matches.
    fn unknown_origin_pct(&self) -> f64 {
        let total = self.transitions_total();
        if total == 0 {
            0.0
        } else {
            100.0 * self.from_unknown as f64 / total as f64
        }
    }

    /// Render a short multi-line human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "model drift: {} — {}", self.verdict, self.reason);
        let _ = writeln!(
            out,
            "  transitions: {} on-edge, {} off-edge, {} to-unknown, {} from-unknown \
             ({:.1}% off-model)",
            self.on_edge, self.off_edge, self.to_unknown, self.from_unknown, self.off_model_pct
        );
        let _ = writeln!(
            out,
            "  guidance metric: profiled {:.1}% vs observed {}",
            self.profiled_metric_pct,
            match self.observed_metric_pct {
                Some(m) => format!("{m:.1}%"),
                None => "n/a".to_string(),
            }
        );
        let _ = writeln!(
            out,
            "  KL divergence: mean {:.3} nats, max {:.3} nats over {}/{} observed states",
            self.mean_kl_nats, self.max_kl_nats, self.observed_states, self.modeled_states
        );
        out
    }
}

/// Lock-free observed-transition accumulator over a profiled model.
///
/// One tracker instance is shared (`Arc`) between the guided hook (which
/// calls `DriftTracker::record` once per commit) and whoever reads
/// [`DriftTracker::report`]. All counters are relaxed atomics: a record
/// is one binary search over the source state's (sorted) modeled
/// destinations plus one `fetch_add`.
pub struct DriftTracker {
    /// Prefix offsets into the flattened edge arrays; `num_states + 1`
    /// entries.
    edge_offsets: Box<[u32]>,
    /// Destination state ids, ascending within each source state's row.
    edge_dsts: Box<[u32]>,
    /// Profiled edge frequencies, aligned with `edge_dsts`.
    edge_profiled: Box<[u64]>,
    /// Observed edge counts, aligned with `edge_dsts`.
    edge_counts: Box<[AtomicU64]>,
    /// Per-state: observed transitions to a modeled state over an edge
    /// the profile never saw.
    off_edge: Box<[AtomicU64]>,
    /// Per-state: observed transitions to an unmodeled state.
    to_unknown: Box<[AtomicU64]>,
    /// Observed transitions out of an unmodeled state.
    from_unknown: AtomicU64,
    /// The profiled model's guidance metric (`100 · Σ|S'| / Σ|S|`).
    profiled_metric_pct: f64,
    /// Tfactor the model was thresholded with (reused for the observed
    /// metric so the two are comparable).
    tfactor: f64,
    /// [`DriftConfig::min_transitions`].
    min_transitions: u64,
}

impl DriftTracker {
    /// Build a tracker over `model` with default thresholds.
    pub fn new(model: &GuidedModel) -> Self {
        Self::with_config(model, DriftConfig::default())
    }

    /// Build a tracker over `model` with explicit thresholds.
    pub(crate) fn with_config(model: &GuidedModel, config: DriftConfig) -> Self {
        let tsa = model.tsa();
        let n = tsa.num_states();
        let mut edge_offsets = Vec::with_capacity(n + 1);
        let mut edge_dsts = Vec::new();
        let mut edge_profiled = Vec::new();
        edge_offsets.push(0u32);
        for id in tsa.state_ids() {
            // The TSA keeps outbound edges frequency-sorted; re-sort by
            // destination id so `record` can binary-search.
            let mut edges: Vec<(u32, u64)> = tsa
                .outbound(id)
                .iter()
                .map(|&(dst, f)| (dst.0, f))
                .collect();
            edges.sort_unstable_by_key(|&(dst, _)| dst);
            for (dst, f) in edges {
                edge_dsts.push(dst);
                edge_profiled.push(f);
            }
            edge_offsets.push(edge_dsts.len() as u32);
        }
        let edge_counts = (0..edge_dsts.len()).map(|_| AtomicU64::new(0)).collect();
        DriftTracker {
            edge_offsets: edge_offsets.into_boxed_slice(),
            edge_dsts: edge_dsts.into_boxed_slice(),
            edge_profiled: edge_profiled.into_boxed_slice(),
            edge_counts,
            off_edge: (0..n).map(|_| AtomicU64::new(0)).collect(),
            to_unknown: (0..n).map(|_| AtomicU64::new(0)).collect(),
            from_unknown: AtomicU64::new(0),
            profiled_metric_pct: analyzer::analyze(model).guidance_metric_pct,
            tfactor: model.tfactor(),
            min_transitions: config.min_transitions,
        }
    }

    /// Number of states in the tracked model.
    pub(crate) fn num_states(&self) -> usize {
        self.edge_offsets.len() - 1
    }

    /// Record one observed transition `from → to` (state ids as the
    /// guided hook tracks them; [`UNKNOWN_STATE`] for unmodeled states).
    /// Called on every guided commit, including self-transitions.
    #[inline]
    pub(crate) fn record(&self, from: u32, to: u32) {
        if from == UNKNOWN_STATE || from as usize >= self.num_states() {
            self.from_unknown.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let row =
            self.edge_offsets[from as usize] as usize..self.edge_offsets[from as usize + 1] as usize;
        if let Ok(i) = self.edge_dsts[row.clone()].binary_search(&to) {
            self.edge_counts[row.start + i].fetch_add(1, Ordering::Relaxed);
        } else if to == UNKNOWN_STATE {
            self.to_unknown[from as usize].fetch_add(1, Ordering::Relaxed);
        } else {
            self.off_edge[from as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Compare observed against profiled and issue a verdict.
    pub fn report(&self) -> ModelDrift {
        let n = self.num_states();
        let mut observed_states = 0;
        let (mut on_edge, mut off_edge_t, mut to_unknown_t) = (0u64, 0u64, 0u64);
        let (mut kl_weighted, mut kl_weight, mut max_kl) = (0.0f64, 0u64, 0.0f64);
        let (mut obs_all, mut obs_kept) = (0u64, 0u64);
        for s in 0..n {
            let row = self.edge_offsets[s] as usize..self.edge_offsets[s + 1] as usize;
            let counts: Vec<u64> = self.edge_counts[row.clone()]
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            let on: u64 = counts.iter().sum();
            let off = self.off_edge[s].load(Ordering::Relaxed);
            let unk = self.to_unknown[s].load(Ordering::Relaxed);
            on_edge += on;
            off_edge_t += off;
            to_unknown_t += unk;
            if on + off + unk == 0 {
                continue;
            }
            observed_states += 1;
            if on > 0 {
                let mut kl = 0.0f64;
                let profiled_total: u64 = self.edge_profiled[row.clone()].iter().sum();
                // Observed guidance metric inputs for this state.
                let p_h = counts.iter().copied().max().unwrap_or(0) as f64 / on as f64;
                let threshold = p_h / self.tfactor;
                for (i, &c) in counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let p_obs = c as f64 / on as f64;
                    let p_prof =
                        self.edge_profiled[row.start + i] as f64 / profiled_total as f64;
                    kl += p_obs * (p_obs / p_prof).ln();
                    obs_all += 1;
                    if p_obs >= threshold {
                        obs_kept += 1;
                    }
                }
                // Floating-point dust can push a perfectly matching
                // distribution epsilon-negative.
                kl = kl.max(0.0);
                kl_weighted += kl * on as f64;
                kl_weight += on;
                max_kl = max_kl.max(kl);
            }
        }
        let from_unknown = self.from_unknown.load(Ordering::Relaxed);
        let from_modeled = on_edge + off_edge_t + to_unknown_t;
        let off_model_pct = if from_modeled == 0 {
            0.0
        } else {
            100.0 * (off_edge_t + to_unknown_t) as f64 / from_modeled as f64
        };
        let observed_metric_pct =
            (obs_all > 0).then(|| 100.0 * obs_kept as f64 / obs_all as f64);
        let mean_kl_nats = if kl_weight == 0 {
            0.0
        } else {
            kl_weighted / kl_weight as f64
        };
        let mut drift = ModelDrift {
            on_edge,
            off_edge: off_edge_t,
            to_unknown: to_unknown_t,
            from_unknown,
            off_model_pct,
            profiled_metric_pct: self.profiled_metric_pct,
            observed_metric_pct,
            mean_kl_nats,
            max_kl_nats: max_kl,
            modeled_states: n,
            observed_states,
            verdict: DriftVerdict::Insufficient,
            reason: String::new(),
        };
        let (verdict, reason) = if drift.transitions_total() < self.min_transitions {
            (
                DriftVerdict::Insufficient,
                format!(
                    "{} transitions observed (< {} needed for a verdict)",
                    drift.transitions_total(),
                    self.min_transitions
                ),
            )
        } else if drift.profiled_metric_pct < METRIC_REJECT_PCT
            && observed_metric_pct.is_some_and(|m| m >= METRIC_REJECT_PCT)
        {
            (
                DriftVerdict::Stale,
                format!(
                    "guidance metric drifted {:.0}% → {:.0}%; model is no longer biased; \
                     re-profile",
                    drift.profiled_metric_pct,
                    observed_metric_pct.unwrap_or(100.0)
                ),
            )
        } else if off_model_pct >= OFF_MODEL_STALE_PCT {
            (
                DriftVerdict::Stale,
                format!(
                    "{off_model_pct:.0}% of transitions leave the modeled edge set \
                     (≥ {OFF_MODEL_STALE_PCT:.0}%); re-profile"
                ),
            )
        } else if drift.unknown_origin_pct() >= UNKNOWN_STALE_PCT {
            (
                DriftVerdict::Stale,
                format!(
                    "{:.0}% of transitions originate outside the model \
                     (≥ {UNKNOWN_STALE_PCT:.0}%); the profile no longer covers this \
                     execution; re-profile",
                    drift.unknown_origin_pct(),
                ),
            )
        } else if mean_kl_nats >= KL_DRIFT_NATS {
            (
                DriftVerdict::Drifting,
                format!("mean KL divergence {mean_kl_nats:.2} nats ≥ {KL_DRIFT_NATS:.2}"),
            )
        } else if off_model_pct >= OFF_MODEL_DRIFT_PCT {
            (
                DriftVerdict::Drifting,
                format!(
                    "{off_model_pct:.0}% of transitions leave the modeled edge set \
                     (≥ {OFF_MODEL_DRIFT_PCT:.0}%)"
                ),
            )
        } else if drift.unknown_origin_pct() >= UNKNOWN_DRIFT_PCT {
            (
                DriftVerdict::Drifting,
                format!(
                    "{:.0}% of transitions originate outside the model \
                     (≥ {UNKNOWN_DRIFT_PCT:.0}%); coverage is eroding",
                    drift.unknown_origin_pct(),
                ),
            )
        } else {
            (
                DriftVerdict::Fresh,
                format!(
                    "observed distribution matches the profile \
                     (KL {mean_kl_nats:.2} nats, {off_model_pct:.1}% off-model)"
                ),
            )
        };
        drift.verdict = verdict;
        drift.reason = reason;
        drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuidanceConfig;
    use crate::ids::{Pair, ThreadId, TxnId};
    use crate::tsa::Tsa;
    use crate::tss::StateKey;
    use std::sync::Arc;

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    /// Ten solo states cycling 0→1→…→9→0 with occasional jumps — biased
    /// enough that the analyzer metric is low.
    fn biased_model() -> GuidedModel {
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
        GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::default())
    }

    /// A hub state stepping to each of twelve spokes equally often — no
    /// bias, so the analyzer metric is high.
    fn uniform_model() -> GuidedModel {
        let hub = StateKey::solo(p(0, 0));
        let mut run = Vec::new();
        for _ in 0..4 {
            for i in 0..12 {
                run.push(hub.clone());
                run.push(StateKey::solo(p(1, i)));
            }
        }
        GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::default())
    }

    /// Replay the model's own profiled distribution into the tracker.
    fn replay_profile(model: &GuidedModel, tracker: &DriftTracker) {
        let tsa = model.tsa();
        for id in tsa.state_ids() {
            for &(dst, f) in tsa.outbound(id) {
                for _ in 0..f {
                    tracker.record(id.0, dst.0);
                }
            }
        }
    }

    #[test]
    fn matching_distribution_is_fresh_with_zero_kl() {
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        replay_profile(&model, &tracker);
        let d = tracker.report();
        assert_eq!(d.verdict, DriftVerdict::Fresh, "reason: {}", d.reason);
        assert!(d.mean_kl_nats < 1e-9, "KL was {}", d.mean_kl_nats);
        assert_eq!(d.off_model_pct, 0.0);
        assert_eq!((d.off_edge, d.to_unknown, d.from_unknown), (0, 0, 0));
        // Replaying the profile reproduces the profiled metric exactly.
        let obs = d.observed_metric_pct.expect("observed data");
        assert!(
            (obs - d.profiled_metric_pct).abs() < 1e-9,
            "observed {obs} vs profiled {}",
            d.profiled_metric_pct
        );
        assert_eq!(d.observed_states, d.modeled_states);
    }

    #[test]
    fn profiled_metric_is_the_analyzer_metric() {
        for model in [biased_model(), uniform_model()] {
            let tracked = DriftTracker::new(&model).report().profiled_metric_pct;
            let analyzed = analyzer::analyze(&model).guidance_metric_pct;
            assert_eq!(tracked.to_bits(), analyzed.to_bits());
        }
    }

    #[test]
    fn too_few_transitions_is_insufficient() {
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        tracker.record(0, 1);
        let d = tracker.report();
        assert_eq!(d.verdict, DriftVerdict::Insufficient);
        assert_eq!(d.transitions_total(), 1);
    }

    #[test]
    fn uniform_observed_distribution_goes_stale_by_metric() {
        // Profile is biased (metric < 50); live behaviour hits every
        // modeled edge equally often → observed metric ≈ 100 → stale.
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        let tsa = model.tsa();
        for round in 0..40 {
            let _ = round;
            for id in tsa.state_ids() {
                for &(dst, _) in tsa.outbound(id) {
                    tracker.record(id.0, dst.0);
                }
            }
        }
        let d = tracker.report();
        assert!(d.profiled_metric_pct < 50.0);
        assert!(d.observed_metric_pct.unwrap() >= 50.0);
        assert_eq!(d.verdict, DriftVerdict::Stale, "reason: {}", d.reason);
        assert!(d.reason.contains("no longer biased"), "reason: {}", d.reason);
        assert!(d.mean_kl_nats > 0.0, "uniformized distribution has KL > 0");
    }

    #[test]
    fn off_model_transitions_are_classified_and_drive_staleness() {
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        let tsa = model.tsa();
        let s0 = 0u32;
        // A destination that is a modeled state but not an edge of s0.
        let non_dest = tsa
            .state_ids()
            .map(|i| i.0)
            .find(|&i| {
                i != s0
                    && !tsa
                        .outbound(crate::tsa::StateId(s0))
                        .iter()
                        .any(|&(d, _)| d.0 == i)
            })
            .expect("some non-destination exists");
        for _ in 0..100 {
            tracker.record(s0, non_dest);
            tracker.record(s0, UNKNOWN_STATE);
            tracker.record(UNKNOWN_STATE, s0);
        }
        let d = tracker.report();
        assert_eq!(d.off_edge, 100);
        assert_eq!(d.to_unknown, 100);
        assert_eq!(d.from_unknown, 100);
        assert_eq!(d.on_edge, 0);
        assert!((d.off_model_pct - 100.0).abs() < 1e-9);
        assert_eq!(d.verdict, DriftVerdict::Stale, "reason: {}", d.reason);
        assert!(d.reason.contains("modeled edge set"), "reason: {}", d.reason);
    }

    #[test]
    fn skewed_but_on_edge_distribution_reports_positive_kl() {
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        let tsa = model.tsa();
        // Observe only each state's *least* likely edge, many times: all
        // mass on-edge, but maximally reshaped.
        for id in tsa.state_ids() {
            if let Some(&(dst, _)) = tsa.outbound(id).last() {
                for _ in 0..50 {
                    tracker.record(id.0, dst.0);
                }
            }
        }
        let d = tracker.report();
        assert_eq!(d.off_model_pct, 0.0);
        assert!(d.mean_kl_nats > 0.5, "KL was {}", d.mean_kl_nats);
        assert!(
            d.verdict >= DriftVerdict::Drifting,
            "verdict {} reason {}",
            d.verdict,
            d.reason
        );
    }

    #[test]
    fn unknown_origin_majority_is_stale_by_coverage() {
        // The covered part matches the profile perfectly, but most of
        // the execution happens in states the model has never seen.
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        replay_profile(&model, &tracker);
        let on_edge = tracker.report().on_edge;
        // Push from-unknown past the stale share (60% of the total).
        for _ in 0..(2 * on_edge) {
            tracker.record(UNKNOWN_STATE, 0);
        }
        let d = tracker.report();
        assert!(d.mean_kl_nats < 1e-9, "covered part still matches");
        assert!(d.off_model_pct < 1.0);
        assert!(d.unknown_origin_pct() > 60.0, "{}", d.unknown_origin_pct());
        assert_eq!(d.verdict, DriftVerdict::Stale, "reason: {}", d.reason);
        assert!(d.reason.contains("no longer covers"), "reason: {}", d.reason);
    }

    #[test]
    fn record_is_thread_safe_and_conserves_counts() {
        let model = biased_model();
        let tracker = Arc::new(DriftTracker::new(&model));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let tracker = Arc::clone(&tracker);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    tracker.record(t % 10, (t + i) % 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let d = tracker.report();
        assert_eq!(d.transitions_total(), 4000);
    }

    #[test]
    fn verdict_codes_and_labels_are_stable() {
        assert_eq!(DriftVerdict::Insufficient.code(), 0);
        assert_eq!(DriftVerdict::Fresh.code(), 1);
        assert_eq!(DriftVerdict::Drifting.code(), 2);
        assert_eq!(DriftVerdict::Stale.code(), 3);
        assert_eq!(DriftVerdict::Stale.label(), "stale");
        assert_eq!(DriftVerdict::Fresh.to_string(), "fresh");
    }

    #[test]
    fn render_mentions_verdict_and_metrics() {
        let model = biased_model();
        let tracker = DriftTracker::new(&model);
        replay_profile(&model, &tracker);
        let text = tracker.report().render();
        assert!(text.contains("model drift: fresh"));
        assert!(text.contains("guidance metric"));
        assert!(text.contains("KL divergence"));
    }
}
