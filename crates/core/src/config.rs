//! Configuration knobs for guided execution.

/// Tunables of the guided-execution framework (Sections V–VI of the paper).
#[derive(Clone, Copy, Debug)]
pub struct GuidanceConfig {
    /// The *Tfactor* knob: the destination-set threshold is
    /// `P_h / tfactor`, where `P_h` is the largest outbound transition
    /// probability of the current state. The paper sweeps 1..=10 and
    /// settles on 4 ("some machines might require 6").
    pub tfactor: f64,
    /// `k`: how many times a gated transaction re-examines the (possibly
    /// changed) current state before it is released anyway to guarantee
    /// progress and avoid deadlock.
    pub k_retries: u32,
    /// How many spin iterations (each ending in a `yield_now`) one gate
    /// retry waits for the current state to change before counting a retry.
    pub wait_spins: u32,
    /// Minimum number of states for a model to be considered trainable at
    /// all; below this the analyzer declares the model unfit ("if the model
    /// contains too few states ... the model is unfit").
    pub min_states: usize,
    /// Guidance-metric percentage at or above which the analyzer rejects
    /// the model ("If the metric is above 50 ... most of the transition
    /// states in the model are high probability states").
    pub metric_reject_pct: f64,
}

impl Default for GuidanceConfig {
    fn default() -> Self {
        GuidanceConfig {
            tfactor: 4.0,
            k_retries: 16,
            wait_spins: 2,
            min_states: 8,
            metric_reject_pct: 50.0,
        }
    }
}

impl GuidanceConfig {
    /// A config with a specific Tfactor, other knobs at defaults.
    pub fn with_tfactor(tfactor: f64) -> Self {
        GuidanceConfig {
            tfactor,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GuidanceConfig::default();
        assert_eq!(c.tfactor, 4.0);
        assert_eq!(c.metric_reject_pct, 50.0);
        assert!(c.k_retries > 0);
    }

    #[test]
    fn with_tfactor_overrides_only_tfactor() {
        let c = GuidanceConfig::with_tfactor(6.0);
        assert_eq!(c.tfactor, 6.0);
        assert_eq!(c.k_retries, GuidanceConfig::default().k_retries);
    }
}
