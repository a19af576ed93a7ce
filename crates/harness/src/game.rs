//! The SynQuake pipeline: train on `4worst_case` + `4moving`, test on
//! `4quadrants` and `4center_spread6` (Section VIII of the paper).

use gstm_core::prelude::*;
use gstm_core::{analyzer, metrics};
use gstm_libtm::{LibTm, LibTmConfig};
use gstm_synquake::{run_game, GameConfig, QuestLayout};
use std::sync::Arc;

/// Parameters of one SynQuake experiment.
#[derive(Clone, Copy, Debug)]
pub struct GameExperimentConfig {
    /// Worker threads (paper: 8 and 16).
    pub threads: u16,
    /// Players (paper: 1000).
    pub players: u32,
    /// Training frames per training quest (paper: 1000).
    pub train_frames: u64,
    /// Test frames per test quest (paper: 10000).
    pub test_frames: u64,
    /// Interleave-injection exponent.
    pub yield_k: Option<u32>,
    /// Guidance tunables.
    pub guidance: GuidanceConfig,
    /// Input seed.
    pub seed: u64,
}

impl GameExperimentConfig {
    /// A scaled-down default for this host (the paper's frame counts are
    /// scaled by ~20×; shapes are preserved, see EXPERIMENTS.md).
    pub fn quick(threads: u16) -> Self {
        GameExperimentConfig {
            threads,
            players: 192,
            train_frames: 48,
            test_frames: 96,
            yield_k: Some(2),
            guidance: GuidanceConfig::default(),
            seed: 0x9a3e,
        }
    }
}

/// Per-quest measurements under one mode.
#[derive(Clone, Debug)]
pub struct GameModeMeasurement {
    /// Per-frame processing times, seconds.
    pub frame_secs: Vec<f64>,
    /// Abort ratio (aborts / (aborts + commits)).
    pub abort_ratio: f64,
    /// Total processing time.
    pub total_secs: f64,
    /// World-audit failures (must be 0).
    pub audit_failures: usize,
}

/// Results for one test quest.
#[derive(Clone, Debug)]
pub struct GameQuestResult {
    /// The test quest.
    pub quest: QuestLayout,
    /// Unguided measurement.
    pub default_m: GameModeMeasurement,
    /// Guided measurement.
    pub guided_m: GameModeMeasurement,
}

impl GameQuestResult {
    /// Percentage improvement in frame-time standard deviation
    /// (Figures 11a/12a).
    pub fn frame_variance_improvement_pct(&self) -> f64 {
        metrics::pct_improvement(
            metrics::std_dev(&self.default_m.frame_secs),
            metrics::std_dev(&self.guided_m.frame_secs),
        )
    }

    /// Percentage reduction in abort ratio (Figures 11b/12b).
    pub fn abort_reduction_pct(&self) -> f64 {
        metrics::pct_improvement(self.default_m.abort_ratio, self.guided_m.abort_ratio)
    }

    /// Slowdown (×) of guided over default (Figures 11c/12c; below 1.0 is
    /// a speedup, which the paper observes at 8 threads).
    pub fn slowdown(&self) -> f64 {
        metrics::slowdown(self.default_m.total_secs, self.guided_m.total_secs)
    }
}

/// Everything the SynQuake pipeline produced at one thread count.
#[derive(Clone, Debug)]
pub struct GameExperiment {
    /// Worker threads.
    pub threads: u16,
    /// States in the model trained on the two training quests.
    pub model_states: usize,
    /// Analyzer report (Table V).
    pub analyzer: AnalyzerReport,
    /// Results for `4quadrants` (Figure 11).
    pub quadrants: GameQuestResult,
    /// Results for `4center_spread6` (Figure 12).
    pub center_spread: GameQuestResult,
}

fn tm_config(cfg: &GameExperimentConfig) -> LibTmConfig {
    LibTmConfig {
        yield_prob_log2: cfg.yield_k,
    }
}

fn game_config(cfg: &GameExperimentConfig, quest: QuestLayout, frames: u64) -> GameConfig {
    GameConfig {
        threads: cfg.threads,
        players: cfg.players,
        frames,
        quest,
        seed: cfg.seed,
        ..GameConfig::default()
    }
}

fn play<H: GuidanceHook + 'static>(
    cfg: &GameExperimentConfig,
    quest: QuestLayout,
    frames: u64,
    hook: Arc<H>,
) -> GameModeMeasurement {
    let tm = LibTm::with_hook(hook, tm_config(cfg));
    let r = run_game(&tm, &game_config(cfg, quest, frames));
    let stats = r.merged_stats();
    GameModeMeasurement {
        total_secs: r.frame_secs.iter().sum(),
        frame_secs: r.frame_secs,
        abort_ratio: stats.abort_hist.abort_ratio(),
        audit_failures: r.audit_failures,
    }
}

/// Run the full SynQuake pipeline at one thread count.
pub fn run_game_experiment(cfg: &GameExperimentConfig) -> GameExperiment {
    // ---- Train on 4worst_case and 4moving ----
    let recorder = Arc::new(RecorderHook::new());
    let mut train_runs = Vec::new();
    for quest in [QuestLayout::WorstCase4, QuestLayout::Moving4] {
        let _ = play(cfg, quest, cfg.train_frames, recorder.clone());
        train_runs.push(recorder.take_run());
    }
    let tsa = Tsa::from_runs(&train_runs);
    let model_states = tsa.num_states();
    let model = Arc::new(GuidedModel::build(tsa, &cfg.guidance));
    let analyzer_report = analyzer::analyze_with(&model, &cfg.guidance);

    // ---- Test on 4quadrants and 4center_spread6 ----
    let test = |quest: QuestLayout| -> GameQuestResult {
        let default_m = play(cfg, quest, cfg.test_frames, Arc::new(NoopHook));
        let guided_m = play(
            cfg,
            quest,
            cfg.test_frames,
            Arc::new(GuidedHook::new(model.clone(), cfg.guidance)),
        );
        GameQuestResult {
            quest,
            default_m,
            guided_m,
        }
    };
    let quadrants = test(QuestLayout::Quadrants4);
    let center_spread = test(QuestLayout::CenterSpread6);

    GameExperiment {
        threads: cfg.threads,
        model_states,
        analyzer: analyzer_report,
        quadrants,
        center_spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn game_pipeline_runs_end_to_end() {
        let cfg = GameExperimentConfig {
            threads: 2,
            players: 32,
            train_frames: 10,
            test_frames: 12,
            yield_k: Some(3),
            guidance: GuidanceConfig::default(),
            seed: 4,
        };
        let e = run_game_experiment(&cfg);
        assert!(e.model_states > 0);
        assert_eq!(e.quadrants.default_m.frame_secs.len(), 12);
        assert_eq!(e.quadrants.default_m.audit_failures, 0);
        assert_eq!(e.quadrants.guided_m.audit_failures, 0);
        assert_eq!(e.center_spread.quest, QuestLayout::CenterSpread6);
        assert!(e.quadrants.slowdown() > 0.0);
    }
}
