//! SynQuake integration: the game stays consistent on LibTM, under
//! default and guided execution.

use gstm_core::prelude::*;
use gstm_core::GuidanceConfig;
use gstm_libtm::{LibTm, LibTmConfig};
use gstm_synquake::{cross_thread_overlaps, run_game, GameConfig, QuestLayout};
use std::sync::Arc;

fn quick_cfg(quest: QuestLayout) -> GameConfig {
    GameConfig {
        threads: 3,
        players: 48,
        frames: 15,
        map_size: 256,
        cell_size: 64,
        quest,
        seed: 77,
        speed: 24,
        attack_pct: 30,
        pickup_pct: 10,
        items: 24,
    }
}

#[test]
fn world_is_consistent_under_libtm() {
    let tm = LibTm::new(LibTmConfig {
        yield_prob_log2: Some(3),
    });
    let r = run_game(&tm, &quick_cfg(QuestLayout::WorstCase4));
    assert_eq!(r.audit_failures, 0, "corrupt world");
    assert_eq!(r.frame_secs.len(), 15);
}

#[test]
fn guided_game_preserves_world_consistency() {
    let guidance = GuidanceConfig::default();
    let tm_cfg = LibTmConfig {
        yield_prob_log2: Some(3),
    };
    // Train on the paper's training quests.
    let rec = Arc::new(RecorderHook::new());
    let mut runs = Vec::new();
    for quest in [QuestLayout::WorstCase4, QuestLayout::Moving4] {
        let tm = LibTm::with_hook(rec.clone(), tm_cfg);
        run_game(&tm, &quick_cfg(quest));
        runs.push(rec.take_run());
    }
    assert!(runs.iter().any(|r| !r.is_empty()), "training recorded states");
    let model = Arc::new(GuidedModel::build(Tsa::from_runs(&runs), &guidance));

    // Guided test runs on the paper's test quests.
    for quest in [QuestLayout::Quadrants4, QuestLayout::CenterSpread6] {
        let hook = Arc::new(GuidedHook::new(model.clone(), guidance));
        let tm = LibTm::with_hook(hook, tm_cfg);
        let r = run_game(&tm, &quick_cfg(quest));
        assert_eq!(r.audit_failures, 0, "guided run corrupted {}", quest.name());
    }
}

#[test]
fn contention_ranks_worst_case_above_quadrants() {
    // The quest layouts exist to modulate contention: stacking all four
    // quests on one spot must conflict more than spreading them out.
    // Abort ratios measure the scheduler as much as the layout, so the
    // comparison counts the cross-thread action pairs whose cell
    // footprints overlap, which no schedule can change.
    let overlaps = |quest| -> u64 {
        (0..3u64)
            .map(|seed| {
                let mut cfg = quick_cfg(quest);
                cfg.players = 96;
                cfg.frames = 50;
                cfg.seed = 1000 + seed;
                cross_thread_overlaps(&cfg).iter().sum::<u64>()
            })
            .sum()
    };
    let worst = overlaps(QuestLayout::WorstCase4);
    let quad = overlaps(QuestLayout::Quadrants4);
    assert!(
        worst > quad,
        "4worst_case ({worst} overlapping pairs) should out-conflict 4quadrants ({quad})"
    );
}
