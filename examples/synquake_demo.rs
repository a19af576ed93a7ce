//! SynQuake demo: run the game server on every quest layout and print
//! frame-time statistics, abort ratios, and the world audit.
//!
//! ```sh
//! cargo run --release --example synquake_demo [threads] [players] [frames]
//! ```

use gstm_core::metrics;
use gstm_libtm::{LibTm, LibTmConfig};
use gstm_synquake::{run_game, GameConfig, QuestLayout};

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u16 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let players: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(192);
    let frames: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);

    println!("SynQuake: {players} players, {frames} frames, {threads} threads\n");
    println!(
        "{:<16} {:>10} {:>10} {:>8} {:>8} {:>7}",
        "quest", "mean ms", "stddev ms", "aborts", "commits", "audit"
    );
    for quest in [
        QuestLayout::WorstCase4,
        QuestLayout::Moving4,
        QuestLayout::Quadrants4,
        QuestLayout::CenterSpread6,
    ] {
        let tm = LibTm::new(LibTmConfig {
            yield_prob_log2: Some(2),
        });
        let cfg = GameConfig {
            threads,
            players,
            frames,
            quest,
            ..GameConfig::default()
        };
        let r = run_game(&tm, &cfg);
        let stats = r.merged_stats();
        println!(
            "{:<16} {:>10.3} {:>10.3} {:>8} {:>8} {:>7}",
            quest.name(),
            metrics::mean(&r.frame_secs) * 1e3,
            metrics::std_dev(&r.frame_secs) * 1e3,
            stats.aborts,
            stats.commits,
            if r.audit_failures == 0 { "ok" } else { "BAD" },
        );
        assert_eq!(r.audit_failures, 0, "world must stay consistent");
    }
    println!(
        "\nquests that concentrate players (4worst_case, 4center_spread6) \
         conflict more than the spread-out 4quadrants."
    );
}
