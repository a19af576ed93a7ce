//! Telemetry walkthrough: run kmeans unguided and guided with a
//! [`Telemetry`] collector attached to each STM, then print the two
//! abort-cause breakdowns side by side, the commit-latency summaries,
//! the guided gate outcomes, and the guided run's Prometheus exposition.
//!
//! ```sh
//! cargo run --release --example telemetry_demo [threads] [runs]
//! ```

use gstm_core::guidance::{GuidedHook, NoopHook};
use gstm_core::telemetry::{Telemetry, TelemetrySnapshot, ABORT_CAUSE_NAMES};
use gstm_harness::experiment::{train_model, ExperimentConfig};
use gstm_stamp::{by_name, Benchmark, InputSize, RunConfig};
use gstm_tl2::{StmBuilder, StmConfig};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u16 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let runs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);

    let bench = by_name("kmeans").expect("kmeans is registered");
    let cfg = ExperimentConfig {
        threads,
        profile_runs: runs,
        measure_runs: runs,
        train_size: InputSize::Small,
        test_size: InputSize::Small,
        yield_k: Some(2),
        guidance: Default::default(),
        seed: 0x7e1e_5eed,
        adaptive: None,
        profile_threads: None,
    };

    println!("training guided model on kmeans @ {threads} threads ({runs} profiling runs) ...");
    let model = Arc::new(train_model(&*bench, &cfg));
    println!("model: {} states\n", model.tsa().num_states());

    // Unguided: NoopHook, telemetry counting every commit and abort.
    let unguided = Arc::new(Telemetry::counters_only());
    drive(&*bench, &cfg, Arc::new(NoopHook), &unguided, runs);

    // Guided: same workload through the gate, reporting into its own
    // collector. One hook across runs, like the harness's phase 4.
    let guided = Arc::new(Telemetry::counters_only());
    let hook = Arc::new(GuidedHook::with_telemetry(
        model,
        cfg.guidance,
        Some(guided.clone()),
    ));
    drive(&*bench, &cfg, hook, &guided, runs);

    let u = unguided.snapshot();
    let g = guided.snapshot();

    println!("telemetry, {runs} runs each @ {threads} threads:\n");
    println!("{:<22} {:>12} {:>12}", "", "unguided", "guided");
    println!("{:<22} {:>12} {:>12}", "commits", u.commits, g.commits);
    println!(
        "{:<22} {:>12} {:>12}",
        "aborts",
        u.aborts_total(),
        g.aborts_total()
    );
    for (i, name) in ABORT_CAUSE_NAMES.iter().enumerate() {
        if u.aborts[i] != 0 || g.aborts[i] != 0 {
            println!(
                "{:<22} {:>12} {:>12}",
                format!("  cause={name}"),
                u.aborts[i],
                g.aborts[i]
            );
        }
    }
    println!(
        "{:<22} {:>11.2}% {:>11.2}%",
        "abort rate",
        abort_rate(&u),
        abort_rate(&g)
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "commit p50 (ns, ≤)",
        u.commit_ns.quantile_upper_bound(0.50),
        g.commit_ns.quantile_upper_bound(0.50)
    );
    println!(
        "{:<22} {:>12} {:>12}",
        "commit p99 (ns, ≤)",
        u.commit_ns.quantile_upper_bound(0.99),
        g.commit_ns.quantile_upper_bound(0.99)
    );
    println!(
        "\nguided gate outcomes: {} passed / {} waited / {} released",
        g.gate_passed, g.gate_waited, g.gate_released
    );
    if g.gate_wait_ns.count > 0 {
        println!(
            "gate latency p99: ≤ {} ns over {} gated attempts",
            g.gate_wait_ns.quantile_upper_bound(0.99),
            g.gate_wait_ns.count
        );
    }

    println!("\n--- guided Prometheus exposition ---");
    print!("{}", g.render_prometheus());
}

/// Run `runs` executions of `bench` on fresh STM instances that all
/// report into `telemetry`.
fn drive(
    bench: &dyn Benchmark,
    cfg: &ExperimentConfig,
    hook: Arc<dyn gstm_core::guidance::GuidanceHook>,
    telemetry: &Arc<Telemetry>,
    runs: usize,
) {
    let stm_cfg = StmConfig {
        yield_prob_log2: cfg.yield_k,
        ..StmConfig::default()
    };
    let run_cfg = RunConfig {
        threads: cfg.threads,
        size: cfg.test_size,
        seed: cfg.seed,
    };
    for _ in 0..runs {
        let stm = StmBuilder::new(stm_cfg)
            .hook(hook.clone())
            .telemetry(Some(telemetry.clone()))
            .build();
        bench.run(&stm, &run_cfg);
    }
}

fn abort_rate(s: &TelemetrySnapshot) -> f64 {
    let attempts = s.commits + s.aborts_total();
    if attempts == 0 {
        0.0
    } else {
        100.0 * s.aborts_total() as f64 / attempts as f64
    }
}
