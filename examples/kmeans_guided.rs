//! Guided kmeans: run the paper's full pipeline on one STAMP benchmark
//! and print the per-thread variance comparison, the model summary, and
//! the non-determinism reduction — a one-benchmark slice of Figures 4, 9
//! and 10.
//!
//! ```sh
//! cargo run --release --example kmeans_guided [threads] [runs]
//! ```

use gstm_core::metrics;
use gstm_harness::experiment::{run_experiment, ExperimentConfig};
use gstm_stamp::{by_name, InputSize};

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u16 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let runs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);

    let bench = by_name("kmeans").expect("kmeans is registered");
    let cfg = ExperimentConfig {
        threads,
        profile_runs: runs,
        measure_runs: runs,
        train_size: InputSize::Medium,
        test_size: InputSize::Medium,
        yield_k: Some(2),
        guidance: Default::default(),
        seed: 0x5eed_cafe,
        adaptive: None,
        profile_threads: None,
    };
    println!("running kmeans pipeline @ {threads} threads, {runs} runs/mode ...");
    let e = run_experiment(&*bench, &cfg);

    println!(
        "\nmodel: {} states; analyzer metric {:.1}% ({:?})",
        e.model_states, e.analyzer.guidance_metric_pct, e.analyzer.verdict
    );

    let d = e.default_m.per_thread_std_dev();
    let g = e.guided_m.per_thread_std_dev();
    println!("\nper-thread execution-time std-dev (Figure 4 row for kmeans):");
    println!("thread |   default |    guided | improvement");
    for t in 0..threads as usize {
        println!(
            "{t:>6} | {:>9.6} | {:>9.6} | {:>10.1}%",
            d[t],
            g[t],
            metrics::pct_improvement(d[t], g[t])
        );
    }

    println!(
        "\nnon-determinism: default {} distinct states, guided {} ({:+.1}% reduction)",
        e.default_m.non_determinism,
        e.guided_m.non_determinism,
        e.nondeterminism_reduction_pct()
    );
    println!(
        "abort-tail metric improvement: {:.1}% (Table IV row)",
        e.tail_improvement_pct()
    );
    println!("slowdown: {:.2}x (Figure 10 row)", e.slowdown());
    println!(
        "gate: {} passed / {} waited / {} released / {} unknown states",
        e.gate.passed, e.gate.waited, e.gate.released, e.gate.unknown_states
    );
}
