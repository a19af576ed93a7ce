//! Model-drift walkthrough: run kmeans guided twice — once with a model
//! profiled under the *same* conditions as the measured execution, once
//! with a deliberately stale model profiled at a different concurrency
//! level — each with a [`DriftTracker`] attached, and print the two
//! drift reports side by side. The stale model's report should carry a
//! `drifting`/`stale` verdict and a re-profile recommendation; the
//! matching model's should not.
//!
//! ```sh
//! cargo run --release --example drift_demo [threads] [runs]
//! ```

use gstm_core::drift::DriftTracker;
use gstm_core::guidance::{GuidedHook, RecorderHook};
use gstm_core::tsa::{GuidedModel, Tsa};
use gstm_core::tss::StateKey;
use gstm_harness::experiment::ExperimentConfig;
use gstm_stamp::{by_name, Benchmark, InputSize, RunConfig};
use gstm_tl2::{StmBuilder, StmConfig};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u16 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let runs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let stale_threads = (threads / 2).max(1);

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

    println!(
        "profiling kmeans: matching model @ {threads} threads, stale model @ {stale_threads} \
         threads ({runs} runs each) ..."
    );
    let fresh = Arc::new(GuidedModel::build(
        Tsa::from_runs(&profile(&*bench, &cfg, threads)),
        &cfg.guidance,
    ));
    let stale = Arc::new(GuidedModel::build(
        Tsa::from_runs(&profile(&*bench, &cfg, stale_threads)),
        &cfg.guidance,
    ));
    println!(
        "matching model: {} states; stale model: {} states\n",
        fresh.tsa().num_states(),
        stale.tsa().num_states()
    );

    let mut codes = Vec::new();
    for (label, model) in [
        (format!("matching (profiled @ {threads} threads)"), fresh),
        (format!("stale (profiled @ {stale_threads} threads)"), stale),
    ] {
        let drift = Arc::new(DriftTracker::new(&model));
        let hook = Arc::new(GuidedHook::with_observability(
            model,
            cfg.guidance,
            None,
            Some(drift.clone()),
        ));
        for _ in 0..cfg.measure_runs {
            let stm = StmBuilder::new(StmConfig {
                yield_prob_log2: cfg.yield_k,
                ..StmConfig::default()
            })
            .hook(hook.clone())
            .build();
            bench.run(
                &stm,
                &RunConfig { threads, size: cfg.test_size, seed: cfg.seed },
            );
            hook.take_run();
        }
        let report = drift.report();
        println!("--- drift report: {label} model ---");
        print!("{}", report.render());
        println!();
        codes.push(report.verdict.code());
    }

    if codes[1] > codes[0] && codes[1] >= 2 {
        println!(
            "stale model correctly flagged ({} > {}): guidance would re-profile here",
            codes[1], codes[0]
        );
    } else {
        println!(
            "warning: expected the stale model to rank worse (matching code {}, stale code {})",
            codes[0], codes[1]
        );
    }
}

/// Profile `bench` at `threads` threads and return one Tseq per run.
fn profile(bench: &dyn Benchmark, cfg: &ExperimentConfig, threads: u16) -> Vec<Vec<StateKey>> {
    let recorder = Arc::new(RecorderHook::new());
    let mut runs = Vec::with_capacity(cfg.profile_runs);
    for _ in 0..cfg.profile_runs {
        let stm = StmBuilder::new(StmConfig {
            yield_prob_log2: cfg.yield_k,
            ..StmConfig::default()
        })
        .hook(recorder.clone())
        .build();
        bench.run(
            &stm,
            &RunConfig { threads, size: cfg.train_size, seed: cfg.seed },
        );
        runs.push(recorder.take_run());
    }
    runs
}
