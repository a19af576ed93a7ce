//! Quickstart: the guided-STM pipeline end to end on a toy workload.
//!
//! 1. Run a contended STM workload while *profiling* it (recording the
//!    sequence of thread transactional states).
//! 2. Build the Thread State Automaton and ask the analyzer whether the
//!    model is biased enough to guide execution.
//! 3. Re-run the workload *guided* by the model and compare the
//!    run-to-run variance of each thread's execution time.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gstm_core::prelude::*;
use gstm_core::{analyzer, metrics};
use gstm_tl2::{Stm, StmConfig, TVar};
use std::sync::Arc;
use std::time::Instant;

const THREADS: u16 = 4;
const OPS_PER_THREAD: usize = 400;
const RUNS: usize = 8;

/// A contended workload: all threads hammer a small set of counters.
fn workload(stm: &Arc<Stm>) -> Vec<f64> {
    let counters: Vec<TVar<u64>> = (0..4).map(|_| TVar::new(0)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stm = Arc::clone(stm);
                let counters = counters.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let t0 = Instant::now();
                    for i in 0..OPS_PER_THREAD {
                        let c = &counters[(t as usize + i) % counters.len()];
                        ctx.atomically(TxnId(0), |tx| tx.modify(c, |x| x + 1));
                    }
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn per_thread_std_dev(times: &[Vec<f64>]) -> Vec<f64> {
    (0..THREADS as usize)
        .map(|t| {
            let series: Vec<f64> = times.iter().map(|run| run[t]).collect();
            metrics::std_dev(&series)
        })
        .collect()
}

fn main() {
    let stm_config = StmConfig::with_yield_injection(2);

    // --- 1. Profile ---
    println!("profiling {RUNS} runs ...");
    let recorder = Arc::new(RecorderHook::new());
    let mut train_runs = Vec::new();
    for _ in 0..RUNS {
        let stm = Stm::with_robustness(recorder.clone(), stm_config, None, None);
        workload(&stm);
        train_runs.push(recorder.take_run());
    }

    // --- 2. Model + analysis ---
    let tsa = Tsa::from_runs(&train_runs);
    println!(
        "model: {} states, {} edges",
        tsa.num_states(),
        tsa.num_edges()
    );
    let guidance = GuidanceConfig::default();
    let model = Arc::new(GuidedModel::build(tsa, &guidance));
    let report = analyzer::analyze(&model);
    println!(
        "analyzer: guidance metric {:.1}% -> {:?}",
        report.guidance_metric_pct, report.verdict
    );

    // --- 3. Measure default vs guided ---
    let mut default_times = Vec::new();
    for _ in 0..RUNS {
        let stm = Stm::new(stm_config);
        default_times.push(workload(&stm));
    }
    let guided_hook = Arc::new(GuidedHook::new(model, guidance));
    let mut guided_times = Vec::new();
    for _ in 0..RUNS {
        let stm = Stm::with_robustness(guided_hook.clone(), stm_config, None, None);
        guided_times.push(workload(&stm));
    }

    let d = per_thread_std_dev(&default_times);
    let g = per_thread_std_dev(&guided_times);
    println!("\nper-thread execution-time std-dev (seconds):");
    println!("thread |   default |    guided | improvement");
    for t in 0..THREADS as usize {
        println!(
            "{t:>6} | {:>9.6} | {:>9.6} | {:>10.1}%",
            d[t],
            g[t],
            metrics::pct_improvement(d[t], g[t])
        );
    }
    let gate = guided_hook.stats();
    println!(
        "\ngate: {} passed, {} waited, {} released, {} unknown states",
        gate.passed, gate.waited, gate.released, gate.unknown_states
    );
}
