//! Guidance must never change program results — only timing. These tests
//! run workloads under default, recording, and guided hooks and compare
//! outcomes; they also exercise the model save/load path end to end.

use gstm_core::prelude::*;
use gstm_core::{model_io, GuidanceConfig};
use gstm_stamp::{by_name, InputSize, RunConfig};
use gstm_tl2::{Stm, StmConfig, TVar};
use std::sync::Arc;

#[test]
fn guided_counter_workload_is_exact() {
    // Train a model on the workload, then run guided: the counter total
    // must be exact regardless of gating decisions.
    let stm_cfg = StmConfig::with_yield_injection(2);
    let work = |stm: &Arc<Stm>, counters: &[TVar<u64>]| {
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(stm);
                let counters = counters.to_vec();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for i in 0..200usize {
                        let c = &counters[(t as usize + i) % counters.len()];
                        ctx.atomically(TxnId(0), |tx| tx.modify(c, |x| x + 1));
                    }
                });
            }
        });
    };

    let rec = Arc::new(RecorderHook::new());
    let mut runs = Vec::new();
    for _ in 0..3 {
        let counters: Vec<TVar<u64>> = (0..3).map(|_| TVar::new(0)).collect();
        let stm = Stm::with_robustness(rec.clone(), stm_cfg, None, None);
        work(&stm, &counters);
        runs.push(rec.take_run());
    }
    let model = Arc::new(GuidedModel::build(
        Tsa::from_runs(&runs),
        &GuidanceConfig::default(),
    ));

    let counters: Vec<TVar<u64>> = (0..3).map(|_| TVar::new(0)).collect();
    let hook = Arc::new(GuidedHook::new(model, GuidanceConfig::default()));
    let stm = Stm::with_robustness(hook.clone(), stm_cfg, None, None);
    work(&stm, &counters);
    let total: u64 = counters.iter().map(TVar::load_quiesced).sum();
    assert_eq!(total, 800, "guidance corrupted the computation");
    let gate = hook.stats();
    assert!(
        gate.passed + gate.waited + gate.released > 0,
        "the gate was actually consulted"
    );
}

#[test]
fn guided_stamp_results_match_default() {
    // genome's checksum is schedule-invariant: default and guided must
    // agree bit-for-bit.
    let bench = by_name("genome").unwrap();
    let run_cfg = RunConfig {
        threads: 4,
        size: InputSize::Small,
        seed: 31,
    };
    let stm_cfg = StmConfig::with_yield_injection(3);

    let rec = Arc::new(RecorderHook::new());
    let mut runs = Vec::new();
    for _ in 0..2 {
        let stm = Stm::with_robustness(rec.clone(), stm_cfg, None, None);
        bench.run(&stm, &run_cfg);
        runs.push(rec.take_run());
    }
    let model = Arc::new(GuidedModel::build(
        Tsa::from_runs(&runs),
        &GuidanceConfig::default(),
    ));

    let default = bench.run(&Stm::new(stm_cfg), &run_cfg);
    let guided = bench.run(
        &Stm::with_robustness(
            Arc::new(GuidedHook::new(model, GuidanceConfig::default())),
            stm_cfg,
            None,
            None,
        ),
        &run_cfg,
    );
    assert_eq!(default.checksum, guided.checksum);
}

#[test]
fn model_round_trips_through_disk_and_still_guides() {
    // Profile kmeans, save the automaton in the compact format, reload
    // it, rebuild the guided model, and run guided.
    let bench = by_name("kmeans").unwrap();
    let run_cfg = RunConfig {
        threads: 2,
        size: InputSize::Small,
        seed: 7,
    };
    let stm_cfg = StmConfig::with_yield_injection(3);

    let rec = Arc::new(RecorderHook::new());
    let mut runs = Vec::new();
    for _ in 0..2 {
        let stm = Stm::with_robustness(rec.clone(), stm_cfg, None, None);
        bench.run(&stm, &run_cfg);
        runs.push(rec.take_run());
    }
    let tsa = Tsa::from_runs(&runs);

    let dir = std::env::temp_dir().join("gstm_integration_model");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state_data");
    model_io::save(&tsa, &path).unwrap();
    let loaded = model_io::load(&path).unwrap();
    assert_eq!(loaded.num_states(), tsa.num_states());
    assert_eq!(loaded.num_edges(), tsa.num_edges());

    let model = Arc::new(GuidedModel::build(loaded, &GuidanceConfig::default()));
    let hook = Arc::new(GuidedHook::new(model, GuidanceConfig::default()));
    let r = bench.run(&Stm::with_robustness(hook, stm_cfg, None, None), &run_cfg);
    assert!(r.per_thread_secs.iter().all(|&t| t > 0.0));
    std::fs::remove_file(&path).ok();
}

#[test]
fn gate_released_threads_always_make_progress() {
    // A model trained on a *different* workload gives useless guidance;
    // the k-retry escape must still let every transaction through.
    let alien_runs = vec![vec![
        StateKey::solo(Pair::new(TxnId(9), ThreadId(9))),
        StateKey::solo(Pair::new(TxnId(8), ThreadId(8))),
        StateKey::solo(Pair::new(TxnId(9), ThreadId(9))),
    ]];
    let model = Arc::new(GuidedModel::build(
        Tsa::from_runs(&alien_runs),
        &GuidanceConfig::default(),
    ));
    let hook = Arc::new(GuidedHook::new(model, GuidanceConfig::default()));
    let stm = Stm::with_robustness(hook, StmConfig::default(), None, None);
    let v = TVar::new(0u32);
    // Drive the tracker into the alien model's state space.
    let mut ctx = stm.register_as(ThreadId(9));
    ctx.atomically(TxnId(9), |tx| tx.modify(&v, |x| x + 1));
    // Now a completely unrelated transaction must still complete.
    let mut ctx2 = stm.register_as(ThreadId(0));
    ctx2.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
    assert_eq!(v.load_quiesced(), 2);
}
