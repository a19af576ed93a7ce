//! End-to-end pipeline integration: every STAMP benchmark through
//! profile → model → analyze → default/guided measurement.

use gstm_core::GuidanceConfig;
use gstm_harness::experiment::{run_experiment, ExperimentConfig};
use gstm_stamp::{all_benchmarks, InputSize};

fn cfg(threads: u16) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        profile_runs: 3,
        measure_runs: 4,
        train_size: InputSize::Small,
        test_size: InputSize::Small,
        yield_k: Some(3),
        guidance: GuidanceConfig::default(),
        seed: 0xbeef,
        adaptive: None,
        profile_threads: None,
    }
}

#[test]
fn every_benchmark_completes_the_pipeline() {
    for bench in all_benchmarks() {
        let e = run_experiment(&*bench, &cfg(4));
        assert!(e.model_states > 0, "{}: empty model", e.name);
        assert!(
            (0.0..=100.0).contains(&e.analyzer.guidance_metric_pct),
            "{}: metric out of range",
            e.name
        );
        assert_eq!(e.default_m.per_thread_times.len(), 4, "{}", e.name);
        assert_eq!(e.guided_m.per_thread_times.len(), 4, "{}", e.name);
        for run in &e.default_m.per_thread_times {
            assert_eq!(run.len(), 4, "{}: thread count", e.name);
            assert!(run.iter().all(|&t| t > 0.0), "{}: zero timing", e.name);
        }
        assert!(e.default_m.non_determinism > 0, "{}", e.name);
        assert!(e.guided_m.non_determinism > 0, "{}", e.name);
        assert!(e.slowdown() > 0.0, "{}", e.name);
        // Work happened in both modes.
        let dc: u64 = e
            .default_m
            .per_thread_hists
            .iter()
            .map(|h| h.total_commits())
            .sum();
        let gc: u64 = e
            .guided_m
            .per_thread_hists
            .iter()
            .map(|h| h.total_commits())
            .sum();
        assert!(dc > 0 && gc > 0, "{}: no commits", e.name);
    }
}

#[test]
fn analyzer_ranks_ssca2_worst_among_contended_benchmarks() {
    // The paper's Table I shape: ssca2's transition distribution is the
    // most uniform of the suite because it barely conflicts. Compare it
    // against the most biased models (kmeans) rather than every
    // benchmark — list-heavy ones legitimately score high too.
    let ssca2 = all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "ssca2")
        .unwrap();
    let kmeans = all_benchmarks()
        .into_iter()
        .find(|b| b.name() == "kmeans")
        .unwrap();
    let e_s = run_experiment(&*ssca2, &cfg(4));
    let e_k = run_experiment(&*kmeans, &cfg(4));
    // ssca2 has near-zero aborts; its states are almost all solo commits.
    let s_aborts = e_s.default_m.total_aborts();
    let k_aborts = e_k.default_m.total_aborts();
    assert!(
        s_aborts * 4 < k_aborts.max(1),
        "ssca2 ({s_aborts}) must abort far less than kmeans ({k_aborts})"
    );
}

#[test]
fn deterministic_benchmarks_produce_identical_checksums_across_modes() {
    use gstm_stamp::{by_name, RunConfig};
    use gstm_tl2::{Stm, StmConfig};
    // genome and intruder define schedule-invariant checksums; default
    // and guided execution must agree (guidance never changes results).
    for name in ["genome", "intruder", "ssca2"] {
        let bench = by_name(name).unwrap();
        let run_cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 123,
        };
        let stm_cfg = StmConfig::with_yield_injection(3);
        let r1 = bench.run(&Stm::new(stm_cfg), &run_cfg);
        let r2 = bench.run(&Stm::new(stm_cfg), &run_cfg);
        assert_eq!(r1.checksum, r2.checksum, "{name}: run-to-run checksum");
    }
}
