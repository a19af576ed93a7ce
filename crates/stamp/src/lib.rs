//! # gstm-stamp — Rust ports of the STAMP benchmark suite
//!
//! Transactional kernels of the seven STAMP applications the paper
//! evaluates (Stanford Transactional Applications for Multi-Processing,
//! Cao Minh et al., IISWC'08): *genome*, *intruder*, *kmeans*,
//! *labyrinth*, *ssca2*, *vacation*, and *yada*. (*bayes* is excluded —
//! the paper excludes it too, as it seg-faults in the original suite.)
//!
//! Each port reproduces the original's transactional structure — which
//! data is shared, which operations are atomic, how work is divided among
//! threads — on top of [`gstm_tl2`] and the containers in
//! [`gstm_structs`]. Inputs come from seeded generators reproducing the
//! documented input parameters at [`InputSize`] presets scaled for this
//! reproduction's single-host setting.
//!
//! Every benchmark implements [`Benchmark`]: the harness hands it a
//! pre-configured [`Stm`] (plain, recording, or guided — the benchmark
//! never knows) and receives per-thread timings and abort statistics back.
//!
//! ## Example
//!
//! ```
//! use gstm_stamp::{by_name, RunConfig, InputSize};
//! use gstm_tl2::{Stm, StmConfig};
//!
//! let kmeans = by_name("kmeans").unwrap();
//! let stm = Stm::new(StmConfig::default());
//! let cfg = RunConfig { threads: 2, size: InputSize::Small, seed: 42 };
//! let result = kmeans.run(&stm, &cfg);
//! assert_eq!(result.per_thread_secs.len(), 2);
//! assert!(result.merged_stats().commits > 0);
//! ```

#![forbid(unsafe_code)]

mod genome;
mod intruder;
mod kmeans;
mod labyrinth;
mod ssca2;
mod vacation;
mod yada;

use gstm_tl2::{Stm, ThreadStats};
use std::sync::Arc;
use std::time::Instant;

/// Input scale presets (the suite's `small`/`medium`/`large` flags),
/// calibrated so a run completes in fractions of a second on one core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InputSize {
    /// Quick test-sized input.
    Small,
    /// Profiling/measurement input (the paper trains on medium).
    Medium,
    /// Stress input.
    Large,
}

/// Parameters of one benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Worker thread count (the paper uses 8 and 16).
    pub threads: u16,
    /// Input scale.
    pub size: InputSize,
    /// Seed for the input generator. The *same* seed produces the same
    /// input, so run-to-run variation comes from scheduling alone — the
    /// paper's experimental setup.
    pub seed: u64,
}

/// What a benchmark run produced.
#[derive(Clone, Debug, Default)]
pub struct BenchResult {
    /// Per-thread execution time of the thread function, in seconds —
    /// the quantity whose variance the paper minimizes.
    pub per_thread_secs: Vec<f64>,
    /// Per-thread STM statistics (commit/abort counts, abort histograms).
    pub per_thread_stats: Vec<ThreadStats>,
    /// Wall-clock time of the parallel region.
    pub wall_secs: f64,
    /// A workload-defined checksum for validating the computation.
    pub checksum: u64,
}

impl BenchResult {
    /// Aggregate statistics across all threads.
    pub fn merged_stats(&self) -> ThreadStats {
        let mut total = ThreadStats::new();
        for s in &self.per_thread_stats {
            total.merge(s);
        }
        total
    }
}

/// A STAMP application: deterministic input generation plus a transactional
/// parallel kernel.
pub trait Benchmark: Send + Sync {
    /// Lower-case benchmark name (`"kmeans"`, ...).
    fn name(&self) -> &'static str;
    /// How many static transaction sites the kernel contains (ids
    /// `0..num_txn_sites` are used in `TM_BEGIN(id)` fashion).
    fn num_txn_sites(&self) -> u16;
    /// Execute one run on the given STM instance.
    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult;
}

/// All seven benchmarks, in the paper's table order.
pub fn all_benchmarks() -> Vec<Arc<dyn Benchmark>> {
    vec![
        Arc::new(genome::Genome),
        Arc::new(intruder::Intruder),
        Arc::new(kmeans::KMeans),
        Arc::new(labyrinth::Labyrinth),
        Arc::new(ssca2::Ssca2),
        Arc::new(vacation::Vacation),
        Arc::new(yada::Yada),
    ]
}

/// Look a benchmark up by name.
pub fn by_name(name: &str) -> Option<Arc<dyn Benchmark>> {
    all_benchmarks().into_iter().find(|b| b.name() == name)
}

/// Shared worker-pool runner: spawns `cfg.threads` workers with stable
/// thread ids 0..n-1, times each worker's thread function, and collects
/// per-thread stats. `work` receives `(thread_index, ThreadCtx)` and
/// returns a checksum contribution.
fn run_workers(
    stm: &Arc<Stm>,
    cfg: &RunConfig,
    work: impl Fn(u16, &mut gstm_tl2::ThreadCtx) -> u64 + Send + Sync,
) -> BenchResult {
    use gstm_core::ThreadId;
    let n = cfg.threads.max(1);
    let work = &work;
    let start = Instant::now();
    let per_thread: Vec<(f64, ThreadStats, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let stm = Arc::clone(stm);
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let t0 = Instant::now();
                    let checksum = work(t, &mut ctx);
                    let secs = t0.elapsed().as_secs_f64();
                    (secs, ctx.take_stats(), checksum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let mut result = BenchResult {
        wall_secs,
        ..Default::default()
    };
    let mut checksum = 0u64;
    for (secs, stats, c) in per_thread {
        result.per_thread_secs.push(secs);
        result.per_thread_stats.push(stats);
        checksum = checksum.wrapping_add(c);
    }
    result.checksum = checksum;
    result
}

/// Deterministic 64-bit mix used by the input generators.
pub(crate) use gstm_core::rng::mix64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_seven_benchmarks_in_paper_order() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "genome",
                "intruder",
                "kmeans",
                "labyrinth",
                "ssca2",
                "vacation",
                "yada"
            ]
        );
    }

    #[test]
    fn by_name_resolves() {
        assert!(by_name("kmeans").is_some());
        assert!(by_name("bayes").is_none(), "bayes is excluded");
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low bits should differ for consecutive inputs.
        assert_ne!(mix64(1) & 0xff, mix64(2) & 0xff);
    }
}
