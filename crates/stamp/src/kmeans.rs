//! kmeans — iterative K-means clustering (STAMP `kmeans`).
//!
//! Threads partition the points; for each point they find the nearest
//! center (pure computation over the previous iteration's centers) and
//! then transactionally accumulate the point into the new center sums
//! (txn site 0). At the end of each pass one thread folds the global
//! membership-delta counter (txn site 1). The paper notes kmeans varied by
//! as much as 8 seconds across runs in the original suite.

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_tl2::{Stm, TVar};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Txn site: accumulate a point into its cluster's new-center sums.
const TXN_ACCUMULATE: TxnId = TxnId(0);
/// Txn site: fold a thread's membership delta into the global counter.
const TXN_DELTA: TxnId = TxnId(1);

struct Params {
    points: usize,
    dims: usize,
    clusters: usize,
    iterations: usize,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            points: 512,
            dims: 4,
            clusters: 8,
            iterations: 3,
        },
        InputSize::Medium => Params {
            points: 2048,
            dims: 8,
            clusters: 12,
            iterations: 4,
        },
        InputSize::Large => Params {
            points: 8192,
            dims: 16,
            clusters: 16,
            iterations: 6,
        },
    }
}

fn gen_points(p: &Params, seed: u64) -> Vec<Vec<f64>> {
    (0..p.points)
        .map(|i| {
            (0..p.dims)
                .map(|d| {
                    let r = mix64(seed ^ ((i as u64) << 20) ^ d as u64);
                    // Clustered around `clusters` loci so assignments are
                    // non-trivial.
                    let locus = (r % p.clusters as u64) as f64 * 10.0;
                    locus + (mix64(r) % 1000) as f64 / 250.0
                })
                .collect()
        })
        .collect()
}

/// Shared accumulator for one cluster: component sums plus member count.
#[derive(Clone, Debug)]
struct ClusterAcc {
    sums: Vec<f64>,
    count: u64,
}

/// The kmeans benchmark.
pub(crate) struct KMeans;

impl Benchmark for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn num_txn_sites(&self) -> u16 {
        2
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let points = Arc::new(gen_points(&p, cfg.seed));
        // Initial centers: first `clusters` points.
        let mut centers: Vec<Vec<f64>> = points[..p.clusters].to_vec();
        let mut result = BenchResult::default();
        let mut checksum = 0u64;

        // Assignments from the previous pass, for delta counting.
        let assignments: Arc<Vec<AtomicUsize>> =
            Arc::new((0..p.points).map(|_| AtomicUsize::new(usize::MAX)).collect());

        for _iter in 0..p.iterations {
            let accs: Arc<Vec<TVar<ClusterAcc>>> = Arc::new(
                (0..p.clusters)
                    .map(|_| {
                        TVar::new(ClusterAcc {
                            sums: vec![0.0; p.dims],
                            count: 0,
                        })
                    })
                    .collect(),
            );
            let delta = TVar::new(0u64);
            let centers_ro = Arc::new(centers.clone());

            let pass = run_workers(stm, cfg, |t, ctx| {
                let n_threads = cfg.threads.max(1) as usize;
                let chunk = p.points.div_ceil(n_threads);
                let lo = (t as usize * chunk).min(p.points);
                let hi = ((t as usize + 1) * chunk).min(p.points);
                let mut my_delta = 0u64;
                for i in lo..hi {
                    let pt = &points[i];
                    // Nearest center: pure computation, outside any txn.
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for (c, center) in centers_ro.iter().enumerate() {
                        let d: f64 = center
                            .iter()
                            .zip(pt)
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    if assignments[i].swap(best, Ordering::Relaxed) != best {
                        my_delta += 1;
                    }
                    // Transactionally fold the point into its cluster.
                    let acc = &accs[best];
                    ctx.atomically(TXN_ACCUMULATE, |tx| {
                        let mut a = tx.read(acc)?;
                        for (s, x) in a.sums.iter_mut().zip(pt) {
                            *s += x;
                        }
                        a.count += 1;
                        tx.write(acc, a)
                    });
                }
                ctx.atomically(TXN_DELTA, |tx| tx.modify(&delta, |d| d + my_delta));
                my_delta
            });

            // Recompute centers from the accumulators (sequential, like the
            // original's master phase between passes).
            for (c, acc) in accs.iter().enumerate() {
                let a = acc.load_quiesced();
                if a.count > 0 {
                    centers[c] = a.sums.iter().map(|s| s / a.count as f64).collect();
                }
            }
            checksum = checksum
                .wrapping_add(delta.load_quiesced())
                .wrapping_add(accs.iter().map(|a| a.load_quiesced().count).sum::<u64>());

            // Accumulate timings/stats across passes.
            if result.per_thread_secs.is_empty() {
                result = pass;
            } else {
                for (acc, s) in result.per_thread_secs.iter_mut().zip(&pass.per_thread_secs) {
                    *acc += s;
                }
                for (acc, s) in result
                    .per_thread_stats
                    .iter_mut()
                    .zip(&pass.per_thread_stats)
                {
                    acc.merge(s);
                }
                result.wall_secs += pass.wall_secs;
            }
        }
        result.checksum = checksum;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    #[test]
    fn all_points_are_accumulated_each_pass() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 2,
            size: InputSize::Small,
            seed: 42,
        };
        let r = KMeans.run(&stm, &cfg);
        let p = params(InputSize::Small);
        // Each pass accumulates every point exactly once; the checksum
        // includes `points` per iteration plus the (input-dependent) deltas.
        let min_expected = (p.points * p.iterations) as u64;
        assert!(r.checksum >= min_expected, "checksum {}", r.checksum);
        assert_eq!(r.per_thread_secs.len(), 2);
        let commits: u64 = r.merged_stats().commits;
        // points + 1 delta-txn per thread, per iteration.
        assert_eq!(
            commits,
            (p.points + cfg.threads as usize) as u64 * p.iterations as u64
        );
    }

    #[test]
    fn deterministic_input_given_same_seed() {
        let p = params(InputSize::Small);
        assert_eq!(gen_points(&p, 7), gen_points(&p, 7));
        assert_ne!(gen_points(&p, 7), gen_points(&p, 8));
    }

    #[test]
    fn single_thread_run_works() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 1,
            size: InputSize::Small,
            seed: 1,
        };
        let r = KMeans.run(&stm, &cfg);
        assert_eq!(r.per_thread_secs.len(), 1);
        assert_eq!(r.merged_stats().aborts, 0, "no conflicts single-threaded");
    }
}
