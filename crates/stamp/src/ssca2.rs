//! ssca2 — Scalable Synthetic Compact Applications graph kernel (STAMP
//! `ssca2`, kernel 1: graph construction).
//!
//! Threads partition a large synthetic edge list and transactionally
//! append each edge into the adjacency list of its source node (txn site
//! 0). With many more nodes than threads, two threads almost never touch
//! the same node at once — the benchmark is famously low-contention, with
//! "innately nearly zero aborts" (paper, Section VII), tiny equally likely
//! states, and therefore *no headroom for guidance*: the analyzer must
//! reject its model (Table I) and guided execution only adds overhead
//! (Figure 8).

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_tl2::{Stm, TVar};
use std::sync::Arc;

/// Txn site: append one edge to a node's adjacency list.
const TXN_ADD_EDGE: TxnId = TxnId(0);

struct Params {
    nodes: usize,
    edges: usize,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            nodes: 256,
            edges: 2048,
        },
        InputSize::Medium => Params {
            nodes: 1024,
            edges: 8192,
        },
        InputSize::Large => Params {
            nodes: 4096,
            edges: 32768,
        },
    }
}

/// The ssca2 benchmark.
pub(crate) struct Ssca2;

impl Benchmark for Ssca2 {
    fn name(&self) -> &'static str {
        "ssca2"
    }

    fn num_txn_sites(&self) -> u16 {
        1
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        // Synthetic edge list: (u, v, weight) with uniformly random endpoints.
        let edges: Arc<Vec<(usize, usize, u32)>> = Arc::new(
            (0..p.edges)
                .map(|i| {
                    let r = mix64(cfg.seed ^ (i as u64));
                    let u = (r % p.nodes as u64) as usize;
                    let v = (mix64(r) % p.nodes as u64) as usize;
                    let w = (mix64(r >> 7) % 100) as u32 + 1;
                    (u, v, w)
                })
                .collect(),
        );
        #[allow(clippy::type_complexity)]
        let adjacency: Arc<Vec<TVar<Vec<(usize, u32)>>>> =
            Arc::new((0..p.nodes).map(|_| TVar::new(Vec::new())).collect());

        let mut result = run_workers(stm, cfg, |t, ctx| {
            let n_threads = cfg.threads.max(1) as usize;
            let chunk = p.edges.div_ceil(n_threads);
            let lo = (t as usize * chunk).min(p.edges);
            let hi = ((t as usize + 1) * chunk).min(p.edges);
            let mut local = 0u64;
            for &(u, v, w) in &edges[lo..hi] {
                let adj = &adjacency[u];
                ctx.atomically(TXN_ADD_EDGE, |tx| {
                    let mut list = tx.read(adj)?;
                    list.push((v, w));
                    tx.write(adj, list)
                });
                local = local.wrapping_add(w as u64);
            }
            local
        });

        // Validate: total degree equals edge count.
        let total_degree: usize = adjacency
            .iter()
            .map(|a| a.load_quiesced().len())
            .sum();
        result.checksum = result
            .checksum
            .wrapping_add(total_degree as u64)
            .wrapping_sub(p.edges as u64)
            .wrapping_add(1);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    #[test]
    fn every_edge_lands_exactly_once() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 3,
        };
        let r = Ssca2.run(&stm, &cfg);
        // checksum folds in (total_degree - edges + 1): if all edges
        // landed once, that term is exactly 1 plus the weight sums.
        let p = params(InputSize::Small);
        assert_eq!(r.merged_stats().commits, p.edges as u64);
        assert!(r.checksum > 0);
    }

    #[test]
    fn contention_is_low() {
        let stm = Stm::new(StmConfig::with_yield_injection(3));
        let cfg = RunConfig {
            threads: 8,
            size: InputSize::Small,
            seed: 3,
        };
        let r = Ssca2.run(&stm, &cfg);
        let stats = r.merged_stats();
        // Uniformly random nodes >> threads: abort rate should be tiny
        // (the property the paper's ssca2 analysis rests on).
        assert!(
            (stats.aborts as f64) < 0.10 * stats.commits as f64,
            "aborts {} vs commits {}",
            stats.aborts,
            stats.commits
        );
    }
}
