//! yada — Delaunay mesh refinement (STAMP `yada`).
//!
//! The original implements Ruppert's algorithm: threads pull *bad*
//! triangles from a shared work queue, transactionally build the
//! re-triangulation *cavity* around each (the triangle plus affected
//! neighbors), replace the cavity with fresh triangles, and enqueue any
//! new bad ones. Conflicts arise when two threads' cavities overlap.
//!
//! This port keeps the full transactional pattern — shared mesh map,
//! shared work queue, cavity = element + live neighbors, atomic
//! remove/replace/enqueue, shared element-id allocation — while replacing
//! the geometric bad-triangle predicate with a deterministic synthetic one
//! (elements carry a refinement `depth`; children are bad until a depth
//! bound). The paper's metrics concern transactional behaviour, which this
//! preserves; see DESIGN.md ("Substitutions").
//!
//! Txn sites: 0 = take work item, 1 = refine cavity (remove + insert +
//! enqueue children).

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_structs::{TMap, TQueue};
use gstm_tl2::{Stm, TVar};
use std::sync::Arc;

const TXN_TAKE: TxnId = TxnId(0);
const TXN_REFINE: TxnId = TxnId(1);

/// Refinement stops at this depth (guarantees termination).
const MAX_DEPTH: u32 = 3;

struct Params {
    initial_triangles: u64,
    initial_bad_pct: u64,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            initial_triangles: 128,
            initial_bad_pct: 25,
        },
        InputSize::Medium => Params {
            initial_triangles: 512,
            initial_bad_pct: 25,
        },
        InputSize::Large => Params {
            initial_triangles: 2048,
            initial_bad_pct: 30,
        },
    }
}

/// A mesh element.
#[derive(Clone, Debug)]
struct Triangle {
    neighbors: Vec<u64>,
    depth: u32,
}

/// Is a (new) element bad, i.e. in need of further refinement?
fn is_bad(id: u64, depth: u32, seed: u64) -> bool {
    depth < MAX_DEPTH && mix64(seed ^ id).is_multiple_of(3)
}

/// The yada benchmark.
pub(crate) struct Yada;

impl Benchmark for Yada {
    fn name(&self) -> &'static str {
        "yada"
    }

    fn num_txn_sites(&self) -> u16 {
        2
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let mesh: TMap<Triangle> = TMap::new();
        let work: TQueue<u64> = TQueue::new();
        let next_id = TVar::new(p.initial_triangles);
        // queued + popped-but-unfinished items; 0 means refinement is done.
        let pending = TVar::new(0i64);

        // Initial mesh: a ring of triangles, each neighboring its two ring
        // neighbors (the original reads a planar mesh from disk; a ring
        // gives every element the same connectivity degree).
        {
            let setup = Stm::new(gstm_tl2::StmConfig::default());
            let mut ctx = setup.register_as(gstm_core::ThreadId(u16::MAX));
            let n = p.initial_triangles;
            let mut initial_bad = Vec::new();
            for id in 0..n {
                let tri = Triangle {
                    neighbors: vec![(id + n - 1) % n, (id + 1) % n],
                    depth: 0,
                };
                ctx.atomically(TxnId(100), |tx| mesh.insert(tx, id, tri.clone()));
                if mix64(cfg.seed ^ id ^ 0xbad) % 100 < p.initial_bad_pct {
                    initial_bad.push(id);
                }
            }
            for &id in &initial_bad {
                ctx.atomically(TxnId(100), |tx| {
                    work.push(tx, id)?;
                    tx.modify(&pending, |x| x + 1)
                });
            }
        }

        let mut result = run_workers(stm, cfg, |_t, ctx| {
            let mut refined = 0u64;
            loop {
                let item = ctx.atomically(TXN_TAKE, |tx| work.pop(tx));
                let id = match item {
                    Some(id) => id,
                    None => {
                        if pending.load_quiesced() <= 0 {
                            break;
                        }
                        // Back off while stragglers refine: polling the
                        // queue with read-only transactions floods the
                        // transaction sequence (and the model) with
                        // meaningless solo-commit states.
                        for _ in 0..32 {
                            if pending.load_quiesced() <= 0 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                        continue;
                    }
                };
                let did_refine = ctx.atomically(TXN_REFINE, |tx| {
                    let tri = match mesh.get(tx, id)? {
                        Some(t) => t,
                        None => {
                            // Swallowed by an earlier overlapping cavity.
                            tx.modify(&pending, |x| x - 1)?;
                            return Ok(false);
                        }
                    };
                    // Build the cavity: the element plus its live neighbors.
                    let mut cavity = vec![id];
                    for &nb in &tri.neighbors {
                        if mesh.contains(tx, nb)? {
                            cavity.push(nb);
                        }
                    }
                    for &cid in &cavity {
                        mesh.remove(tx, cid)?;
                    }
                    // Replace with cavity.len() + 1 fresh elements linked in
                    // a ring (refinement adds elements).
                    let k = cavity.len() as u64 + 1;
                    let base = tx.read(&next_id)?;
                    tx.write(&next_id, base + k)?;
                    let depth = tri.depth + 1;
                    let mut children_bad = 0i64;
                    for j in 0..k {
                        let nid = base + j;
                        let tri = Triangle {
                            neighbors: vec![base + (j + k - 1) % k, base + (j + 1) % k],
                            depth,
                        };
                        mesh.insert(tx, nid, tri)?;
                        if is_bad(nid, depth, cfg.seed) {
                            work.push(tx, nid)?;
                            children_bad += 1;
                        }
                    }
                    tx.modify(&pending, |x| x + children_bad - 1)?;
                    Ok(true)
                });
                if did_refine {
                    refined += 1;
                }
            }
            refined
        });

        // Fold validation into the checksum: refinement must fully drain.
        let drained = (pending.load_quiesced() == 0) as u64;
        result.checksum = result.checksum.wrapping_add(drained << 48);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    fn drained(r: &BenchResult) -> bool {
        (r.checksum >> 48) & 1 == 1
    }

    #[test]
    fn refinement_terminates_and_drains() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 2,
            size: InputSize::Small,
            seed: 17,
        };
        let r = Yada.run(&stm, &cfg);
        assert!(drained(&r), "work queue fully drained");
        let refined = r.checksum & 0xffff_ffff;
        assert!(refined > 0, "some triangles were refined");
    }

    #[test]
    fn concurrent_refinement_also_drains() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 17,
        };
        let r = Yada.run(&stm, &cfg);
        assert!(drained(&r));
        // Cavities overlap under concurrency, so conflicts should occur
        // at least occasionally across the refine transactions.
        let stats = r.merged_stats();
        assert!(stats.commits > 0);
    }

    #[test]
    fn bad_predicate_is_deterministic_and_bounded() {
        assert_eq!(is_bad(5, 1, 9), is_bad(5, 1, 9));
        assert!(!is_bad(5, MAX_DEPTH, 9), "depth bound forces termination");
    }
}
