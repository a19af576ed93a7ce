//! genome — gene sequencing by segment assembly (STAMP `genome`).
//!
//! The original reconstructs a gene from overlapping nucleotide segments
//! in three phases: (1) deduplicate segments into a hash set, (2) match
//! overlapping segment ends and link matches, (3) walk the links to emit
//! the sequence. Phases 1 and 2 are parallel and transactional; threads
//! synchronize on barriers between phases.
//!
//! This port keeps that exact structure: txn 0 deduplicates, txn 1 builds
//! the prefix table, txn 2 claims and links matches, and phase 3 walks
//! the links sequentially to rebuild the gene (run() verifies the
//! reconstruction byte-for-byte and folds the outcome into the
//! checksum). The gene is drawn over the `{a,c,g,t}` alphabet with a
//! 24-base overlap, long enough that accidental window collisions are
//! negligible at these input sizes.

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_structs::{THashMap, TMap};
use gstm_tl2::Stm;
use std::sync::{Arc, Barrier, OnceLock};

const TXN_DEDUP: TxnId = TxnId(0);
const TXN_PREFIX_TABLE: TxnId = TxnId(1);
const TXN_LINK: TxnId = TxnId(2);

/// Segment length in bases.
const SEG_LEN: usize = 32;
/// Segments start every `STEP` bases, so consecutive segments overlap by
/// `SEG_LEN - STEP` = 24 bases.
const STEP: usize = 8;
const OVERLAP: usize = SEG_LEN - STEP;

struct Params {
    gene_len: usize,
    /// Each segment is duplicated this many times before shuffling
    /// (sequencers oversample; dedup is phase 1's whole job).
    duplication: usize,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            gene_len: 1 << 11,
            duplication: 2,
        },
        InputSize::Medium => Params {
            gene_len: 1 << 13,
            duplication: 3,
        },
        InputSize::Large => Params {
            gene_len: 1 << 15,
            duplication: 4,
        },
    }
}

fn gen_gene(len: usize, seed: u64) -> Vec<u8> {
    const BASES: [u8; 4] = *b"acgt";
    (0..len)
        .map(|i| BASES[(mix64(seed ^ i as u64) % 4) as usize])
        .collect()
}

/// Cut the gene into duplicated, deterministically shuffled segments.
fn gen_segments(gene: &[u8], dup: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut segs = Vec::new();
    let mut start = 0;
    while start + SEG_LEN <= gene.len() {
        for _ in 0..dup {
            segs.push(gene[start..start + SEG_LEN].to_vec());
        }
        start += STEP;
    }
    // Fisher-Yates with a deterministic stream.
    for i in (1..segs.len()).rev() {
        let j = (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        segs.swap(i, j);
    }
    segs
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Avoid pathological zero keys.
    mix64(h) | 1
}

/// The genome benchmark.
pub(crate) struct Genome;

impl Benchmark for Genome {
    fn name(&self) -> &'static str {
        "genome"
    }

    fn num_txn_sites(&self) -> u16 {
        3
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let gene = gen_gene(p.gene_len, cfg.seed);
        let segments = Arc::new(gen_segments(&gene, p.duplication, cfg.seed));
        let n_threads = cfg.threads.max(1) as usize;

        // Phase-1 output: unique segments keyed by content hash.
        let unique: THashMap<Vec<u8>> = THashMap::new(256);
        // Phase-2a output: prefix-of-OVERLAP hash -> segment content hash.
        let prefixes: THashMap<u64> = THashMap::new(256);
        // Phase-2b output: links (successor content hash claimed by
        // predecessor content hash).
        let links: TMap<u64> = TMap::new();

        /// Keyed unique segments, published by thread 0 between phases.
        type UniqueSnapshot = Vec<(u64, Vec<u8>)>;
        let barrier = Arc::new(Barrier::new(n_threads));
        let unique_snapshot: Arc<OnceLock<UniqueSnapshot>> = Arc::new(OnceLock::new());

        let mut result = run_workers(stm, cfg, |t, ctx| {
            // ---- Phase 1: deduplicate segments ----
            let chunk = segments.len().div_ceil(n_threads);
            let lo = (t as usize * chunk).min(segments.len());
            let hi = ((t as usize + 1) * chunk).min(segments.len());
            let mut inserted = 0u64;
            for seg in &segments[lo..hi] {
                let key = hash_bytes(seg);
                let fresh =
                    ctx.atomically(TXN_DEDUP, |tx| unique.insert(tx, key, seg.clone()));
                if fresh {
                    inserted += 1;
                }
            }
            ctx.parked(|| barrier.wait());
            // Thread 0 snapshots the unique set for the next phases.
            if t == 0 {
                let snap = ctx.atomically(TXN_DEDUP, |tx| unique.snapshot(tx));
                let _ = unique_snapshot.set(snap);
            }
            ctx.parked(|| barrier.wait());
            let uniq = unique_snapshot.get().expect("snapshot published");

            // ---- Phase 2a: publish prefix table ----
            let chunk = uniq.len().div_ceil(n_threads);
            let lo = (t as usize * chunk).min(uniq.len());
            let hi = ((t as usize + 1) * chunk).min(uniq.len());
            for (key, seg) in &uniq[lo..hi] {
                let pre = hash_bytes(&seg[..OVERLAP]);
                let (key, pre) = (*key, pre);
                ctx.atomically(TXN_PREFIX_TABLE, |tx| prefixes.insert(tx, pre, key));
            }
            ctx.parked(|| barrier.wait());

            // ---- Phase 2b: match suffixes to prefixes and claim links ----
            let mut linked = 0u64;
            for (key, seg) in &uniq[lo..hi] {
                let suf = hash_bytes(&seg[SEG_LEN - OVERLAP..]);
                let (key, suf) = (*key, suf);
                let claimed = ctx.atomically(TXN_LINK, |tx| {
                    match prefixes.get(tx, suf)? {
                        // A segment may not follow itself, and each
                        // successor may be claimed exactly once.
                        Some(succ) if succ != key => Ok(links.insert(tx, succ, key)?),
                        _ => Ok(false),
                    }
                });
                if claimed {
                    linked += 1;
                }
            }
            inserted.wrapping_mul(1_000_000).wrapping_add(linked)
        });

        // ---- Phase 3: sequence construction (sequential, like the
        // original's final phase) + validation term: every unique segment
        // except the chain head found a predecessor, and walking the
        // links reproduces the gene byte-for-byte.
        let stm2 = Stm::new(gstm_tl2::StmConfig::default());
        let mut vctx = stm2.register_as(gstm_core::ThreadId(u16::MAX));
        let n_unique = vctx.atomically(TxnId(10), |tx| unique.len(tx));
        let n_links = vctx.atomically(TxnId(10), |tx| links.len(tx));
        let reconstructed = reconstruct(&mut vctx, &unique, &links);
        let intact = (reconstructed.as_deref() == Some(&gene[..])) as u64;
        result.checksum = n_unique
            .wrapping_mul(1_000_000)
            .wrapping_add(n_links)
            .wrapping_add(intact << 62);
        result
    }
}

/// Walk the claimed links from the chain head and rebuild the gene.
/// Returns `None` if the chain is broken or ambiguous.
fn reconstruct(
    ctx: &mut gstm_tl2::ThreadCtx,
    unique: &THashMap<Vec<u8>>,
    links: &TMap<u64>,
) -> Option<Vec<u8>> {
    let (segments, link_pairs) = ctx.atomically(TxnId(11), |tx| {
        Ok((unique.snapshot(tx)?, links.snapshot(tx)?))
    });
    let by_key: std::collections::HashMap<u64, &Vec<u8>> =
        segments.iter().map(|(k, s)| (*k, s)).collect();
    // links maps successor -> predecessor; invert it.
    let succ_of: std::collections::HashMap<u64, u64> =
        link_pairs.iter().map(|&(succ, pred)| (pred, succ)).collect();
    let has_pred: std::collections::HashSet<u64> =
        link_pairs.iter().map(|&(succ, _)| succ).collect();
    // The head is the unique segment nobody claimed as a successor.
    let mut heads = segments.iter().filter(|(k, _)| !has_pred.contains(k));
    let (head, _) = heads.next()?;
    if heads.next().is_some() {
        return None; // broken chain: more than one head
    }
    let mut seq: Vec<u8> = by_key.get(head)?.to_vec();
    let mut cur = *head;
    while let Some(&next) = succ_of.get(&cur) {
        let seg = by_key.get(&next)?;
        // Consecutive segments overlap by OVERLAP bases; append the rest.
        seq.extend_from_slice(&seg[OVERLAP..]);
        cur = next;
    }
    Some(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    #[test]
    fn generator_is_deterministic() {
        let g1 = gen_gene(512, 5);
        let g2 = gen_gene(512, 5);
        assert_eq!(g1, g2);
        assert!(g1.iter().all(|b| b"acgt".contains(b)));
        let s1 = gen_segments(&g1, 2, 5);
        assert_eq!(s1, gen_segments(&g2, 2, 5));
        // Duplication doubles the segment count.
        let expected = ((512 - SEG_LEN) / STEP + 1) * 2;
        assert_eq!(s1.len(), expected);
    }

    #[test]
    fn reconstruction_reproduces_the_gene() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 99,
        };
        let r = Genome.run(&stm, &cfg);
        assert_eq!(
            r.checksum >> 62,
            1,
            "phase 3 must rebuild the gene byte-for-byte"
        );
    }

    #[test]
    fn assembly_links_nearly_all_unique_segments() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 2,
            size: InputSize::Small,
            seed: 99,
        };
        let r = Genome.run(&stm, &cfg);
        let body = r.checksum & ((1u64 << 62) - 1);
        let n_unique = body / 1_000_000;
        let n_links = body % 1_000_000;
        let p = params(InputSize::Small);
        let n_positions = (p.gene_len - SEG_LEN) / STEP + 1;
        assert_eq!(n_unique, n_positions as u64, "dedup found every position");
        // Every segment has a unique successor except the last one.
        assert_eq!(n_links, n_unique - 1, "chain fully linked");
    }

    #[test]
    fn concurrent_assembly_matches_sequential() {
        let cfg = |threads| RunConfig {
            threads,
            size: InputSize::Small,
            seed: 7,
        };
        let seq = Genome.run(&Stm::new(StmConfig::default()), &cfg(1));
        let par = Genome.run(
            &Stm::new(StmConfig::with_yield_injection(2)),
            &cfg(4),
        );
        assert_eq!(seq.checksum, par.checksum, "assembly is schedule-invariant");
    }
}
