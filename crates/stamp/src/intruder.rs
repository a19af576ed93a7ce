//! intruder — network intrusion detection (STAMP `intruder`).
//!
//! The original's pipeline: *capture* (pop a packet fragment from a shared
//! queue), *reassembly* (insert the fragment into a shared map of
//! partially reassembled flows; extract the flow once complete), and
//! *detection* (scan the reassembled payload for attack signatures —
//! pure computation). Capture and reassembly are transactions; detection
//! is not.
//!
//! Txn sites: 0 = capture (queue pop), 1 = reassembly insert/complete,
//! 2 = record a detected attack.

use crate::{mix64, run_workers, BenchResult, Benchmark, InputSize, RunConfig};
use gstm_core::TxnId;
use gstm_structs::{TMap, TQueue};
use gstm_tl2::{Stm, TVar};
use std::sync::Arc;

const TXN_CAPTURE: TxnId = TxnId(0);
const TXN_REASSEMBLE: TxnId = TxnId(1);
const TXN_RECORD_ATTACK: TxnId = TxnId(2);

/// Attack signature planted in malicious payloads.
const SIGNATURE: &[u8] = b"<<EXPLOIT>>";

struct Params {
    flows: usize,
    max_fragments: usize,
    payload_len: usize,
    attack_pct: u64,
}

fn params(size: InputSize) -> Params {
    match size {
        InputSize::Small => Params {
            flows: 128,
            max_fragments: 4,
            payload_len: 64,
            attack_pct: 10,
        },
        InputSize::Medium => Params {
            flows: 512,
            max_fragments: 6,
            payload_len: 128,
            attack_pct: 10,
        },
        InputSize::Large => Params {
            flows: 2048,
            max_fragments: 8,
            payload_len: 256,
            attack_pct: 10,
        },
    }
}

/// One packet fragment on the wire.
#[derive(Clone, Debug)]
struct Fragment {
    flow: u64,
    index: usize,
    total: usize,
    data: Vec<u8>,
}

/// A partially reassembled flow.
#[derive(Clone, Debug)]
struct FlowBuf {
    got: Vec<Option<Vec<u8>>>,
}

/// Deterministically generate all fragments of all flows, shuffled.
fn gen_traffic(p: &Params, seed: u64) -> (Vec<Fragment>, u64) {
    let mut frags = Vec::new();
    let mut attacks = 0u64;
    for f in 0..p.flows {
        let r = mix64(seed ^ (f as u64) << 13);
        let mut payload: Vec<u8> = (0..p.payload_len)
            .map(|i| (mix64(r ^ i as u64) % 26) as u8 + b'a')
            .collect();
        if r % 100 < p.attack_pct {
            let at = (mix64(r >> 9) as usize) % (p.payload_len - SIGNATURE.len());
            payload[at..at + SIGNATURE.len()].copy_from_slice(SIGNATURE);
            attacks += 1;
        }
        let n = (mix64(r >> 5) as usize % p.max_fragments) + 1;
        let chunk = payload.len().div_ceil(n);
        for (i, piece) in payload.chunks(chunk).enumerate() {
            frags.push(Fragment {
                flow: f as u64,
                index: i,
                total: payload.chunks(chunk).count(),
                data: piece.to_vec(),
            });
        }
    }
    // Deterministic shuffle so fragments of a flow arrive out of order
    // and interleaved with other flows.
    for i in (1..frags.len()).rev() {
        let j = (mix64(seed ^ 0xabcd ^ i as u64) % (i as u64 + 1)) as usize;
        frags.swap(i, j);
    }
    (frags, attacks)
}

/// Pure detection pass (non-transactional, as in the original).
fn detect(payload: &[u8]) -> bool {
    payload
        .windows(SIGNATURE.len())
        .any(|w| w == SIGNATURE)
}

/// The intruder benchmark.
pub(crate) struct Intruder;

impl Benchmark for Intruder {
    fn name(&self) -> &'static str {
        "intruder"
    }

    fn num_txn_sites(&self) -> u16 {
        3
    }

    fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> BenchResult {
        let p = params(cfg.size);
        let (frags, _expected_attacks) = gen_traffic(&p, cfg.seed);

        // Load the capture queue (sequential setup).
        let queue: TQueue<Fragment> = TQueue::new();
        let reassembly: TMap<FlowBuf> = TMap::new();
        let attacks = TVar::new(0u64);
        let completed = TVar::new(0u64);
        {
            let setup_stm = Stm::new(gstm_tl2::StmConfig::default());
            let mut ctx = setup_stm.register_as(gstm_core::ThreadId(u16::MAX));
            for f in &frags {
                let f = f.clone();
                ctx.atomically(TxnId(100), |tx| queue.push(tx, f.clone()));
            }
        }

        let mut result = run_workers(stm, cfg, |_t, ctx| {
            let mut processed = 0u64;
            loop {
                // Capture: pop one fragment.
                let frag = ctx.atomically(TXN_CAPTURE, |tx| queue.pop(tx));
                let frag = match frag {
                    Some(f) => f,
                    None => break,
                };
                // Reassembly: insert the fragment; take the flow if complete.
                let complete = ctx.atomically(TXN_REASSEMBLE, |tx| {
                    let mut buf = match reassembly.get(tx, frag.flow)? {
                        Some(buf) => buf,
                        None => FlowBuf {
                            got: vec![None; frag.total],
                        },
                    };
                    buf.got[frag.index] = Some(frag.data.clone());
                    if buf.got.iter().all(Option::is_some) {
                        reassembly.remove(tx, frag.flow)?;
                        tx.modify(&completed, |c| c + 1)?;
                        Ok(Some(buf))
                    } else {
                        reassembly.upsert(tx, frag.flow, buf)?;
                        Ok(None)
                    }
                });
                processed += 1;
                // Detection: pure scan; record any hit transactionally.
                if let Some(buf) = complete {
                    let payload: Vec<u8> = buf
                        .got
                        .into_iter()
                        .flat_map(|p| p.unwrap())
                        .collect();
                    if detect(&payload) {
                        ctx.atomically(TXN_RECORD_ATTACK, |tx| {
                            tx.modify(&attacks, |a| a + 1)
                        });
                    }
                }
            }
            processed
        });

        result.checksum = completed
            .load_quiesced()
            .wrapping_mul(1_000_000)
            .wrapping_add(attacks.load_quiesced());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_tl2::StmConfig;

    #[test]
    fn traffic_generator_is_deterministic_and_fragmented() {
        let p = params(InputSize::Small);
        let (f1, a1) = gen_traffic(&p, 3);
        let (f2, a2) = gen_traffic(&p, 3);
        assert_eq!(a1, a2);
        assert_eq!(f1.len(), f2.len());
        assert!(f1.len() > p.flows, "flows are fragmented");
        assert!(a1 > 0, "some attacks are planted");
    }

    #[test]
    fn detector_finds_planted_signature() {
        assert!(detect(b"xxxx<<EXPLOIT>>yyy"));
        assert!(!detect(b"innocent traffic"));
        assert!(!detect(b"<<EXPLOI"));
    }

    #[test]
    fn all_flows_complete_and_attacks_match_plant_count() {
        let stm = Stm::new(StmConfig::default());
        let cfg = RunConfig {
            threads: 2,
            size: InputSize::Small,
            seed: 21,
        };
        let p = params(InputSize::Small);
        let (_, expected_attacks) = gen_traffic(&p, cfg.seed);
        let r = Intruder.run(&stm, &cfg);
        assert_eq!(r.checksum / 1_000_000, p.flows as u64, "all flows done");
        assert_eq!(r.checksum % 1_000_000, expected_attacks);
    }

    #[test]
    fn concurrent_run_processes_every_fragment_once() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let cfg = RunConfig {
            threads: 4,
            size: InputSize::Small,
            seed: 21,
        };
        let p = params(InputSize::Small);
        let (frags, expected_attacks) = gen_traffic(&p, cfg.seed);
        let r = Intruder.run(&stm, &cfg);
        assert_eq!(r.checksum / 1_000_000, p.flows as u64);
        assert_eq!(r.checksum % 1_000_000, expected_attacks);
        // Each thread's returned count sums to the number of fragments.
        let commits = r.merged_stats().commits;
        assert!(commits as usize >= frags.len(), "capture txns ran");
    }
}
