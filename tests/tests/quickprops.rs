//! Tier-1 property tests over the model pipeline, the Tseq parsers, and
//! the transactional containers — the whole former `proptests.rs` suite,
//! now driven by a small in-tree generator so it runs everywhere (the
//! `proptest` crate never built in this container, which left the suite
//! permanently skipped; it has been folded in here and deleted).
//!
//! The generator is the shared seeded splitmix64 (`gstm_core::rng`); a
//! failing runs-shaped case is greedily shrunk (drop runs, drop keys,
//! strip aborts) before the panic reports the minimal counterexample, so
//! failures are actionable.

use gstm_core::prelude::*;
use gstm_core::{analyzer, metrics, model_io};

// ---------------------------------------------------------------------------
// Generator + shrinker (~100 LoC, no external crates)
// ---------------------------------------------------------------------------

/// Domain generator over the shared splitmix64 stream (gstm_core::rng).
struct Rng(gstm_core::rng::SplitMix64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(gstm_core::rng::SplitMix64::new(seed))
    }

    fn next(&mut self) -> u64 {
        self.0.next()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn pair(&mut self) -> Pair {
        Pair::new(TxnId(self.below(4) as u16), ThreadId(self.below(8) as u16))
    }

    fn key(&mut self) -> StateKey {
        let aborts: Vec<Pair> = (0..self.below(4)).map(|_| self.pair()).collect();
        StateKey::new(aborts, self.pair())
    }

    fn runs(&mut self) -> Vec<Vec<StateKey>> {
        (0..1 + self.below(4))
            .map(|_| (0..1 + self.below(39)).map(|_| self.key()).collect())
            .collect()
    }
}

type Runs = Vec<Vec<StateKey>>;

/// Every one-step-smaller variant of `runs`: one run dropped, one key
/// dropped, or one key's aborts stripped.
fn shrink_candidates(runs: &Runs) -> Vec<Runs> {
    let mut out = Vec::new();
    for r in 0..runs.len() {
        if runs.len() > 1 {
            let mut c = runs.clone();
            c.remove(r);
            out.push(c);
        }
        for k in 0..runs[r].len() {
            if runs[r].len() > 1 {
                let mut c = runs.clone();
                c[r].remove(k);
                out.push(c);
            }
            if !runs[r][k].aborts().is_empty() {
                let mut c = runs.clone();
                c[r][k] = StateKey::solo(runs[r][k].commit());
                out.push(c);
            }
        }
    }
    out
}

/// Run `prop` over `cases` generated inputs; on failure, shrink greedily
/// to a local minimum and panic with the minimal counterexample.
fn check_runs(name: &str, cases: u64, prop: impl Fn(&Runs) -> Result<(), String>) {
    for seed in 0..cases {
        let mut failing = match prop(&Rng::new(seed).runs()) {
            Ok(()) => continue,
            Err(_) => Rng::new(seed).runs(),
        };
        'shrinking: loop {
            for cand in shrink_candidates(&failing) {
                if prop(&cand).is_err() {
                    failing = cand;
                    continue 'shrinking;
                }
            }
            break;
        }
        let err = prop(&failing).unwrap_err();
        panic!("{name}: seed {seed}, minimal counterexample {failing:?}: {err}");
    }
}

fn ensure(cond: bool, msg: impl Fn() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Same Tseq in ⇒ byte-identical encoded TSA out, and bit-identical
/// guidance metric — the determinism the adaptive rebuild path (and the
/// analyzer's cross-checks) lean on.
#[test]
fn model_build_is_deterministic() {
    check_runs("model_build_is_deterministic", 200, |runs| {
        let (a, b) = (Tsa::from_runs(runs), Tsa::from_runs(&runs.clone()));
        ensure(model_io::encode(&a) == model_io::encode(&b), || {
            "two builds over the same Tseq encoded differently".into()
        })?;
        let cfg = GuidanceConfig::default();
        let ma = analyzer::analyze(&GuidedModel::build(a, &cfg));
        let mb = analyzer::analyze(&GuidedModel::build(b, &cfg));
        ensure(
            ma.guidance_metric_pct.to_bits() == mb.guidance_metric_pct.to_bits(),
            || {
                format!(
                    "guidance metric differs across identical builds: {} vs {}",
                    ma.guidance_metric_pct, mb.guidance_metric_pct
                )
            },
        )
    });
}

/// `model_io::encode` → `decode` preserves every state and every
/// outbound edge list.
#[test]
fn model_encoding_round_trips() {
    check_runs("model_encoding_round_trips", 200, |runs| {
        let tsa = Tsa::from_runs(runs);
        let back = model_io::decode(&model_io::encode(&tsa))
            .map_err(|e| format!("decode failed: {e:?}"))?;
        ensure(back.num_states() == tsa.num_states(), || {
            format!("states {} vs {}", back.num_states(), tsa.num_states())
        })?;
        ensure(back.num_edges() == tsa.num_edges(), || {
            format!("edges {} vs {}", back.num_edges(), tsa.num_edges())
        })?;
        for id in tsa.state_ids() {
            ensure(back.state(id) == tsa.state(id), || format!("state {id:?} differs"))?;
            ensure(back.outbound(id) == tsa.outbound(id), || {
                format!("outbound of {id:?} differs")
            })?;
        }
        Ok(())
    });
}

/// A `StateKey` is a canonical form: abort order must not matter, and
/// the canonical form must survive `from_sorted` reconstruction.
#[test]
fn state_key_canonicalizes_abort_order() {
    for seed in 0..500u64 {
        let mut rng = Rng::new(seed);
        let mut aborts: Vec<Pair> = (0..rng.below(6)).map(|_| rng.pair()).collect();
        let commit = rng.pair();
        let a = StateKey::new(aborts.clone(), commit);
        aborts.reverse();
        let b = StateKey::new(aborts, commit);
        assert_eq!(a, b, "seed {seed}: abort order leaked into the key");
        assert_eq!(a.hash64(), b.hash64(), "seed {seed}: hash differs for equal keys");
        let c = StateKey::from_sorted(a.aborts(), a.commit());
        assert_eq!(a, c, "seed {seed}: from_sorted round-trip differs");
    }
}

/// The shrinker itself must only propose strictly smaller inputs —
/// otherwise `check_runs` could loop forever on a failure.
#[test]
fn shrinker_strictly_shrinks() {
    let runs = Rng::new(42).runs();
    let size = |r: &Runs| -> usize {
        r.iter().flat_map(|run| run.iter().map(|k| 1 + k.aborts().len())).sum::<usize>()
            + r.len()
    };
    for cand in shrink_candidates(&runs) {
        assert!(size(&cand) < size(&runs), "candidate did not shrink");
    }
}

// ---------------------------------------------------------------------------
// Properties ported from the optional-dep proptest suite (the container
// cannot build `proptest`, so these now run in tier-1 on the in-tree
// generator; the old `proptests.rs` is gone).
// ---------------------------------------------------------------------------

/// Every non-terminal TSA state's outbound probabilities form a proper
/// distribution.
#[test]
fn tsa_probabilities_sum_to_one() {
    check_runs("tsa_probabilities_sum_to_one", 64, |runs| {
        let tsa = Tsa::from_runs(runs);
        for from in tsa.state_ids() {
            let total: f64 = tsa.state_ids().map(|to| tsa.probability(from, to)).sum();
            ensure(total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9, || {
                format!("state {from:?} sums to {total}")
            })?;
        }
        Ok(())
    });
}

/// The guided model keeps a subset of destinations, never drops the
/// top-probability edge, and always allows the pairs of the P_h state.
#[test]
fn guided_model_keeps_subset_and_always_keeps_top_edge() {
    check_runs("guided_model_keeps_subset", 64, |runs| {
        // Sweep Tfactor deterministically per input instead of drawing it.
        for tf in [1.0, 2.5, 4.0, 9.5] {
            let tsa = Tsa::from_runs(runs);
            let model = GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(tf));
            for id in model.tsa().state_ids() {
                let (all, kept) = model.dest_counts(id);
                ensure(kept <= all, || format!("tf {tf}: kept {kept} > all {all}"))?;
                if all > 0 {
                    ensure(kept >= 1, || format!("tf {tf}: P_h edge dropped at {id:?}"))?;
                    let top = model.tsa().outbound(id)[0].0;
                    for p in model.tsa().state(top).pairs() {
                        ensure(model.is_allowed(id, p), || {
                            format!("tf {tf}: top destination pair {p:?} disallowed at {id:?}")
                        })?;
                    }
                }
            }
        }
        Ok(())
    });
}

/// The guidance metric is a percentage and grows (weakly) with Tfactor —
/// a looser threshold keeps at least as many destinations.
#[test]
fn analyzer_metric_is_bounded_and_monotone_in_tfactor() {
    check_runs("analyzer_metric_monotone", 64, |runs| {
        let tsa = Tsa::from_runs(runs);
        let mut last = 0.0f64;
        for tf in [1.0, 2.0, 4.0, 8.0] {
            let cfg = GuidanceConfig::with_tfactor(tf);
            let model = GuidedModel::build(tsa.clone(), &cfg);
            let rep = analyzer::analyze_with(&model, &cfg);
            ensure((0.0..=100.0 + 1e-9).contains(&rep.guidance_metric_pct), || {
                format!("tf {tf}: metric {} out of range", rep.guidance_metric_pct)
            })?;
            ensure(rep.guidance_metric_pct + 1e-9 >= last, || {
                format!("tf {tf}: metric {} < {last}", rep.guidance_metric_pct)
            })?;
            last = rep.guidance_metric_pct;
        }
        Ok(())
    });
}

/// `metrics::non_determinism` counts distinct states — and matches the
/// TSA the same runs build.
#[test]
fn non_determinism_counts_distinct_states() {
    check_runs("non_determinism_counts_distinct_states", 64, |runs| {
        let nd = metrics::non_determinism(runs);
        let set: std::collections::HashSet<_> =
            runs.iter().flat_map(|run| run.iter().cloned()).collect();
        ensure(nd == set.len(), || format!("nd {nd} != distinct {}", set.len()))?;
        let tsa = Tsa::from_runs(runs);
        ensure(nd == tsa.num_states(), || {
            format!("nd {nd} != tsa states {}", tsa.num_states())
        })
    });
}

/// Histogram totals are consistent with the recorded samples, and the
/// tail metric ignores repeats of already-seen abort counts.
#[test]
fn histogram_totals_are_consistent() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed ^ 0x4157);
        let samples: Vec<u32> =
            (0..1 + rng.below(199)).map(|_| rng.below(50) as u32).collect();
        let mut h = AbortHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.total_commits(), samples.len() as u64, "seed {seed}");
        assert_eq!(
            h.total_aborts(),
            samples.iter().map(|&s| s as u64).sum::<u64>(),
            "seed {seed}"
        );
        assert_eq!(h.max_aborts(), samples.iter().copied().max().unwrap(), "seed {seed}");
        let before = h.tail_metric();
        let mut h2 = h.clone();
        h2.record(*samples.first().unwrap());
        assert_eq!(h2.tail_metric(), before, "seed {seed}: tail moved on a repeat");
    }
}

/// Standard deviation is translation-invariant and scales linearly.
#[test]
fn std_dev_is_translation_invariant_and_scales() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed ^ 0x57dd);
        let signed = |r: &mut Rng| (r.below(2_000_001) as f64 - 1e6) / 1e3; // -1e3..=1e3
        let xs: Vec<f64> = (0..2 + rng.below(48)).map(|_| signed(&mut rng)).collect();
        let shift = signed(&mut rng) / 10.0;
        let sd = metrics::std_dev(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        assert!(
            (metrics::std_dev(&shifted) - sd).abs() < 1e-6,
            "seed {seed}: shift moved std-dev"
        );
        let scaled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        assert!(
            (metrics::std_dev(&scaled) - 2.0 * sd).abs() < 1e-6,
            "seed {seed}: scaling is not linear"
        );
    }
}

// ---------------------------------------------------------------------------
// Transactional containers vs. BTreeMap
// ---------------------------------------------------------------------------

mod container_props {
    use super::Rng;
    use gstm_core::TxnId;
    use gstm_structs::{THashMap, TList, TMap};
    use gstm_tl2::{Stm, StmConfig};
    use std::collections::BTreeMap;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
        Upsert(u64, u64),
    }

    fn ops(seed: u64, max: u64) -> Vec<Op> {
        let mut rng = Rng::new(seed ^ 0xc0117a1e);
        (0..1 + rng.below(max))
            .map(|_| match rng.below(4) {
                0 => Op::Insert(rng.below(40), rng.next()),
                1 => Op::Remove(rng.below(40)),
                2 => Op::Get(rng.below(40)),
                _ => Op::Upsert(rng.below(40), rng.next()),
            })
            .collect()
    }

    /// What the container answered for one op.
    enum Answer {
        Did(bool),
        Got(Option<u64>),
    }

    /// Drive `ops` through a container (via the single `run` adapter —
    /// one closure so it can own the `&mut ctx`) and the BTreeMap oracle.
    fn check_against_model(
        seed: u64,
        ops: &[Op],
        mut run: impl FnMut(Op) -> Answer,
    ) -> BTreeMap<u64, u64> {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match (*op, run(*op)) {
                (Op::Insert(k, v), Answer::Did(did)) => {
                    assert_eq!(did, !model.contains_key(&k), "seed {seed} {op:?}");
                    model.entry(k).or_insert(v);
                }
                (Op::Remove(k), Answer::Got(got)) => {
                    assert_eq!(got, model.remove(&k), "seed {seed} {op:?}");
                }
                (Op::Get(k), Answer::Got(got)) => {
                    assert_eq!(got, model.get(&k).copied(), "seed {seed} {op:?}");
                }
                (Op::Upsert(k, v), Answer::Got(old)) => {
                    assert_eq!(old, model.insert(k, v), "seed {seed} {op:?}");
                }
                _ => panic!("adapter answered the wrong shape for {op:?}"),
            }
        }
        model
    }

    #[test]
    fn tmap_matches_btreemap() {
        for seed in 0..32u64 {
            let stm = Stm::new(StmConfig::default());
            let mut ctx = stm.register();
            let map: TMap<u64> = TMap::new();
            let ops = ops(seed, 149);
            let model = check_against_model(seed, &ops, |op| match op {
                Op::Insert(k, v) => {
                    Answer::Did(ctx.atomically(TxnId(0), |tx| map.insert(tx, k, v)))
                }
                Op::Remove(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| map.remove(tx, k))),
                Op::Get(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| map.get(tx, k))),
                Op::Upsert(k, v) => {
                    Answer::Got(ctx.atomically(TxnId(0), |tx| map.upsert(tx, k, v)))
                }
            });
            let snap = ctx.atomically(TxnId(0), |tx| map.snapshot(tx));
            assert_eq!(snap, model.into_iter().collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn tlist_matches_btreemap() {
        for seed in 0..32u64 {
            let stm = Stm::new(StmConfig::default());
            let mut ctx = stm.register();
            let list: TList<u64> = TList::new();
            let ops = ops(seed, 99);
            let model = check_against_model(seed, &ops, |op| match op {
                Op::Insert(k, v) => {
                    Answer::Did(ctx.atomically(TxnId(0), |tx| list.insert(tx, k, v)))
                }
                Op::Remove(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| list.remove(tx, k))),
                Op::Get(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| list.get(tx, k))),
                Op::Upsert(k, v) => {
                    Answer::Got(ctx.atomically(TxnId(0), |tx| list.upsert(tx, k, v)))
                }
            });
            let snap = ctx.atomically(TxnId(0), |tx| list.snapshot(tx));
            assert_eq!(snap, model.into_iter().collect::<Vec<_>>(), "seed {seed}");
        }
    }

    #[test]
    fn thashmap_matches_model() {
        for seed in 0..32u64 {
            let stm = Stm::new(StmConfig::default());
            let mut ctx = stm.register();
            let buckets = 1 + (seed as usize % 15);
            let map: THashMap<u64> = THashMap::new(buckets);
            let ops = ops(seed, 99);
            let model = check_against_model(seed, &ops, |op| match op {
                Op::Insert(k, v) => {
                    Answer::Did(ctx.atomically(TxnId(0), |tx| map.insert(tx, k, v)))
                }
                Op::Remove(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| map.remove(tx, k))),
                Op::Get(k) => Answer::Got(ctx.atomically(TxnId(0), |tx| map.get(tx, k))),
                Op::Upsert(k, v) => {
                    Answer::Got(ctx.atomically(TxnId(0), |tx| map.upsert(tx, k, v)))
                }
            });
            let len = ctx.atomically(TxnId(0), |tx| map.len(tx));
            assert_eq!(len as usize, model.len(), "seed {seed}");
        }
    }
}
