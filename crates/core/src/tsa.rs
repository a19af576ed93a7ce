//! The Thread State Automaton (TSA) and the derived guided model.
//!
//! The TSA is a finite automaton whose states are the distinct
//! [`StateKey`]s (thread transactional states) observed across profiling
//! runs, and whose weighted edges count observed transitions between
//! consecutive states in the transaction sequence (Algorithm 1 of the
//! paper). Transition probabilities are relative frequencies over the
//! outbound edges of each state.
//!
//! [`GuidedModel`] is the run-time artifact: for every state it precomputes
//! the *destination set* — the outbound transitions whose probability is at
//! least `P_h / Tfactor` — together with the set of `<txn,thread>` pairs
//! occurring in any tuple of those destination states. The guided STM's
//! gate is a single hash-set membership test against that pair set.

use crate::config::GuidanceConfig;
use crate::ids::Pair;
use crate::tss::{hash_parts, StateKey};
use std::collections::HashMap;

/// Dense index of a state in a [`Tsa`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// Raw index.
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Open-addressed map from precomputed 64-bit state hashes to state ids.
///
/// This is the "hash map used to look up the destination states" of the
/// paper, built for the commit hot path: states are interned once into a
/// dense id space, each slot stores `(hash64, id)`, and a lookup is one
/// multiply-free probe sequence plus an equality check against the dense
/// `states` vec — no `StateKey` construction, cloning, or SipHash on the
/// query side. Collisions on the full 64-bit hash fall back to the
/// caller-supplied equality predicate, so correctness never depends on
/// hash quality.
#[derive(Clone, Debug, Default)]
struct StateIndex {
    /// Power-of-two slot array; `id == EMPTY_SLOT` marks an empty slot.
    slots: Box<[(u64, u32)]>,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl StateIndex {
    fn with_capacity(n: usize) -> Self {
        let cap = (n.max(4) * 2).next_power_of_two();
        StateIndex {
            slots: vec![(0, EMPTY_SLOT); cap].into_boxed_slice(),
            len: 0,
        }
    }

    /// Find the id whose slot hash equals `hash` and for which `eq` holds.
    #[inline]
    fn lookup(&self, hash: u64, mut eq: impl FnMut(StateId) -> bool) -> Option<StateId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY_SLOT {
                return None;
            }
            if h == hash && eq(StateId(id)) {
                return Some(StateId(id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a (hash, id) pair. The caller guarantees the id is not
    /// already present under this hash.
    fn insert(&mut self, hash: u64, id: StateId) {
        if self.slots.is_empty() {
            *self = Self::with_capacity(4);
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            let old = std::mem::replace(self, Self::with_capacity(self.slots.len()));
            self.len = old.len;
            let mask = self.slots.len() - 1;
            for &(h, raw) in old.slots.iter() {
                if raw == EMPTY_SLOT {
                    continue;
                }
                let mut i = h as usize & mask;
                while self.slots[i].1 != EMPTY_SLOT {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, raw);
            }
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id.0);
        self.len += 1;
    }
}

/// The Thread State Automaton: interned states plus weighted transitions.
#[derive(Clone, Debug, Default)]
pub struct Tsa {
    states: Vec<StateKey>,
    index: StateIndex,
    /// Outbound edges per state: `(destination, frequency)`, sorted by
    /// descending frequency (ties broken by destination id for determinism).
    transitions: Vec<Vec<(StateId, u64)>>,
}

impl Tsa {
    /// Build the automaton from one or more profiled runs, each a sequence
    /// of thread transactional states (the Tseq). Transitions are counted
    /// within a run only — the last state of run *i* is not connected to
    /// the first state of run *i+1*.
    pub fn from_runs<S: AsRef<[StateKey]>>(runs: &[S]) -> Self {
        let mut tsa = Tsa::default();
        let mut counts: Vec<HashMap<StateId, u64>> = Vec::new();
        for run in runs {
            let run = run.as_ref();
            let mut prev: Option<StateId> = None;
            for key in run {
                let id = tsa.intern(key.clone(), &mut counts);
                if let Some(p) = prev {
                    *counts[p.index()].entry(id).or_insert(0) += 1;
                }
                prev = Some(id);
            }
        }
        tsa.transitions = counts
            .into_iter()
            .map(|m| {
                let mut v: Vec<(StateId, u64)> = m.into_iter().collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
                v
            })
            .collect();
        tsa
    }

    /// Reassemble an automaton from its parts (used by the model decoder).
    /// Fails if state keys are not unique or an edge points out of range.
    pub(crate) fn from_parts(
        states: Vec<StateKey>,
        transitions: Vec<Vec<(StateId, u64)>>,
    ) -> Result<Self, String> {
        if states.len() != transitions.len() {
            return Err(format!(
                "{} states but {} transition lists",
                states.len(),
                transitions.len()
            ));
        }
        let mut index = StateIndex::with_capacity(states.len());
        for (i, key) in states.iter().enumerate() {
            let hash = key.hash64();
            if index.lookup(hash, |id| states[id.index()] == *key).is_some() {
                return Err(format!("duplicate state key {key}"));
            }
            index.insert(hash, StateId(i as u32));
        }
        for edges in &transitions {
            for &(dst, _) in edges {
                if dst.index() >= states.len() {
                    return Err(format!("edge destination {} out of range", dst.0));
                }
            }
        }
        Ok(Tsa {
            states,
            index,
            transitions,
        })
    }

    fn intern(&mut self, key: StateKey, counts: &mut Vec<HashMap<StateId, u64>>) -> StateId {
        let hash = key.hash64();
        if let Some(id) = self.index.lookup(hash, |id| self.states[id.index()] == key) {
            return id;
        }
        // New state: move the key straight into the dense states vec — the
        // index stores only (hash, id), so interning never clones a key.
        let id = StateId(self.states.len() as u32);
        self.states.push(key);
        self.index.insert(hash, id);
        counts.push(HashMap::new());
        id
    }

    /// Number of distinct states — the paper's *non-determinism* measure
    /// for the profiled executions (Table III reports this per model).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.transitions.iter().map(Vec::len).sum()
    }

    /// The state key for an id.
    pub fn state(&self, id: StateId) -> &StateKey {
        &self.states[id.index()]
    }

    /// Look up the state described by a *sorted, deduplicated* abort slice
    /// and a committing pair — the commit hot path's lookup, which hashes
    /// the borrowed parts directly instead of constructing a `StateKey`.
    #[inline]
    pub fn id_of_parts(&self, aborts: &[Pair], commit: Pair) -> Option<StateId> {
        self.index.lookup(hash_parts(aborts, commit), |id| {
            self.states[id.index()].matches_parts(aborts, commit)
        })
    }

    /// Outbound edges of a state, `(destination, frequency)`, sorted by
    /// descending frequency.
    pub fn outbound(&self, id: StateId) -> &[(StateId, u64)] {
        &self.transitions[id.index()]
    }

    /// Transition probability `P(from -> to)` = frequency of the edge over
    /// the sum of frequencies of all outbound edges of `from`.
    pub fn probability(&self, from: StateId, to: StateId) -> f64 {
        let edges = self.outbound(from);
        let total: u64 = edges.iter().map(|&(_, f)| f).sum();
        if total == 0 {
            return 0.0;
        }
        edges
            .iter()
            .find(|&&(d, _)| d == to)
            .map(|&(_, f)| f as f64 / total as f64)
            .unwrap_or(0.0)
    }

    /// Iterate over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> {
        (0..self.states.len() as u32).map(StateId)
    }

    /// All states, in interning order.
    pub fn states(&self) -> &[StateKey] {
        &self.states
    }
}

/// Per-state destination summary inside a [`GuidedModel`].
#[derive(Clone, Debug)]
struct DestSet {
    /// Number of outbound destinations in the unguided automaton (|S|).
    all: u32,
    /// Number of destinations kept after thresholding (|S'|).
    kept: u32,
    /// Destination state ids kept after thresholding.
    kept_states: Vec<StateId>,
}

/// The run-time guidance artifact derived from a [`Tsa`] and a Tfactor.
///
/// This is the paper's "model ... cut down to exclude low-probability
/// states and ... stored in an efficient bitwise structure" with "a hash
/// map used to look up the destination states": the allowed
/// `<txn,thread>` pairs of every state live in one dense bitmap (a row of
/// `words_per_state` 64-bit words per state, bit `txn * thread_limit +
/// thread`), so the gate's membership test is a bounds check, one load,
/// and a mask — no hashing and no pointer chasing. State lookup at commit
/// goes through the [`Tsa`]'s precomputed-hash index.
#[derive(Clone, Debug)]
pub struct GuidedModel {
    tsa: Tsa,
    tfactor: f64,
    dests: Vec<DestSet>,
    /// Bitmap geometry: pairs with `txn < txn_limit && thread <
    /// thread_limit` are representable; anything outside occurs in no
    /// modeled state and is never allowed.
    txn_limit: u32,
    thread_limit: u32,
    /// `ceil(txn_limit * thread_limit / 64)` — bitmap words per state.
    words_per_state: usize,
    /// `num_states * words_per_state` words, row `s` holding state `s`'s
    /// allowed-pair bitmap.
    bits: Box<[u64]>,
}

impl GuidedModel {
    /// Threshold every state's outbound edges at `P_h / tfactor` and
    /// precompute the gate's bitwise membership structure.
    pub fn build(tsa: Tsa, config: &GuidanceConfig) -> Self {
        assert!(config.tfactor >= 1.0, "Tfactor must be >= 1");
        // Geometry over every pair occurring anywhere in the model: dense
        // in practice, since benchmarks number transaction sites and
        // threads contiguously from zero.
        let (mut txn_limit, mut thread_limit) = (0u32, 0u32);
        for key in tsa.states() {
            for pair in key.pairs() {
                txn_limit = txn_limit.max(pair.txn.0 as u32 + 1);
                thread_limit = thread_limit.max(pair.thread.0 as u32 + 1);
            }
        }
        let words_per_state = ((txn_limit * thread_limit) as usize).div_ceil(64);
        let mut bits = vec![0u64; tsa.num_states() * words_per_state].into_boxed_slice();
        let mut dests = Vec::with_capacity(tsa.num_states());
        for id in tsa.state_ids() {
            let edges = tsa.outbound(id);
            let total: u64 = edges.iter().map(|&(_, f)| f).sum();
            let mut kept_states = Vec::new();
            if total > 0 {
                // Edges are sorted by descending frequency, so the head is P_h.
                let p_h = edges[0].1 as f64 / total as f64;
                let threshold = p_h / config.tfactor;
                let row = &mut bits[id.index() * words_per_state..][..words_per_state];
                for &(dst, f) in edges {
                    let p = f as f64 / total as f64;
                    if p >= threshold {
                        kept_states.push(dst);
                        for pair in tsa.state(dst).pairs() {
                            let bit =
                                pair.txn.0 as usize * thread_limit as usize + pair.thread.0 as usize;
                            row[bit >> 6] |= 1u64 << (bit & 63);
                        }
                    }
                }
            }
            dests.push(DestSet {
                all: edges.len() as u32,
                kept: kept_states.len() as u32,
                kept_states,
            });
        }
        GuidedModel {
            tsa,
            tfactor: config.tfactor,
            dests,
            txn_limit,
            thread_limit,
            words_per_state,
            bits,
        }
    }

    /// The underlying automaton.
    pub fn tsa(&self) -> &Tsa {
        &self.tsa
    }

    /// The Tfactor the model was thresholded with.
    pub fn tfactor(&self) -> f64 {
        self.tfactor
    }

    /// Whether `who` may proceed from `state`: true iff `who` appears in
    /// any tuple (commit or abort) of a high-probability destination state.
    /// A single bitmap load + mask — this sits on every gate retry.
    #[inline]
    pub fn is_allowed(&self, state: StateId, who: Pair) -> bool {
        let (txn, thread) = (who.txn.0 as u32, who.thread.0 as u32);
        if txn >= self.txn_limit || thread >= self.thread_limit {
            return false;
        }
        let bit = (txn * self.thread_limit + thread) as usize;
        let word = self.bits[state.index() * self.words_per_state + (bit >> 6)];
        word >> (bit & 63) & 1 != 0
    }

    /// The thresholded destination states of `state`.
    pub fn kept_destinations(&self, state: StateId) -> &[StateId] {
        &self.dests[state.index()].kept_states
    }

    /// `(|S|, |S'|)` for a state: all vs thresholded destination counts.
    /// The analyzer's guidance metric aggregates these over all states.
    pub fn dest_counts(&self, state: StateId) -> (u32, u32) {
        let d = &self.dests[state.index()];
        (d.all, d.kept)
    }

    /// Hot-path state lookup by borrowed parts (see [`Tsa::id_of_parts`]).
    #[inline]
    pub(crate) fn id_of_parts(&self, aborts: &[Pair], commit: Pair) -> Option<StateId> {
        self.tsa.id_of_parts(aborts, commit)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.tsa.num_states()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxnId};

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    impl Tsa {
        /// Look up a whole state key (the reference `id_of_parts` must match).
        fn id_of(&self, key: &StateKey) -> Option<StateId> {
            self.index
                .lookup(key.hash64(), |id| self.states[id.index()] == *key)
        }
    }

    fn chain(pairs: &[(Vec<Pair>, Pair)]) -> Vec<StateKey> {
        pairs
            .iter()
            .map(|(a, c)| StateKey::new(a.clone(), *c))
            .collect()
    }

    #[test]
    fn from_runs_counts_transitions() {
        // Run visits A -> B -> A -> B; one run.
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let run = vec![a.clone(), b.clone(), a.clone(), b.clone()];
        let tsa = Tsa::from_runs(&[run]);
        assert_eq!(tsa.num_states(), 2);
        let ia = tsa.id_of(&a).unwrap();
        let ib = tsa.id_of(&b).unwrap();
        assert_eq!(tsa.outbound(ia), &[(ib, 2)]);
        assert_eq!(tsa.outbound(ib), &[(ia, 1)]);
        assert!((tsa.probability(ia, ib) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn runs_are_not_stitched_together() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        // Two runs: [A] and [B]. No transition should exist.
        let tsa = Tsa::from_runs(&[vec![a.clone()], vec![b.clone()]]);
        assert_eq!(tsa.num_states(), 2);
        assert_eq!(tsa.num_edges(), 0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let c = StateKey::solo(p(0, 2));
        let run = vec![
            a.clone(),
            b.clone(),
            a.clone(),
            c.clone(),
            a.clone(),
            b.clone(),
        ];
        let tsa = Tsa::from_runs(&[run]);
        let ia = tsa.id_of(&a).unwrap();
        let total: f64 = tsa
            .state_ids()
            .map(|to| tsa.probability(ia, to))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tfactor_one_keeps_only_top_probability_edges() {
        // From A: 3x to B, 1x to C. With Tfactor=1 the threshold equals
        // P_h, so only B survives.
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let c = StateKey::solo(p(0, 2));
        let run = vec![
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            c.clone(),
        ];
        let tsa = Tsa::from_runs(&[run]);
        let ia = tsa.id_of(&a).unwrap();
        let model = GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(1.0));
        let (all, kept) = model.dest_counts(ia);
        assert_eq!(all, 2);
        assert_eq!(kept, 1);
        assert!(model.is_allowed(ia, p(0, 1)));
        assert!(!model.is_allowed(ia, p(0, 2)));
    }

    #[test]
    fn larger_tfactor_keeps_more_destinations() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let c = StateKey::solo(p(0, 2));
        let run = vec![
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            c.clone(),
        ];
        let tsa = Tsa::from_runs(&[run]);
        let ia = tsa.id_of(&a).unwrap();
        // P(B)=0.75, P(C)=0.25; threshold at Tfactor=4 is 0.1875 <= 0.25.
        let model = GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(4.0));
        let (_, kept) = model.dest_counts(ia);
        assert_eq!(kept, 2);
        assert!(model.is_allowed(ia, p(0, 2)));
    }

    #[test]
    fn allowed_includes_abort_participants() {
        // Destination state has thread 5 aborting txn 1; thread 5 must be
        // allowed to run txn 1 from the source state (speculation preserved).
        let src = StateKey::solo(p(0, 0));
        let dst = chain(&[(vec![p(1, 5)], p(0, 2))]).remove(0);
        let run = vec![src.clone(), dst.clone()];
        let tsa = Tsa::from_runs(&[run]);
        let is = tsa.id_of(&src).unwrap();
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        assert!(model.is_allowed(is, p(1, 5)));
        assert!(model.is_allowed(is, p(0, 2)));
        assert!(!model.is_allowed(is, p(1, 2)));
    }

    #[test]
    fn id_of_parts_matches_id_of() {
        let keys = vec![
            StateKey::solo(p(0, 0)),
            StateKey::new(vec![p(0, 1), p(1, 2)], p(2, 3)),
            StateKey::new(vec![p(0, 1)], p(2, 3)),
            StateKey::solo(p(2, 3)),
        ];
        let tsa = Tsa::from_runs(std::slice::from_ref(&keys));
        for key in &keys {
            let mut aborts = key.aborts().to_vec();
            aborts.sort_unstable();
            assert_eq!(
                tsa.id_of_parts(&aborts, key.commit()),
                tsa.id_of(key),
                "parts lookup disagrees for {key}"
            );
        }
        assert_eq!(tsa.id_of_parts(&[], p(9, 9)), None);
        assert_eq!(tsa.id_of_parts(&[p(0, 1)], p(9, 9)), None);
    }

    #[test]
    fn index_survives_growth_past_initial_capacity() {
        // Hundreds of distinct states force several StateIndex growths;
        // every state must remain findable and intern must stay stable.
        let run: Vec<StateKey> = (0..500u16)
            .map(|i| StateKey::solo(p(i % 26, i / 26)))
            .collect();
        let tsa = Tsa::from_runs(std::slice::from_ref(&run));
        let distinct: std::collections::HashSet<_> = run.iter().cloned().collect();
        assert_eq!(tsa.num_states(), distinct.len());
        for key in &distinct {
            let id = tsa.id_of(key).expect("interned state must be found");
            assert_eq!(tsa.state(id), key);
        }
    }

    #[test]
    fn is_allowed_rejects_pairs_outside_bitmap_geometry() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(1, 2));
        let tsa = Tsa::from_runs(&[vec![a.clone(), b]]);
        let ia = tsa.id_of(&a).unwrap();
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        assert!(model.is_allowed(ia, p(1, 2)));
        // In-geometry but never occurring: bit is simply zero.
        assert!(!model.is_allowed(ia, p(0, 1)));
        // Outside the geometry on either axis: bounds check rejects.
        assert!(!model.is_allowed(ia, p(7, 0)));
        assert!(!model.is_allowed(ia, p(0, 7)));
        assert!(!model.is_allowed(ia, p(u16::MAX, u16::MAX)));
    }

    #[test]
    fn terminal_state_allows_nothing() {
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let tsa = Tsa::from_runs(&[vec![a, b.clone()]]);
        let ib = tsa.id_of(&b).unwrap();
        let model = GuidedModel::build(tsa, &GuidanceConfig::default());
        let (all, kept) = model.dest_counts(ib);
        assert_eq!((all, kept), (0, 0));
        assert!(!model.is_allowed(ib, p(0, 0)));
    }
}
