//! Thread Transactional States (TSS).
//!
//! A *thread transactional state* captures the outcome of one commit in a
//! concurrent transactional race: the `<txn,thread>` pair that committed
//! together with the (possibly empty) set of `<txn,thread>` pairs whose
//! attempts rolled back in that window. The paper writes e.g.
//! `{<a1b2c3>, <d4>}` for "thread 4 committed transaction d, aborting
//! threads 1, 2, 3 running transactions a, b, c".
//!
//! ## Attribution model
//!
//! TL2 detects conflicts lazily: a victim discovers it must abort only when
//! it reads a too-new version or fails commit-time validation — *after* the
//! conflicting commit. The online tracker therefore groups the aborts
//! observed since the previous commit with the *next* commit event. Both
//! the profiling recorder and the guided-execution tracker use this same
//! windowed attribution, so the states seen at run time are drawn from the
//! same space as the states in the model. Section III of the paper argues
//! tracking the state of concurrent transactions this way is sufficient.
//! The tracker is the only code that forms states from aborts; a traced
//! guided run exports each one as a
//! [`crate::telemetry::TraceKind::State`] record keyed by [`hash_parts`].

use crate::ids::Pair;
use std::fmt;

/// One thread transactional state: the aborted pairs plus the committed pair.
///
/// `aborts` is kept sorted so that states that differ only in the order
/// aborts were observed compare equal, as the paper's tuple notation
/// implies (a tuple denotes a *set* of aborted thread-transactions).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StateKey {
    aborts: Box<[Pair]>,
    commit: Pair,
}

impl StateKey {
    /// Build a state from an abort set and the committing pair. The abort
    /// list is sorted and deduplicated.
    pub fn new(mut aborts: Vec<Pair>, commit: Pair) -> Self {
        aborts.sort_unstable();
        aborts.dedup();
        StateKey {
            aborts: aborts.into_boxed_slice(),
            commit,
        }
    }

    /// A state in which a single thread ran and committed with no aborts,
    /// e.g. `{<c3>}` in the paper's notation.
    pub fn solo(commit: Pair) -> Self {
        StateKey {
            aborts: Box::default(),
            commit,
        }
    }

    /// Build a state from an *already sorted and deduplicated* abort slice.
    ///
    /// This is the online tracker's constructor: the commit-side scratch
    /// buffer is canonicalized in place, looked up in the model by
    /// reference, and only then materialized into an owned key for the
    /// recorded Tseq — one boxed-slice copy, no intermediate `Vec`, and no
    /// allocation at all for the common solo (no aborts) state.
    pub fn from_sorted(aborts: &[Pair], commit: Pair) -> Self {
        debug_assert!(
            aborts.windows(2).all(|w| w[0] < w[1]),
            "aborts must be sorted and deduplicated"
        );
        StateKey {
            aborts: if aborts.is_empty() {
                Box::default()
            } else {
                aborts.into()
            },
            commit,
        }
    }

    /// The committing `<txn,thread>` pair.
    #[inline]
    pub fn commit(&self) -> Pair {
        self.commit
    }

    /// The aborted `<txn,thread>` pairs, sorted.
    #[inline]
    pub fn aborts(&self) -> &[Pair] {
        &self.aborts
    }

    /// All pairs of the state: aborts then commit.
    pub fn pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        self.aborts.iter().copied().chain(std::iter::once(self.commit))
    }

    /// The precomputable 64-bit hash of this state (see [`hash_parts`]).
    #[inline]
    pub fn hash64(&self) -> u64 {
        hash_parts(&self.aborts, self.commit)
    }

    /// Whether this state equals the one described by a sorted abort slice
    /// and a committing pair — equality without constructing a `StateKey`.
    #[inline]
    pub(crate) fn matches_parts(&self, aborts: &[Pair], commit: Pair) -> bool {
        self.commit == commit && *self.aborts == *aborts
    }
}

/// The 64-bit state hash shared by model build and the commit hot path:
/// FNV-1a over the packed pairs of the state (sorted aborts, then the
/// committing pair under a distinguishing complement so `{<a1>, <b2>}` and
/// `{<b2>, <a1>}`-style swaps cannot collide structurally).
///
/// `aborts` must be sorted and deduplicated — the canonical form
/// [`StateKey`] maintains — so equal states always produce equal hashes.
#[inline]
pub fn hash_parts(aborts: &[Pair], commit: Pair) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for p in aborts {
        h = (h ^ p.packed() as u64).wrapping_mul(PRIME);
    }
    (h ^ !(commit.packed() as u64)).wrapping_mul(PRIME)
}

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        if !self.aborts.is_empty() {
            write!(f, "<")?;
            for p in self.aborts.iter() {
                write!(f, "{p}")?;
            }
            write!(f, ">, ")?;
        }
        write!(f, "<{}>}}", self.commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxnId};

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    #[test]
    fn display_matches_paper() {
        let s = StateKey::new(vec![p(0, 1), p(1, 2), p(2, 3)], p(3, 4));
        assert_eq!(s.to_string(), "{<a1b2c3>, <d4>}");
        assert_eq!(StateKey::solo(p(2, 3)).to_string(), "{<c3>}");
    }

    #[test]
    fn abort_order_is_canonicalized() {
        let s1 = StateKey::new(vec![p(1, 2), p(0, 1)], p(3, 4));
        let s2 = StateKey::new(vec![p(0, 1), p(1, 2)], p(3, 4));
        assert_eq!(s1, s2);
        let s3 = StateKey::new(vec![p(0, 1), p(0, 1)], p(3, 4));
        assert_eq!(s3.aborts().len(), 1, "duplicates removed");
    }

    #[test]
    fn from_sorted_matches_new() {
        let aborts = {
            let mut v = vec![p(1, 2), p(0, 1), p(3, 0)];
            v.sort_unstable();
            v
        };
        let a = StateKey::from_sorted(&aborts, p(4, 4));
        let b = StateKey::new(vec![p(3, 0), p(0, 1), p(1, 2)], p(4, 4));
        assert_eq!(a, b);
        assert_eq!(StateKey::from_sorted(&[], p(2, 2)), StateKey::solo(p(2, 2)));
    }

    #[test]
    fn hash_and_matches_agree_with_equality() {
        let a = StateKey::new(vec![p(0, 1), p(1, 2)], p(2, 3));
        let b = StateKey::new(vec![p(1, 2), p(0, 1)], p(2, 3));
        assert_eq!(a.hash64(), b.hash64(), "canonicalized states hash equal");
        assert_eq!(a.hash64(), hash_parts(a.aborts(), a.commit()));
        assert!(a.matches_parts(b.aborts(), b.commit()));
        assert!(!a.matches_parts(&[], p(2, 3)));
        assert!(!a.matches_parts(a.aborts(), p(2, 4)));
        // Swapping a pair between the abort set and the commit slot must
        // change the hash (the structural-collision case hash_parts guards).
        let swapped = StateKey::new(vec![p(2, 3), p(1, 2)], p(0, 1));
        assert_ne!(a.hash64(), swapped.hash64());
        assert_ne!(
            StateKey::solo(p(0, 1)).hash64(),
            StateKey::new(vec![p(0, 1)], p(0, 1)).hash64()
        );
    }

    #[test]
    fn pairs_iterates_aborts_then_commit() {
        let s = StateKey::new(vec![p(0, 1), p(1, 2)], p(2, 3));
        let pairs: Vec<Pair> = s.pairs().collect();
        assert_eq!(pairs, vec![p(0, 1), p(1, 2), p(2, 3)]);
    }
}
