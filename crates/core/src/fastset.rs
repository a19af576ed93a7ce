//! A small open-addressed set of non-zero `usize` keys.
//!
//! Read and reader-registration sets in both STMs deduplicate locations by
//! their allocation address on *every* transactional read. The std
//! `HashSet<usize>` does that job with a SipHash invocation per probe —
//! measurable overhead on a path that is otherwise a couple of atomic
//! loads. [`AddrSet`] replaces it with Fibonacci (multiplicative) hashing
//! into a power-of-two slot array: one multiply, one shift, and a linear
//! probe. Keys must be non-zero, which addresses always are.
//!
//! Each thread keeps one set per transaction buffer and clears it at the
//! end of every attempt, so [`AddrSet::clear`] costs O(keys), not O(the
//! largest table the thread ever grew): the set remembers which slots it
//! filled and zeroes only those. The table itself is kept, so a thread
//! holds at most the capacity its largest transaction needed.

/// An insert-only set of non-zero `usize` keys (e.g. allocation addresses).
/// The empty set ([`AddrSet::default`]) allocates nothing until the first
/// insert.
#[derive(Debug, Default)]
pub struct AddrSet {
    /// Power-of-two slot array; `0` marks an empty slot.
    slots: Vec<usize>,
    /// Index of every filled slot, so `clear` touches only those; its
    /// length is the number of keys.
    filled: Vec<usize>,
}

/// 2^64 / φ — the classic Fibonacci-hashing multiplier.
const PHI: usize = 0x9e37_79b9_7f4a_7c15_u64 as usize;

const INITIAL_SLOTS: usize = 16;

impl AddrSet {
    /// Number of keys in the set.
    fn len(&self) -> usize {
        self.filled.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.filled.is_empty()
    }

    /// Remove every key, keeping the allocation for reuse. Zeroes only
    /// the filled slots, so the cost is O(keys) however large the table.
    pub fn clear(&mut self) {
        for i in self.filled.drain(..) {
            self.slots[i] = 0;
        }
    }

    #[inline]
    fn slot_of(key: usize, mask: usize) -> usize {
        key.wrapping_mul(PHI) >> 7 & mask
    }

    /// Insert `key`, returning `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, key: usize) -> bool {
        debug_assert_ne!(key, 0, "AddrSet keys must be non-zero");
        if self.slots.is_empty() {
            self.slots = vec![0; INITIAL_SLOTS];
        } else if (self.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::slot_of(key, mask);
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.filled.push(i);
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in &mut self.filled {
            let key = old[*slot];
            let mut i = Self::slot_of(key, mask);
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
            *slot = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AddrSet {
        /// Whether `key` is in the set.
        fn contains(&self, key: usize) -> bool {
            if self.slots.is_empty() {
                return false;
            }
            let mask = self.slots.len() - 1;
            let mut i = Self::slot_of(key, mask);
            loop {
                match self.slots[i] {
                    0 => return false,
                    k if k == key => return true,
                    _ => i = (i + 1) & mask,
                }
            }
        }
    }

    #[test]
    fn insert_and_contains() {
        let mut s = AddrSet::default();
        assert!(s.is_empty());
        assert!(!s.contains(8));
        assert!(s.insert(8));
        assert!(!s.insert(8), "second insert is a no-op");
        assert!(s.contains(8));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = AddrSet::default();
        // Word-aligned-address-like keys, far more than INITIAL_SLOTS.
        let keys: Vec<usize> = (1..=500usize).map(|i| i * 8).collect();
        for &k in &keys {
            assert!(s.insert(k));
        }
        assert_eq!(s.len(), keys.len());
        for &k in &keys {
            assert!(s.contains(k));
            assert!(!s.insert(k));
        }
        assert!(!s.contains(4), "absent key");
    }

    #[test]
    fn clear_after_large_growth_zeroes_only_filled_slots() {
        let mut s = AddrSet::default();
        let keys: Vec<usize> = (1..=12_000usize).map(|i| i * 8).collect();
        for &k in &keys {
            s.insert(k);
        }
        let cap = s.slots.len();
        assert!(cap > 12_000, "grew past 10k keys");
        s.clear();
        assert!(s.is_empty());
        assert!(s.slots.iter().all(|&k| k == 0), "no stale key survives");
        assert_eq!(s.slots.len(), cap, "the largest table is kept");
        // A small attempt on the big table: `clear` visits exactly the
        // slots this attempt filled, not the whole table.
        for &k in &keys[..3] {
            assert!(s.insert(k), "cleared key is absent again");
        }
        assert_eq!(s.filled.len(), 3);
        for &i in &s.filled {
            assert_ne!(s.slots[i], 0);
        }
        assert_eq!(s.slots.iter().filter(|&&k| k != 0).count(), 3);
        s.clear();
        assert!(s.slots.iter().all(|&k| k == 0));
        assert!(!s.contains(keys[0]));
        assert!(s.insert(keys[0]));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut s = AddrSet::default();
        for i in 1..=100usize {
            s.insert(i * 16);
        }
        let cap = s.slots.len();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.slots.len(), cap, "allocation kept");
        assert!(!s.contains(16));
        assert!(s.insert(16));
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Keys crafted to share a slot in a 16-slot table: same value
        // after the multiply-shift-mask. Brute-force a few.
        let mut s = AddrSet::default();
        let target = AddrSet::slot_of(8, INITIAL_SLOTS - 1);
        let colliders: Vec<usize> = (1..10_000usize)
            .map(|i| i * 8)
            .filter(|&k| AddrSet::slot_of(k, INITIAL_SLOTS - 1) == target)
            .take(4)
            .collect();
        assert!(colliders.len() >= 2, "need at least two colliding keys");
        for &k in &colliders {
            assert!(s.insert(k));
        }
        for &k in &colliders {
            assert!(s.contains(k));
        }
    }
}
