//! Transactional chained hash table (STAMP `hashtable.c`).

use crate::list::TList;
use gstm_core::rng::mix64;
use gstm_tl2::{TxResult, Txn};
use std::sync::Arc;

/// A fixed-bucket chained hash table. The bucket array is immutable after
/// construction (STAMP sizes its tables up front too); each bucket is a
/// sorted [`TList`], so independent buckets never conflict.
pub struct THashMap<V> {
    buckets: Arc<[TList<V>]>,
}

impl<V> Clone for THashMap<V> {
    fn clone(&self) -> Self {
        THashMap {
            buckets: Arc::clone(&self.buckets),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> THashMap<V> {
    /// A table with `num_buckets` chains (rounded up to at least 1).
    pub fn new(num_buckets: usize) -> Self {
        let n = num_buckets.max(1);
        THashMap {
            buckets: (0..n).map(|_| TList::new()).collect(),
        }
    }

    #[inline]
    fn bucket(&self, key: u64) -> &TList<V> {
        let h = mix64(key) as usize;
        &self.buckets[h % self.buckets.len()]
    }

    /// Insert `key -> value`; `false` if the key is already present.
    pub fn insert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<bool> {
        self.bucket(key).insert(tx, key, value)
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn upsert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<Option<V>> {
        self.bucket(key).upsert(tx, key, value)
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        self.bucket(key).get(tx, key)
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        self.bucket(key).remove(tx, key)
    }

    /// Total entries across all buckets. Touches every bucket's length —
    /// use outside hot paths only.
    pub fn len(&self, tx: &mut Txn) -> TxResult<u64> {
        let mut n = 0;
        for b in self.buckets.iter() {
            n += b.len(tx)?;
        }
        Ok(n)
    }

    /// Collect all `(key, value)` pairs (bucket-major order, sorted within
    /// a bucket).
    pub fn snapshot(&self, tx: &mut Txn) -> TxResult<Vec<(u64, V)>> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            out.extend(b.snapshot(tx)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_core::{ThreadId, TxnId};
    use gstm_tl2::{Stm, StmConfig};
    use std::sync::Arc;

    fn with_tx<R>(f: impl FnMut(&mut Txn) -> TxResult<R>) -> R {
        let stm = Stm::new(StmConfig::default());
        let mut ctx = stm.register();
        ctx.atomically(TxnId(0), f)
    }

    #[test]
    fn basic_ops() {
        let map = THashMap::new(16);
        with_tx(|tx| {
            assert!(map.insert(tx, 1, "a")?);
            assert!(map.insert(tx, 17, "b")?); // may share bucket with 1
            assert!(!map.insert(tx, 1, "dup")?);
            assert_eq!(map.get(tx, 1)?, Some("a"));
            assert_eq!(map.get(tx, 17)?, Some("b"));
            assert_eq!(map.remove(tx, 1)?, Some("a"));
            assert_eq!(map.get(tx, 1)?, None);
            assert_eq!(map.len(tx)?, 1);
            Ok(())
        });
    }

    #[test]
    fn single_bucket_degenerate_table_still_works() {
        let map = THashMap::new(1);
        with_tx(|tx| {
            for k in 0..50u64 {
                assert!(map.insert(tx, k, k)?);
            }
            for k in 0..50u64 {
                assert_eq!(map.get(tx, k)?, Some(k));
            }
            assert_eq!(map.len(tx)?, 50);
            Ok(())
        });
    }

    #[test]
    fn matches_hashmap_model() {
        use std::collections::HashMap;
        let map = THashMap::new(8);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let stm = Stm::new(StmConfig::default());
        let mut ctx = stm.register();
        let mut x: u64 = 31337;
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = x % 100;
            match x % 3 {
                0 => {
                    let ins = ctx.atomically(TxnId(0), |tx| map.insert(tx, k, x));
                    assert_eq!(ins, !model.contains_key(&k));
                    model.entry(k).or_insert(x);
                }
                1 => {
                    let rem = ctx.atomically(TxnId(0), |tx| map.remove(tx, k));
                    assert_eq!(rem, model.remove(&k));
                }
                _ => {
                    let got = ctx.atomically(TxnId(0), |tx| map.get(tx, k));
                    assert_eq!(got, model.get(&k).copied());
                }
            }
        }
    }

    #[test]
    fn concurrent_inserts_to_disjoint_keys() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let map: THashMap<u64> = THashMap::new(32);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let map = map.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for i in 0..100u64 {
                        let k = t as u64 * 10_000 + i;
                        assert!(ctx.atomically(TxnId(0), |tx| map.insert(tx, k, k)));
                    }
                });
            }
        });
        let stm2 = Stm::new(StmConfig::default());
        let mut ctx = stm2.register();
        assert_eq!(ctx.atomically(TxnId(0), |tx| map.len(tx)), 400);
    }
}
