//! Transactional ordered map (STAMP `rbtree.c` stand-in).
//!
//! An unbalanced binary search tree over `u64` keys. STAMP's workloads
//! draw keys (almost) uniformly at random, so the expected depth is
//! O(log n) without rebalancing; skipping rotations keeps each
//! transaction's conflict footprint equal to its search path, which is the
//! access pattern the benchmarks are designed around.

use gstm_tl2::{TVar, TxResult, Txn};
use std::sync::Arc;

type Link<V> = Option<Arc<Node<V>>>;

struct Node<V> {
    key: u64,
    value: TVar<V>,
    left: TVar<Link<V>>,
    right: TVar<Link<V>>,
}

/// A transactional ordered map keyed by `u64`.
pub struct TMap<V> {
    root: TVar<Link<V>>,
    len: TVar<u64>,
}

impl<V: Clone + Send + Sync + 'static> Default for TMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Clone for TMap<V> {
    fn clone(&self) -> Self {
        TMap {
            root: self.root.clone(),
            len: self.len.clone(),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> TMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        TMap {
            root: TVar::new(None),
            len: TVar::new(0),
        }
    }

    /// Number of entries.
    pub fn len(&self, tx: &mut Txn) -> TxResult<u64> {
        tx.read(&self.len)
    }

    /// Walk to `key`: the link TVar that holds (or would hold) the node
    /// with that key, plus the node if present.
    fn locate(&self, tx: &mut Txn, key: u64) -> TxResult<(TVar<Link<V>>, Link<V>)> {
        let mut link = self.root.clone();
        loop {
            let cur = tx.read(&link)?;
            match cur {
                Some(ref node) if node.key != key => {
                    link = if key < node.key {
                        node.left.clone()
                    } else {
                        node.right.clone()
                    };
                }
                _ => return Ok((link, cur)),
            }
        }
    }

    /// Insert `key -> value`; returns `false` if the key already exists
    /// (value unchanged).
    pub fn insert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<bool> {
        let (link, found) = self.locate(tx, key)?;
        if found.is_some() {
            return Ok(false);
        }
        let node = Arc::new(Node {
            key,
            value: TVar::new(value),
            left: TVar::new(None),
            right: TVar::new(None),
        });
        tx.write(&link, Some(node))?;
        tx.modify(&self.len, |n| n + 1)?;
        Ok(true)
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn upsert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<Option<V>> {
        let (link, found) = self.locate(tx, key)?;
        if let Some(ref node) = found {
            let old = tx.read(&node.value)?;
            tx.write(&node.value, value)?;
            return Ok(Some(old));
        }
        let node = Arc::new(Node {
            key,
            value: TVar::new(value),
            left: TVar::new(None),
            right: TVar::new(None),
        });
        tx.write(&link, Some(node))?;
        tx.modify(&self.len, |n| n + 1)?;
        Ok(None)
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        let (_, found) = self.locate(tx, key)?;
        match found {
            Some(ref node) => Ok(Some(tx.read(&node.value)?)),
            None => Ok(None),
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, tx: &mut Txn, key: u64) -> TxResult<bool> {
        let (_, found) = self.locate(tx, key)?;
        Ok(found.is_some())
    }

    /// Apply `f` to the value stored at `key`, if present. Returns whether
    /// the key existed.
    pub fn update(&self, tx: &mut Txn, key: u64, f: impl FnOnce(V) -> V) -> TxResult<bool> {
        let (_, found) = self.locate(tx, key)?;
        match found {
            Some(ref node) => {
                let v = tx.read(&node.value)?;
                tx.write(&node.value, f(v))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        let (link, found) = self.locate(tx, key)?;
        let node = match found {
            Some(node) => node,
            None => return Ok(None),
        };
        let value = tx.read(&node.value)?;
        let left = tx.read(&node.left)?;
        let right = tx.read(&node.right)?;
        match (left, right) {
            (None, sub) | (sub, None) => {
                // Zero or one child: splice the subtree into the parent link.
                tx.write(&link, sub)?;
            }
            (Some(left), Some(right)) => {
                // Two children: extract the in-order successor (minimum of
                // the right subtree), then rebuild this position with the
                // successor's key/value over the original children.
                let mut succ_link = node.right.clone();
                let mut succ = Arc::clone(&right);
                while let Some(next) = tx.read(&succ.left)? {
                    succ_link = succ.left.clone();
                    succ = next;
                }
                // Unlink the successor (it has no left child by choice).
                let succ_right = tx.read(&succ.right)?;
                tx.write(&succ_link, succ_right)?;
                // Children of the removed position after the unlink.
                let new_right = tx.read(&node.right)?;
                let succ_value = tx.read(&succ.value)?;
                let replacement = Arc::new(Node {
                    key: succ.key,
                    value: TVar::new(succ_value),
                    left: TVar::new(Some(left)),
                    right: TVar::new(new_right),
                });
                tx.write(&link, Some(replacement))?;
            }
        }
        tx.modify(&self.len, |n| n - 1)?;
        Ok(Some(value))
    }

    /// Collect all `(key, value)` pairs in key order.
    pub fn snapshot(&self, tx: &mut Txn) -> TxResult<Vec<(u64, V)>> {
        let mut out = Vec::new();
        // Iterative in-order traversal over transactional links.
        let mut stack: Vec<Arc<Node<V>>> = Vec::new();
        let mut cur = tx.read(&self.root)?;
        loop {
            while let Some(node) = cur {
                cur = tx.read(&node.left)?;
                stack.push(node);
            }
            match stack.pop() {
                Some(node) => {
                    out.push((node.key, tx.read(&node.value)?));
                    cur = tx.read(&node.right)?;
                }
                None => return Ok(out),
            }
        }
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
    fn insert_get_remove_roundtrip() {
        let map = TMap::new();
        with_tx(|tx| {
            for k in [50u64, 25, 75, 10, 30, 60, 90] {
                assert!(map.insert(tx, k, k as i64)?);
            }
            assert!(!map.insert(tx, 50, -1)?);
            assert_eq!(map.get(tx, 50)?, Some(50));
            assert_eq!(map.get(tx, 11)?, None);
            assert_eq!(map.len(tx)?, 7);
            Ok(())
        });
    }

    #[test]
    fn remove_leaf_one_child_two_children() {
        let map = TMap::new();
        let snap = with_tx(|tx| {
            for k in [50u64, 25, 75, 10, 30, 60, 90, 27, 35] {
                map.insert(tx, k, ())?;
            }
            assert!(map.remove(tx, 10)?.is_some()); // leaf
            assert!(map.remove(tx, 30)?.is_some()); // two children (27, 35)
            assert!(map.remove(tx, 25)?.is_some()); // after removals
            assert!(map.remove(tx, 50)?.is_some()); // root with two children
            assert!(map.remove(tx, 99)?.is_none()); // absent
            map.snapshot(tx)
        });
        let keys: Vec<u64> = snap.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![27, 35, 60, 75, 90]);
    }

    #[test]
    fn snapshot_sorted_under_random_ops() {
        let map = TMap::new();
        let snap = with_tx(|tx| {
            let mut x: u64 = 12345;
            for _ in 0..200 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = x >> 40;
                if x.is_multiple_of(3) {
                    map.remove(tx, k)?;
                } else {
                    map.upsert(tx, k, k)?;
                }
            }
            map.snapshot(tx)
        });
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn matches_btreemap_model() {
        use std::collections::BTreeMap;
        let map = TMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let stm = Stm::new(StmConfig::default());
        let mut ctx = stm.register();
        let mut x: u64 = 999;
        for step in 0..500 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let k = x % 64;
            match step % 4 {
                0 | 1 => {
                    let inserted = ctx.atomically(TxnId(0), |tx| map.insert(tx, k, step));
                    assert_eq!(inserted, !model.contains_key(&k), "insert {k}");
                    model.entry(k).or_insert(step);
                }
                2 => {
                    let removed = ctx.atomically(TxnId(0), |tx| map.remove(tx, k));
                    assert_eq!(removed, model.remove(&k), "remove {k}");
                }
                _ => {
                    let got = ctx.atomically(TxnId(0), |tx| map.get(tx, k));
                    assert_eq!(got, model.get(&k).copied(), "get {k}");
                }
            }
        }
        let snap = ctx.atomically(TxnId(0), |tx| map.snapshot(tx));
        assert_eq!(snap, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn update_mutates_in_place() {
        let map = TMap::new();
        with_tx(|tx| {
            map.insert(tx, 1, 10)?;
            assert!(map.update(tx, 1, |v| v + 5)?);
            assert!(!map.update(tx, 2, |v| v)?);
            assert_eq!(map.get(tx, 1)?, Some(15));
            Ok(())
        });
    }

    #[test]
    fn concurrent_mixed_ops_keep_len_consistent() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let map: TMap<u64> = TMap::new();
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let map = map.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let mut x = 7919u64.wrapping_mul(t as u64 + 1);
                    for _ in 0..150 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let k = x % 40;
                        if x & 1 == 0 {
                            ctx.atomically(TxnId(0), |tx| map.insert(tx, k, k));
                        } else {
                            ctx.atomically(TxnId(1), |tx| map.remove(tx, k));
                        }
                    }
                });
            }
        });
        let stm2 = Stm::new(StmConfig::default());
        let mut ctx = stm2.register();
        let (snap, len) = ctx.atomically(TxnId(0), |tx| {
            let s = map.snapshot(tx)?;
            let l = map.len(tx)?;
            Ok((s, l))
        });
        assert_eq!(snap.len() as u64, len, "len counter matches contents");
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "still sorted");
    }
}
