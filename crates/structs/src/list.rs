//! Sorted transactional linked list (STAMP `list.c`).

use gstm_tl2::{TVar, TxResult, Txn};
use std::sync::Arc;

type Link<V> = Option<Arc<Node<V>>>;

struct Node<V> {
    key: u64,
    value: TVar<V>,
    next: TVar<Link<V>>,
}

/// A singly-linked list kept sorted by `u64` key, with set/map semantics:
/// at most one node per key.
pub struct TList<V> {
    head: TVar<Link<V>>,
    len: TVar<u64>,
}

impl<V: Clone + Send + Sync + 'static> Default for TList<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Clone for TList<V> {
    fn clone(&self) -> Self {
        TList {
            head: self.head.clone(),
            len: self.len.clone(),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> TList<V> {
    /// An empty list.
    pub fn new() -> Self {
        TList {
            head: TVar::new(None),
            len: TVar::new(0),
        }
    }

    /// Number of entries.
    pub fn len(&self, tx: &mut Txn) -> TxResult<u64> {
        tx.read(&self.len)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self, tx: &mut Txn) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Walk to the insertion point of `key`: returns the link TVar whose
    /// target is the first node with `node.key >= key` (or the tail link),
    /// plus that node if its key equals `key`.
    fn locate(
        &self,
        tx: &mut Txn,
        key: u64,
    ) -> TxResult<(TVar<Link<V>>, Link<V>)> {
        let mut link = self.head.clone();
        loop {
            let cur = tx.read(&link)?;
            match cur {
                Some(ref node) if node.key < key => {
                    let next = node.next.clone();
                    link = next;
                }
                _ => return Ok((link, cur)),
            }
        }
    }

    /// Insert `key -> value`; returns `false` (leaving the list unchanged)
    /// if the key is already present.
    pub fn insert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<bool> {
        let (link, found) = self.locate(tx, key)?;
        if let Some(ref node) = found {
            if node.key == key {
                return Ok(false);
            }
        }
        let node = Arc::new(Node {
            key,
            value: TVar::new(value),
            next: TVar::new(found),
        });
        tx.write(&link, Some(node))?;
        tx.modify(&self.len, |n| n + 1)?;
        Ok(true)
    }

    /// Insert `key -> value`, overwriting any existing value. Returns the
    /// previous value if the key was present.
    pub fn upsert(&self, tx: &mut Txn, key: u64, value: V) -> TxResult<Option<V>> {
        let (link, found) = self.locate(tx, key)?;
        if let Some(ref node) = found {
            if node.key == key {
                let old = tx.read(&node.value)?;
                tx.write(&node.value, value)?;
                return Ok(Some(old));
            }
        }
        let node = Arc::new(Node {
            key,
            value: TVar::new(value),
            next: TVar::new(found),
        });
        tx.write(&link, Some(node))?;
        tx.modify(&self.len, |n| n + 1)?;
        Ok(None)
    }

    /// Look up the value stored under `key`.
    pub fn get(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        let (_, found) = self.locate(tx, key)?;
        match found {
            Some(ref node) if node.key == key => Ok(Some(tx.read(&node.value)?)),
            _ => Ok(None),
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, tx: &mut Txn, key: u64) -> TxResult<bool> {
        Ok(self.get(tx, key)?.is_some())
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&self, tx: &mut Txn, key: u64) -> TxResult<Option<V>> {
        let (link, found) = self.locate(tx, key)?;
        match found {
            Some(ref node) if node.key == key => {
                let successor = tx.read(&node.next)?;
                tx.write(&link, successor)?;
                tx.modify(&self.len, |n| n - 1)?;
                Ok(Some(tx.read(&node.value)?))
            }
            _ => Ok(None),
        }
    }

    /// Collect all `(key, value)` pairs in key order.
    pub fn snapshot(&self, tx: &mut Txn) -> TxResult<Vec<(u64, V)>> {
        let mut out = Vec::new();
        let mut cur = tx.read(&self.head)?;
        while let Some(node) = cur {
            out.push((node.key, tx.read(&node.value)?));
            cur = tx.read(&node.next)?;
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
    fn insert_get_remove() {
        let list = TList::new();
        let out = with_tx(|tx| {
            assert!(list.insert(tx, 5, "five")?);
            assert!(list.insert(tx, 1, "one")?);
            assert!(list.insert(tx, 9, "nine")?);
            assert!(!list.insert(tx, 5, "dup")?);
            assert_eq!(list.get(tx, 5)?, Some("five"));
            assert_eq!(list.get(tx, 7)?, None);
            assert_eq!(list.remove(tx, 1)?, Some("one"));
            assert_eq!(list.remove(tx, 1)?, None);
            assert_eq!(list.len(tx)?, 2);
            list.snapshot(tx)
        });
        assert_eq!(out, vec![(5, "five"), (9, "nine")]);
    }

    #[test]
    fn snapshot_is_sorted_after_random_inserts() {
        let list = TList::new();
        let keys = [42u64, 7, 99, 3, 55, 21, 80, 13];
        let snap = with_tx(|tx| {
            for &k in &keys {
                list.insert(tx, k, k * 2)?;
            }
            list.snapshot(tx)
        });
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(snap.iter().map(|&(k, _)| k).collect::<Vec<_>>(), sorted);
        assert!(snap.iter().all(|&(k, v)| v == k * 2));
    }

    #[test]
    fn upsert_overwrites() {
        let list = TList::new();
        with_tx(|tx| {
            assert_eq!(list.upsert(tx, 4, 10)?, None);
            assert_eq!(list.upsert(tx, 4, 20)?, Some(10));
            assert_eq!(list.get(tx, 4)?, Some(20));
            assert_eq!(list.len(tx)?, 1);
            Ok(())
        });
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let list = TList::new();
        let threads = 4u16;
        let per = 50u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let list = list.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for i in 0..per {
                        let key = t as u64 * 1000 + i;
                        ctx.atomically(TxnId(0), |tx| list.insert(tx, key, key));
                    }
                });
            }
        });
        let stm2 = Stm::new(StmConfig::default());
        let mut ctx = stm2.register();
        let snap = ctx.atomically(TxnId(0), |tx| list.snapshot(tx));
        assert_eq!(snap.len(), threads as usize * per as usize);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_same_key_insert_single_winner() {
        let stm = Stm::new(StmConfig::with_yield_injection(1));
        let list: TList<u16> = TList::new();
        let winners = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let list = list.clone();
                let winners = &winners;
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let won = ctx.atomically(TxnId(0), |tx| list.insert(tx, 7, t));
                    if won {
                        winners.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(winners.load(std::sync::atomic::Ordering::SeqCst), 1);
    }
}
