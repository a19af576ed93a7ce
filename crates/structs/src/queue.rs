//! Transactional FIFO queue (STAMP `queue.c`).

use gstm_tl2::{TVar, TxResult, Txn};
use std::sync::Arc;

type Link<V> = Option<Arc<Node<V>>>;

struct Node<V> {
    value: V,
    next: TVar<Link<V>>,
}

/// A FIFO queue with transactional head/tail pointers.
///
/// Values are stored immutably in their nodes (STAMP queues move owned
/// payloads, they do not mutate them in place).
pub struct TQueue<V> {
    head: TVar<Link<V>>,
    tail: TVar<Link<V>>,
    len: TVar<u64>,
}

impl<V: Clone + Send + Sync + 'static> Default for TQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Clone for TQueue<V> {
    fn clone(&self) -> Self {
        TQueue {
            head: self.head.clone(),
            tail: self.tail.clone(),
            len: self.len.clone(),
        }
    }
}

impl<V: Clone + Send + Sync + 'static> TQueue<V> {
    /// An empty queue.
    pub fn new() -> Self {
        TQueue {
            head: TVar::new(None),
            tail: TVar::new(None),
            len: TVar::new(0),
        }
    }

    /// Number of queued values.
    pub fn len(&self, tx: &mut Txn) -> TxResult<u64> {
        tx.read(&self.len)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self, tx: &mut Txn) -> TxResult<bool> {
        Ok(self.len(tx)? == 0)
    }

    /// Append `value` at the tail.
    pub fn push(&self, tx: &mut Txn, value: V) -> TxResult<()> {
        let node = Arc::new(Node {
            value,
            next: TVar::new(None),
        });
        match tx.read(&self.tail)? {
            Some(tail) => {
                tx.write(&tail.next, Some(Arc::clone(&node)))?;
                tx.write(&self.tail, Some(node))?;
            }
            None => {
                tx.write(&self.head, Some(Arc::clone(&node)))?;
                tx.write(&self.tail, Some(node))?;
            }
        }
        tx.modify(&self.len, |n| n + 1)?;
        Ok(())
    }

    /// Remove and return the head value, or `None` if empty.
    pub fn pop(&self, tx: &mut Txn) -> TxResult<Option<V>> {
        match tx.read(&self.head)? {
            Some(head) => {
                let next = tx.read(&head.next)?;
                if next.is_none() {
                    tx.write(&self.tail, None)?;
                }
                tx.write(&self.head, next)?;
                tx.modify(&self.len, |n| n - 1)?;
                Ok(Some(head.value.clone()))
            }
            None => Ok(None),
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
    fn fifo_order() {
        let q = TQueue::new();
        let out = with_tx(|tx| {
            for i in 0..5 {
                q.push(tx, i)?;
            }
            let mut out = Vec::new();
            while let Some(v) = q.pop(tx)? {
                out.push(v);
            }
            Ok(out)
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_pop_returns_none_and_tail_resets() {
        let q = TQueue::new();
        with_tx(|tx| {
            assert_eq!(q.pop(tx)?, None::<u32>);
            q.push(tx, 1)?;
            assert_eq!(q.pop(tx)?, Some(1));
            assert_eq!(q.pop(tx)?, None);
            // Tail must have been cleared: pushing again works.
            q.push(tx, 2)?;
            assert_eq!(q.pop(tx)?, Some(2));
            assert!(q.is_empty(tx)?);
            Ok(())
        });
    }

    #[test]
    fn interleaved_push_pop_keeps_len() {
        let q = TQueue::new();
        with_tx(|tx| {
            q.push(tx, 'a')?;
            q.push(tx, 'b')?;
            assert_eq!(q.pop(tx)?, Some('a'));
            q.push(tx, 'c')?;
            assert_eq!(q.len(tx)?, 2);
            assert_eq!(q.pop(tx)?, Some('b'));
            assert_eq!(q.pop(tx)?, Some('c'));
            assert_eq!(q.pop(tx)?, None);
            Ok(())
        });
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let q: TQueue<u64> = TQueue::new();
        let produced: u64 = 4 * 100;
        let consumed = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let q = q.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for i in 0..100u64 {
                        ctx.atomically(TxnId(0), |tx| q.push(tx, t as u64 * 1000 + i));
                    }
                });
            }
            for t in 4..6u16 {
                let stm = Arc::clone(&stm);
                let q = q.clone();
                let consumed = &consumed;
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let mut misses = 0;
                    while misses < 1000 {
                        let got = ctx.atomically(TxnId(1), |tx| q.pop(tx));
                        match got {
                            Some(_) => {
                                consumed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                misses = 0;
                            }
                            None => {
                                misses += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });
        // Whatever the consumers missed must still be in the queue.
        let stm2 = Stm::new(StmConfig::default());
        let mut ctx = stm2.register();
        let remaining = ctx.atomically(TxnId(0), |tx| q.len(tx));
        assert_eq!(
            consumed.load(std::sync::atomic::Ordering::SeqCst) + remaining,
            produced
        );
    }
}
