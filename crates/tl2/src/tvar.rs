//! Transactional variables.
//!
//! A [`TVar<T>`] is an object-granularity transactional location: a
//! versioned lock word plus the current committed value. The value sits
//! behind a reader-writer lock held only for the clone or the swap, the
//! same scheme LibTM's objects use, so a reader that loses TL2's version
//! race still clones an intact (if stale) value and then aborts: no torn
//! reads and no raw pointers.
//!
//! Every location embeds its own lock (TL2's per-object "PO" mode). The
//! striped "PS" mode, where locations hash into a shared lock table, was
//! removed: no workload used it, and it made unrelated locations share
//! lock words and every commit dedupe its locks by address.

use crate::vlock::VLock;
use gstm_core::sync::RwLock;
use std::sync::Arc;

/// The lock-word view of a transactional location, type-erased so read and
/// write sets can hold heterogeneous targets.
pub(crate) trait TxTarget: Send + Sync {
    /// The location's versioned lock.
    fn vlock(&self) -> &VLock;
    /// A stable identity for the location (its allocation address), used
    /// for write-set ordering and read-own-write lookups.
    fn key(&self) -> usize;
}

pub(crate) struct TVarInner<T> {
    pub(crate) lock: VLock,
    value: RwLock<T>,
}

impl<T: Send + Sync> TxTarget for TVarInner<T> {
    fn vlock(&self) -> &VLock {
        &self.lock
    }

    fn key(&self) -> usize {
        self as *const Self as *const () as usize
    }
}

impl<T: Clone> TVarInner<T> {
    /// Clone the current value. Callers must sandwich this between lock
    /// samples (TL2's read protocol) to learn whether the value was
    /// current.
    pub(crate) fn read_snapshot(&self) -> T {
        self.value.read().clone()
    }
}

impl<T> TVarInner<T> {
    /// Install a new value (commit path — the caller holds the versioned
    /// lock). The old value is dropped after the write guard is released,
    /// so its destructor never blocks a reader on the `RwLock`. It still
    /// runs inside the versioned-lock window: commit publishes every
    /// write before unlocking any, so readers of this `TVar` abort or
    /// retry for as long as the destructor takes.
    pub(crate) fn publish(&self, value: T) {
        let old = std::mem::replace(&mut *self.value.write(), value);
        drop(old);
    }
}

/// A transactional variable holding a value of type `T`.
///
/// Cloning a `TVar` clones the *handle* (both clones refer to the same
/// location), which is how transactional data structures link nodes.
///
/// All access from concurrently running code must go through
/// [`crate::Txn::read`] / [`crate::Txn::write`]; [`TVar::load_quiesced`]
/// reads directly and is meant for setup and post-run verification.
pub struct TVar<T> {
    pub(crate) inner: Arc<TVarInner<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Create a location initialized to `value`, at version 0, with its
    /// own embedded lock.
    pub fn new(value: T) -> Self {
        TVar {
            inner: Arc::new(TVarInner {
                lock: VLock::new(0),
                value: RwLock::new(value),
            }),
        }
    }

    /// Read the committed value outside any transaction.
    ///
    /// Linearizes against commits (it retries around a concurrently held
    /// lock) but provides no multi-location consistency; use it for
    /// initialization and quiesced post-run checks.
    pub fn load_quiesced(&self) -> T {
        loop {
            let s1 = self.inner.lock.sample();
            if s1.is_locked() {
                std::thread::yield_now();
                continue;
            }
            let v = self.inner.read_snapshot();
            if self.inner.lock.sample() == s1 {
                return v;
            }
        }
    }

    /// The location's stable identity.
    pub(crate) fn key(&self) -> usize {
        self.inner.key()
    }
}

impl<T: Clone + Send + Sync + std::fmt::Debug + 'static> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar")
            .field("value", &self.load_quiesced())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_quiesced_read() {
        let v = TVar::new(41i32);
        assert_eq!(v.load_quiesced(), 41);
    }

    #[test]
    fn clone_aliases_the_location() {
        let a = TVar::new(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a.key(), b.key());
        let c = TVar::new(vec![1, 2, 3]);
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn publish_swaps_snapshots() {
        let v = TVar::new(1u64);
        v.inner.publish(2);
        assert_eq!(v.load_quiesced(), 2);
    }

    #[test]
    fn drop_reclaims_snapshot() {
        // Dropping a TVar holding an allocation must not leak or
        // double-free; run under a counting payload.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        #[derive(Clone)]
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        {
            let _v = TVar::new(Counted::new());
            assert_eq!(LIVE.load(Ordering::SeqCst), 1);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_commits_never_expose_a_mixed_value() {
        // Writers commit vectors whose elements all hold one value while
        // readers read them transactionally: a committed read must see a
        // uniform vector, and every value clone must be freed by the end.
        use crate::runtime::{Stm, StmConfig};
        use gstm_core::{ThreadId, TxnId};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static LIVE: AtomicUsize = AtomicUsize::new(0);

        struct Snap(Vec<u64>);
        impl Snap {
            fn new(x: u64) -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Snap(vec![x; 64])
            }
        }
        impl Clone for Snap {
            fn clone(&self) -> Self {
                LIVE.fetch_add(1, Ordering::SeqCst);
                Snap(self.0.clone())
            }
        }
        impl Drop for Snap {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::SeqCst);
            }
        }

        {
            let stm = Stm::new(StmConfig::default());
            let v = TVar::new(Snap::new(0));
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4u16 {
                    let stm = Arc::clone(&stm);
                    let v = v.clone();
                    let start = &start;
                    s.spawn(move || {
                        let mut ctx = stm.register_as(ThreadId(t));
                        start.wait();
                        for i in 1..=500u64 {
                            if t < 2 {
                                let x = i * 2 + u64::from(t);
                                ctx.atomically(TxnId(0), |tx| tx.write(&v, Snap::new(x)));
                            } else {
                                let seen = ctx.atomically(TxnId(1), |tx| tx.read(&v));
                                let first = seen.0[0];
                                assert!(seen.0.iter().all(|&e| e == first), "mixed read");
                            }
                        }
                    });
                }
            });
            assert!(LIVE.load(Ordering::SeqCst) >= 1);
        }
        assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    }
}
