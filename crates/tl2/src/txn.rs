//! The TL2 protocol: the begin step that samples the commit clock,
//! read/write sets, the TL2 read protocol, and the commit protocol
//! (commit-time locking, read-set validation, write-back).

use crate::runtime::{Detection, StmConfig};
use crate::tvar::TVar;
use crate::vlock::VLock;
use gstm_core::faultinject::FaultSite;
use gstm_core::rng::Interleave;
use gstm_core::{commit_lock, Abort, AbortCause, AddrSet, AnyLocation, Attempt, Pair, ThreadId};
use gstm_core::{Backend, TxResult, WriteSet};
use std::cell::Cell;
use std::sync::Arc;

/// A thread's transaction buffers. [`crate::ThreadCtx`] owns one bundle;
/// each attempt borrows it, and its `Drop` clears and returns it, so a
/// thread's attempts allocate no sets of their own once the buffers have
/// grown to its largest transaction.
#[derive(Default)]
pub struct TxBuffers {
    read_set: Vec<Arc<dyn AnyLocation<VLock>>>,
    /// Locations already in `read_set`, keyed by allocation address —
    /// consulted on every read, so it avoids a SipHash per probe.
    read_keys: AddrSet,
    write_set: WriteSet<VLock>,
    /// Write locks this attempt holds, as `(write-set index, pre-lock
    /// version)`: taken at commit in lazy mode, at the write in eager
    /// mode. The version restores the word on abort and validates the
    /// attempt's own reads at commit.
    locked: Vec<(usize, u64)>,
}

impl TxBuffers {
    fn clear(&mut self) {
        self.read_set.clear();
        self.read_keys.clear();
        self.write_set.clear();
        self.locked.clear();
    }
}

/// The TL2 commit protocol of one instance. Every instance commits
/// through the process-wide `clock::global` clock, so a [`TVar`] may be
/// used under any instance — instances differ only in configuration and
/// instrumentation.
pub struct Tl2 {
    config: StmConfig,
}

impl Backend for Tl2 {
    type Config = StmConfig;
    type Buffers = TxBuffers;
    /// Any `u16` id: TL2 keeps no per-thread table.
    const SLOTS: usize = 1 << 16;
    type Attempt<'a> = Txn<'a>;

    fn new(config: StmConfig) -> Self {
        Tl2 { config }
    }

    fn yield_prob_log2(&self) -> Option<u32> {
        self.config.yield_prob_log2
    }

    fn is_idle(b: &TxBuffers) -> bool {
        b.read_set.is_empty()
            && b.read_keys.is_empty()
            && b.write_set.is_empty()
            && b.locked.is_empty()
    }

    /// An attempt begins by sampling the commit clock into its read
    /// version: no stamp it can observe exceeds that value.
    #[inline]
    fn begin<'a>(
        &'a self,
        me: Pair,
        _retries: u32,
        inject: &'a Interleave,
        home: &'a Cell<TxBuffers>,
    ) -> Txn<'a> {
        Txn {
            tl2: self,
            me,
            rv: crate::clock::global().now(),
            bufs: home.take(),
            home,
            inject,
        }
    }
}

/// Take `vlock` for `me` within the commit spin budget, returning its
/// pre-lock version.
fn lock(vlock: &VLock, key: usize, me: ThreadId) -> TxResult<u64> {
    commit_lock(key, || vlock.try_lock(me).map_err(|seen| seen.owner()))
}

/// One in-flight transaction attempt.
///
/// Opened by [`Tl2`]'s begin step for [`crate::ThreadCtx::atomically`];
/// user code receives `&mut Txn` and performs reads and writes through
/// it. All conflict detection surfaces as an [`Abort`] error, which the
/// retry loop converts into a rollback and a fresh attempt.
pub struct Txn<'stm> {
    tl2: &'stm Tl2,
    me: Pair,
    rv: u64,
    /// The thread's buffers, taken from `home` for this attempt.
    bufs: TxBuffers,
    home: &'stm Cell<TxBuffers>,
    /// The owning thread's interleave injector.
    inject: &'stm Interleave,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        // Abort path (or a panicking body): restore every held lock to
        // its pre-acquisition version. A successful commit drains
        // `locked` before returning, so this releases nothing there.
        let b = &mut self.bufs;
        for (j, prev) in b.locked.drain(..) {
            b.write_set[j].unlock(prev);
        }
        self.bufs.clear();
        self.home.set(std::mem::take(&mut self.bufs));
    }
}

impl<'stm> Txn<'stm> {
    /// Explicitly abort and retry the transaction (e.g. a queue consumer
    /// finding the queue empty).
    pub fn retry(&self) -> Abort {
        Abort::EXPLICIT
    }

    /// Transactional read (TL2 read protocol).
    ///
    /// Returns the buffered value if this transaction already wrote the
    /// location; otherwise samples the versioned lock, clones the
    /// snapshot, and re-samples — aborting on a held lock or a version
    /// newer than `rv`.
    pub fn read<T: Clone + Send + Sync + 'static>(&mut self, tvar: &TVar<T>) -> TxResult<T> {
        self.inject.at_access();
        let location = &tvar.inner;
        if let Some(value) = self.bufs.write_set.get(location) {
            return Ok(value.clone());
        }
        let (vlock, key) = (location.header(), location.key());
        let s1 = vlock.sample();
        if s1.is_locked() {
            let cause = AbortCause::ReadLocked { owner: s1.owner() };
            return Err(Abort::at(cause, key));
        }
        if s1.version() > self.rv {
            return Err(Abort::at(AbortCause::ReadVersion, key));
        }
        let value = location.snapshot();
        if vlock.sample() != s1 {
            return Err(Abort::at(AbortCause::ReadVersion, key));
        }
        if self.bufs.read_keys.insert(key) {
            self.bufs.read_set.push(Arc::clone(location) as _);
        }
        Ok(value)
    }

    /// Transactional write: buffer `value` in the write set (write-back).
    /// In eager mode the location's lock is also acquired immediately, so
    /// writer/writer conflicts surface here instead of at commit.
    pub fn write<T: Clone + Send + Sync + 'static>(
        &mut self,
        tvar: &TVar<T>,
        value: T,
    ) -> TxResult<()> {
        self.inject.at_access();
        let location = &tvar.inner;
        if let Some(slot) = self.bufs.write_set.get_mut(location) {
            // In eager mode the first write already took the lock.
            *slot = value;
            return Ok(());
        }
        if self.tl2.config.detection == Detection::Eager {
            let prev = lock(location.header(), location.key(), self.me.thread)?;
            self.bufs.locked.push((self.bufs.write_set.len(), prev));
        }
        self.bufs.write_set.push(location, value);
        Ok(())
    }

    /// Read-modify-write convenience.
    pub fn modify<T: Clone + Send + Sync + 'static>(
        &mut self,
        tvar: &TVar<T>,
        f: impl FnOnce(T) -> T,
    ) -> TxResult<()> {
        let v = self.read(tvar)?;
        self.write(tvar, f(v))
    }
}

impl Attempt for Txn<'_> {
    const FAULT_SITES: (FaultSite, FaultSite) = (FaultSite::Tl2Abort, FaultSite::Tl2CommitDelay);

    fn write_set_size(&self) -> usize {
        self.bufs.write_set.len()
    }

    /// The TL2 commit protocol. Consumes the transaction.
    ///
    /// 1. Read-only transactions commit immediately: every read was
    ///    validated against `rv` at read time.
    /// 2. Lazy mode: lock the write set in address order (bounded
    ///    spinning per lock; on failure, release and abort with the
    ///    holder's identity). Eager mode took each lock at its write.
    /// 3. Advance the global clock to obtain `wv`.
    /// 4. Unless `wv == rv + 1` (no concurrent committer — TL2's fast
    ///    path), validate the read set: every location must be unlocked at
    ///    version ≤ `rv`, or locked by this very transaction with its
    ///    pre-lock version ≤ `rv`.
    /// 5. Publish buffered values and release the locks stamped with `wv`.
    fn commit(mut self) -> TxResult<()> {
        if self.bufs.write_set.is_empty() {
            return Ok(());
        }
        let me = self.me.thread;

        // Phase 2: acquire write locks (lazy mode only; eager writes
        // already hold theirs, indexed by write-set position, so the set
        // stays unsorted). A failed acquisition returns the abort, and
        // Drop releases the locks taken so far.
        let TxBuffers {
            read_set,
            write_set,
            locked,
            ..
        } = &mut self.bufs;
        if self.tl2.config.detection == Detection::Lazy {
            write_set.sort();
            for (i, (key, vlock)) in write_set.iter().enumerate() {
                locked.push((i, lock(vlock, key, me)?));
            }
        }

        // Phase 3: obtain the write version from the global clock.
        let wv = crate::clock::global().advance();

        // Phase 4: validate the read set, unless no other commit advanced
        // the clock since `rv`. A location this transaction itself locked
        // validates against its pre-lock version, found by lock identity.
        if wv != self.rv + 1 {
            for target in read_set.iter() {
                let vlock = target.header();
                let valid = if vlock.is_locked_by(me) {
                    locked
                        .iter()
                        .find(|&&(j, _)| std::ptr::eq(&write_set[j], vlock))
                        .is_some_and(|&(_, prev)| prev <= self.rv)
                } else {
                    let s = vlock.sample();
                    !s.is_locked() && s.version() <= self.rv
                };
                if !valid {
                    return Err(Abort::at(AbortCause::Validation, target.key()));
                }
            }
        }

        // Phase 5: write back, then release every lock stamped with wv.
        // Draining `locked` keeps Drop from restoring the old versions.
        write_set.publish_all();
        for (j, _) in locked.drain(..) {
            write_set[j].unlock(wv);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{Stm, StmConfig};
    use crate::tvar::TVar;
    use gstm_core::{AbortCause, AnyLocation, ThreadId, TxnId};
    use std::sync::Arc;

    #[test]
    fn blind_writes_commit_without_reads() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(1u32);
        let mut ctx = stm.register();
        ctx.atomically(TxnId(0), |tx| tx.write(&v, 42));
        assert_eq!(v.load_quiesced(), 42);
    }

    #[test]
    fn non_copy_values_round_trip() {
        let stm = Stm::new(StmConfig::default());
        let v: TVar<Vec<String>> = TVar::new(vec!["a".into()]);
        let mut ctx = stm.register();
        ctx.atomically(TxnId(0), |tx| {
            let mut val = tx.read(&v)?;
            val.push("b".into());
            tx.write(&v, val)
        });
        assert_eq!(v.load_quiesced(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn repeated_writes_keep_last_value_and_one_entry() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(0u8);
        let mut ctx = stm.register();
        let write_entries = ctx.atomically(TxnId(0), |tx| {
            tx.write(&v, 1)?;
            tx.write(&v, 2)?;
            tx.write(&v, 3)?;
            Ok(tx.bufs.write_set.len())
        });
        assert_eq!(write_entries, 1, "three writes, one write-set entry");
        assert_eq!(v.load_quiesced(), 3, "last value wins");
    }

    #[test]
    fn read_of_locked_location_aborts_with_owner() {
        // Lock a TVar's word directly (simulating a committing writer)
        // and observe the reader's abort cause.
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(5u32);
        v.inner.header().try_lock(ThreadId(9)).unwrap();
        let mut ctx = stm.register_as(ThreadId(0));
        let mut causes = Vec::new();
        let mut attempts = 0;
        ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            if attempts > 1 {
                // Unlock so the retry can succeed.
                return Ok(());
            }
            match tx.read(&v) {
                Err(a) => {
                    causes.push(a.cause);
                    v.inner.header().unlock(0);
                    Err(a)
                }
                Ok(_) => Ok(()),
            }
        });
        assert_eq!(
            causes,
            vec![AbortCause::ReadLocked {
                owner: Some(ThreadId(9))
            }]
        );
    }

    #[test]
    fn conflicting_commit_aborts_reader_with_version_cause() {
        // Thread A reads x, then B commits to x, then A reads y: A must
        // see a consistent snapshot, i.e. abort the first attempt.
        let stm = Stm::new(StmConfig::default());
        let x = TVar::new(0u32);
        let y = TVar::new(0u32);
        let stm2 = Arc::clone(&stm);
        let (x2, y2) = (x.clone(), y.clone());
        let mut ctx = stm.register_as(ThreadId(0));
        let mut attempt = 0;
        let mut causes = Vec::new();
        let (a, b) = ctx.atomically(TxnId(0), |tx| {
            attempt += 1;
            let a = tx.read(&x2)?;
            if attempt == 1 {
                // Interleave a conflicting committer.
                let mut other = stm2.register_as(ThreadId(1));
                other.atomically(TxnId(1), |tx2| {
                    tx2.write(&x2, 10)?;
                    tx2.write(&y2, 10)
                });
            }
            let b = tx.read(&y2).inspect_err(|a| causes.push(a.cause))?;
            Ok((a, b))
        });
        assert_eq!(attempt, 2, "first attempt aborted");
        assert_eq!((a, b), (10, 10), "second attempt sees the new snapshot");
        assert_eq!(causes, vec![AbortCause::ReadVersion]);
    }

    #[test]
    fn eager_mode_counter_is_atomic() {
        let config = StmConfig {
            detection: crate::Detection::Eager,
            yield_prob_log2: Some(2),
        };
        let stm = Stm::new(config);
        let v = TVar::new(0u64);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for _ in 0..150 {
                        ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        assert_eq!(v.load_quiesced(), 600);
    }

    #[test]
    fn eager_writer_conflict_aborts_at_write_not_commit() {
        let config = StmConfig {
            detection: crate::Detection::Eager,
            ..StmConfig::default()
        };
        let stm = Stm::new(config);
        let v = TVar::new(0u32);
        // Simulate a concurrent writer holding the lock.
        let prev = v.inner.header().try_lock(ThreadId(9)).unwrap();
        let mut ctx = stm.register_as(ThreadId(0));
        let mut first_attempt_cause = None;
        let mut attempts = 0;
        ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            if attempts > 1 {
                return Ok(()); // lock released below; succeed now
            }
            match tx.write(&v, 5) {
                Err(a) => {
                    first_attempt_cause = Some(a.cause);
                    v.inner.header().unlock(prev);
                    Err(a)
                }
                Ok(()) => Ok(()),
            }
        });
        assert!(matches!(
            first_attempt_cause,
            Some(AbortCause::CommitLockBusy {
                owner: Some(ThreadId(9))
            })
        ));
    }

    #[test]
    fn eager_abort_restores_lock_version() {
        let config = StmConfig {
            detection: crate::Detection::Eager,
            ..StmConfig::default()
        };
        let stm = Stm::new(config);
        let v = TVar::new(3u32);
        let before = v.inner.header().sample();
        let mut ctx = stm.register();
        let mut attempts = 0;
        ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            tx.write(&v, 9)?; // takes the encounter-time lock
            if attempts == 1 {
                return Err(tx.retry()); // rollback must restore the lock
            }
            Ok(())
        });
        assert_eq!(v.load_quiesced(), 9);
        // Version advanced exactly once (the successful commit), and the
        // aborted attempt left no residue in between.
        assert!(!before.is_locked());
        assert_eq!(attempts, 2);
    }

    #[test]
    fn eager_transfers_preserve_total() {
        let config = StmConfig {
            detection: crate::Detection::Eager,
            yield_prob_log2: Some(2),
        };
        let stm = Stm::new(config);
        let accounts: Vec<TVar<i64>> = (0..6).map(|_| TVar::new(100)).collect();
        std::thread::scope(|s| {
            for t in 0..3u16 {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for i in 0..120usize {
                        let from = (t as usize + i) % accounts.len();
                        let to = (t as usize + i * 5 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        let (a, b) = (accounts[from].clone(), accounts[to].clone());
                        ctx.atomically(TxnId(0), |tx| {
                            let av = tx.read(&a)?;
                            let bv = tx.read(&b)?;
                            tx.write(&a, av - 2)?;
                            tx.write(&b, bv + 2)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(TVar::load_quiesced).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn own_locked_read_validates_after_an_unrelated_commit() {
        // The transaction reads and writes x; an unrelated commit to y
        // during its attempt makes wv != rv + 1, so commit validates x
        // while holding x's lock itself, against x's pre-lock version.
        for detection in [crate::Detection::Lazy, crate::Detection::Eager] {
            let stm = Stm::new(StmConfig {
                detection,
                ..StmConfig::default()
            });
            let (x, y) = (TVar::new(1u32), TVar::new(0u32));
            let mut ctx = stm.register_as(ThreadId(0));
            let mut other = stm.register_as(ThreadId(1));
            let mut attempts = 0;
            ctx.atomically(TxnId(0), |tx| {
                attempts += 1;
                let v = tx.read(&x)?;
                tx.write(&x, v + 1)?;
                if attempts == 1 {
                    other.atomically(TxnId(1), |tx2| tx2.write(&y, 1));
                }
                Ok(())
            });
            assert_eq!(attempts, 1, "{detection:?}: own lock failed validation");
            assert_eq!((x.load_quiesced(), y.load_quiesced()), (2, 1));
        }
    }

    #[test]
    fn aborted_attempt_leaves_no_stale_entries() {
        for detection in [crate::Detection::Lazy, crate::Detection::Eager] {
            let stm = Stm::new(StmConfig {
                detection,
                ..StmConfig::default()
            });
            let x = TVar::new(1u32);
            let y = TVar::new(10u32);
            let mut ctx = stm.register();
            let mut attempts = 0;
            let seen = ctx.atomically(TxnId(0), |tx| {
                attempts += 1;
                if attempts == 1 {
                    let v = tx.read(&x)?;
                    tx.write(&x, v + 100)?;
                    tx.write(&y, 99)?;
                    return Err(tx.retry());
                }
                // A surviving write-set entry would answer this read
                // with 101; a surviving read entry or lock would fail
                // validation or publish y.
                let v = tx.read(&x)?;
                tx.write(&x, v + 1)?;
                Ok((v, tx.read(&x)?, tx.read(&y)?))
            });
            assert_eq!(seen, (1, 2, 10), "{detection:?}");
            assert_eq!((x.load_quiesced(), y.load_quiesced()), (2, 10));
            for lock in [x.inner.header(), y.inner.header()] {
                assert!(!lock.sample().is_locked(), "{detection:?}: lock left held");
            }
            assert!(
                ctx.buffers_idle(),
                "{detection:?}: buffers not returned empty"
            );
        }
    }

    #[test]
    fn panicking_body_leaves_context_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for detection in [crate::Detection::Lazy, crate::Detection::Eager] {
            let stm = Stm::new(StmConfig {
                detection,
                ..StmConfig::default()
            });
            let v = TVar::new(5u32);
            let mut ctx = stm.register();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                ctx.atomically::<()>(TxnId(0), |tx| {
                    let x = tx.read(&v)?;
                    tx.write(&v, x + 1)?; // eager: takes the lock
                    panic!("body panics mid-transaction");
                })
            }));
            assert!(unwound.is_err());
            assert!(!v.inner.header().sample().is_locked(), "{detection:?}");
            assert!(ctx.buffers_idle(), "{detection:?}");
            ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x * 2));
            assert_eq!(v.load_quiesced(), 10, "{detection:?}: panicked write leaked");
        }
    }

    #[test]
    fn write_then_read_other_var_keeps_isolation() {
        let stm = Stm::new(StmConfig::default());
        let x = TVar::new(1u32);
        let y = TVar::new(2u32);
        let mut ctx = stm.register();
        let sum = ctx.atomically(TxnId(0), |tx| {
            tx.write(&x, 100)?;
            let xv = tx.read(&x)?; // own write
            let yv = tx.read(&y)?; // committed value
            Ok(xv + yv)
        });
        assert_eq!(sum, 102);
    }
}
