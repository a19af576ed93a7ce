//! TL2's configuration and its names for gstm-core's generic runtime,
//! builder and thread context over the [`Tl2`] protocol.

use crate::txn::Tl2;
use gstm_core::{Builder, Context, Runtime};

/// When conflicts between writers are detected (Section II of the paper:
/// "STMs provide options of eager and lazy conflict detection").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Detection {
    /// TL2's native mode: writes are buffered and locks are taken at
    /// commit; writer/writer conflicts surface at commit time.
    #[default]
    Lazy,
    /// Encounter-time write locking: a write acquires the location's
    /// lock immediately, so writer/writer conflicts abort at the write
    /// instead of at commit. Reads remain invisible and version-validated
    /// either way.
    Eager,
}

/// Tunables of one STM instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct StmConfig {
    /// Conflict-detection mode for writes.
    pub detection: Detection,
    /// Interleave injection: when `Some(k)`, every transactional read or
    /// write yields the OS thread with probability `2^-k`, and every
    /// transaction begin with probability 1/2 (see
    /// [`gstm_core::rng::Interleave`]). `None` disables injection (the
    /// default).
    pub yield_prob_log2: Option<u32>,
}

impl StmConfig {
    /// A config with interleave injection at probability `2^-k`.
    pub fn with_yield_injection(k: u32) -> Self {
        StmConfig {
            yield_prob_log2: Some(k),
            ..Self::default()
        }
    }
}

/// One STM instance: the [`Tl2`] protocol plus its instruments.
pub type Stm = Runtime<Tl2>;

/// Configures and builds an [`Stm`] instance — the one construction
/// path; the named constructors ([`Stm::new`], [`Stm::with_robustness`],
/// ...) forward to it.
///
/// ```
/// use gstm_core::{Telemetry, TxnId};
/// use gstm_tl2::{StmBuilder, StmConfig, TVar};
/// use std::sync::Arc;
///
/// let tel = Arc::new(Telemetry::counters_only());
/// let stm = StmBuilder::new(StmConfig::default())
///     .telemetry(Some(tel.clone()))
///     .build();
/// let v = TVar::new(1u32);
/// stm.register().atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
/// assert_eq!(tel.snapshot().commits, 1);
/// ```
pub type StmBuilder = Builder<Tl2>;

/// A worker thread's handle onto an [`Stm`]; its attempts are [`crate::Txn`]s.
pub type ThreadCtx = Context<Tl2>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use gstm_core::{ThreadId, TxnId};
    use std::sync::Arc;

    #[test]
    fn single_thread_counter() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(0u64);
        let mut ctx = stm.register();
        for _ in 0..100 {
            ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
        }
        assert_eq!(v.load_quiesced(), 100);
        assert_eq!(ctx.stats().commits, 100);
    }

    #[test]
    fn registration_assigns_sequential_ids() {
        let stm = Stm::new(StmConfig::default());
        assert_eq!(stm.register().thread(), ThreadId(0));
        assert_eq!(stm.register().thread(), ThreadId(1));
        assert_eq!(stm.register_as(ThreadId(9)).thread(), ThreadId(9));
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        // Every thread increments one shared counter, and, in a second
        // transaction, one of four more counters picked by a target that
        // rotates per thread and iteration, so threads collide on mixed
        // pairs. The committed values must account for every increment
        // and the threads must count exactly one commit per transaction.
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let v = TVar::new(0u64);
        let counters: Vec<TVar<u64>> = (0..4).map(|_| TVar::new(0)).collect();
        let threads = 4;
        let per = 250;
        let commits: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let stm = Arc::clone(&stm);
                    let v = v.clone();
                    let counters = counters.clone();
                    s.spawn(move || {
                        let mut ctx = stm.register_as(ThreadId(t));
                        for i in 0..per {
                            ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
                            let k = (t as usize + i) % counters.len();
                            ctx.atomically(TxnId(1), |tx| tx.modify(&counters[k], |x| x + 1));
                        }
                        ctx.stats().commits
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let per = per as u64;
        assert_eq!(v.load_quiesced(), threads as u64 * per);
        let mixed: u64 = counters.iter().map(TVar::load_quiesced).sum();
        assert_eq!(mixed, threads as u64 * per, "mixed-target increments lost");
        assert_eq!(commits, 2 * threads as u64 * per);
    }

    #[test]
    fn transfers_preserve_total() {
        // The classic bank-transfer invariant: concurrent transfers between
        // accounts never create or destroy money.
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let accounts: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(1000)).collect();
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let stm = Arc::clone(&stm);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    let mut x = t as usize;
                    for i in 0..200 {
                        let from = (x + i) % accounts.len();
                        let to = (x + i * 7 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        x = x.wrapping_mul(31).wrapping_add(17);
                        let (a, b) = (accounts[from].clone(), accounts[to].clone());
                        ctx.atomically(TxnId(0), |tx| {
                            let av = tx.read(&a)?;
                            let bv = tx.read(&b)?;
                            tx.write(&a, av - 10)?;
                            tx.write(&b, bv + 10)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| a.load_quiesced()).sum();
        assert_eq!(total, 8000);
    }

    #[test]
    fn read_own_write_is_visible() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(1u32);
        let mut ctx = stm.register();
        let seen = ctx.atomically(TxnId(0), |tx| {
            tx.write(&v, 5)?;
            let x = tx.read(&v)?;
            tx.write(&v, x + 1)?;
            tx.read(&v)
        });
        assert_eq!(seen, 6);
        assert_eq!(v.load_quiesced(), 6);
    }

    #[test]
    fn aborted_attempts_roll_back_writes() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(0u32);
        let mut ctx = stm.register();
        let mut attempts = 0;
        ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            tx.write(&v, 99)?;
            if attempts == 1 {
                return Err(tx.retry());
            }
            tx.write(&v, 7)
        });
        assert_eq!(v.load_quiesced(), 7, "first attempt's write discarded");
        assert_eq!(ctx.stats().aborts, 1);
        assert_eq!(ctx.stats().explicit, 1);
    }

    #[test]
    fn snapshot_isolation_between_reads() {
        // A transaction reading two locations must never observe a torn
        // pair (x, y) with x + y != 0 while a writer keeps them balanced.
        let stm = Stm::new(StmConfig::with_yield_injection(1));
        let x = TVar::new(0i64);
        let y = TVar::new(0i64);
        std::thread::scope(|s| {
            let stm2 = Arc::clone(&stm);
            let (x2, y2) = (x.clone(), y.clone());
            s.spawn(move || {
                let mut ctx = stm2.register_as(ThreadId(0));
                for i in 1..=300i64 {
                    ctx.atomically(TxnId(0), |tx| {
                        tx.write(&x2, i)?;
                        tx.write(&y2, -i)?;
                        Ok(())
                    });
                }
            });
            let stm3 = Arc::clone(&stm);
            let (x3, y3) = (x.clone(), y.clone());
            s.spawn(move || {
                let mut ctx = stm3.register_as(ThreadId(1));
                for _ in 0..300 {
                    let (a, b) = ctx.atomically(TxnId(1), |tx| {
                        let a = tx.read(&x3)?;
                        let b = tx.read(&y3)?;
                        Ok((a, b))
                    });
                    assert_eq!(a + b, 0, "observed torn snapshot ({a}, {b})");
                }
            });
        });
    }
}
