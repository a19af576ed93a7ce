//! LibTM's configuration and its names for gstm-core's generic runtime,
//! builder and thread context over the [`LibTmProtocol`].

use crate::txn::LibTmProtocol;
use gstm_core::{Builder, Context, Runtime};

/// Tunables of one LibTM instance. Detection is fully optimistic (reads
/// version-validated, writer locks taken at commit) and resolution is
/// abort-readers (a committing writer dooms the object's visible
/// readers), the one configuration the paper's SynQuake runs use.
#[derive(Clone, Copy, Debug, Default)]
pub struct LibTmConfig {
    /// Interleave injection, as in gstm-tl2's `StmConfig::yield_prob_log2`.
    pub yield_prob_log2: Option<u32>,
}

/// One LibTM instance: the [`LibTmProtocol`] plus its instruments. Its
/// totals ([`LibTmProtocol::total_commits`]) are read through it.
pub type LibTm = Runtime<LibTmProtocol>;

/// Configures and builds a [`LibTm`] instance; the named constructors
/// ([`LibTm::new`], [`LibTm::with_hook`], ...) forward to it.
pub type LibTmBuilder = Builder<LibTmProtocol>;

/// A worker thread's handle onto a [`LibTm`] instance; its attempts are
/// [`crate::LtTxn`]s.
pub type LtThreadCtx = Context<LibTmProtocol>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TObject;
    use gstm_core::sync::SLOTS;
    use gstm_core::{AnyLocation, ThreadId, TxnId};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn counter_is_atomic() {
        let tm = LibTm::new(LibTmConfig {
            yield_prob_log2: Some(2),
        });
        let v = TObject::new(0u64);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let tm = Arc::clone(&tm);
                let v = v.clone();
                s.spawn(move || {
                    let mut ctx = tm.register_as(ThreadId(t));
                    for _ in 0..100 {
                        ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        assert_eq!(v.load_quiesced(), 400, "lost updates");
    }

    #[test]
    fn transfers_between_objects_preserve_total() {
        let tm = LibTm::new(LibTmConfig {
            yield_prob_log2: Some(2),
        });
        let accounts: Vec<TObject<i64>> = (0..6).map(|_| TObject::new(100)).collect();
        std::thread::scope(|s| {
            for t in 0..3u16 {
                let tm = Arc::clone(&tm);
                let accounts = accounts.clone();
                s.spawn(move || {
                    let mut ctx = tm.register_as(ThreadId(t));
                    for i in 0..100usize {
                        let from = (t as usize + i) % accounts.len();
                        let to = (t as usize + i * 5 + 1) % accounts.len();
                        if from == to {
                            continue;
                        }
                        let (a, b) = (accounts[from].clone(), accounts[to].clone());
                        ctx.atomically(TxnId(0), |tx| {
                            let av = tx.read(&a)?;
                            let bv = tx.read(&b)?;
                            tx.write(&a, av - 1)?;
                            tx.write(&b, bv + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| a.load_quiesced()).sum();
        assert_eq!(total, 600, "imbalance");
    }

    #[test]
    fn doomed_flag_round_trip() {
        let tm = LibTm::new(LibTmConfig::default());
        tm.doom(ThreadId(3), ThreadId(1), 0xbeef);
        assert_eq!(tm.take_doom(ThreadId(3)), Some((ThreadId(1), 0xbeef)));
        assert_eq!(tm.take_doom(ThreadId(3)), None, "take clears");
        assert_eq!(tm.take_doom(ThreadId(0)), None);
    }

    #[test]
    fn abort_readers_dooms_a_live_reader() {
        use gstm_core::contention::{ContentionTracker, PairConflict};
        use std::sync::atomic::AtomicBool;
        // One thread sits in a long transaction reading `x`; a writer
        // commits to `x`; the reader's next operation must abort with
        // AbortedByWriter, and the tracker must charge that abort to the
        // writer and to `x`.
        let tracker = Arc::new(ContentionTracker::new());
        let tm = LibTmBuilder::new(LibTmConfig::default())
            .contention(Some(tracker.clone()))
            .build();
        let x = TObject::new(0u32);
        let saw_doom = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let tm1 = Arc::clone(&tm);
            let x1 = x.clone();
            let b1 = Arc::clone(&barrier);
            let saw = Arc::clone(&saw_doom);
            s.spawn(move || {
                let mut ctx = tm1.register_as(ThreadId(0));
                let mut first = true;
                ctx.atomically(TxnId(0), |tx| {
                    let _ = tx.read(&x1)?;
                    if first {
                        first = false;
                        b1.wait(); // writer goes now
                        b1.wait(); // writer committed
                    }
                    // This op observes the doom on the first attempt.
                    match tx.read(&x1) {
                        Err(a) => {
                            if matches!(
                                a.cause,
                                gstm_core::AbortCause::AbortedByWriter { .. }
                            ) {
                                saw.store(true, Ordering::SeqCst);
                            }
                            Err(a)
                        }
                        Ok(_) => Ok(()),
                    }
                });
            });
            let tm2 = Arc::clone(&tm);
            let x2 = x.clone();
            s.spawn(move || {
                barrier.wait();
                let mut ctx = tm2.register_as(ThreadId(1));
                ctx.atomically(TxnId(1), |tx| tx.modify(&x2, |v| v + 1));
                barrier.wait();
            });
        });
        assert!(saw_doom.load(Ordering::SeqCst), "reader was doomed");
        assert_eq!(x.load_quiesced(), 1);
        let ctn = tracker.snapshot();
        assert_eq!((ctn.total(), ctn.attributed), (1, 1), "one abort");
        let pair = |p: &PairConflict| (p.victim, p.owner, p.count);
        assert_eq!(ctn.pairs.iter().map(pair).collect::<Vec<_>>(), [(0, 1, 1)]);
        let hot: Vec<_> = ctn.top.iter().map(|h| (h.addr, h.count)).collect();
        assert_eq!(hot, [(x.inner.key(), 1)]);
        assert_eq!((tm.total_aborts(), tm.total_commits()), (1, 2));
    }

    /// No writer lock and no reader registration left on `objs`.
    fn released(objs: &[&TObject<u32>]) -> bool {
        objs.iter().all(|o| {
            let (header, mut readers) = (o.inner.header(), 0);
            header.for_each_other_reader(ThreadId(63), |_| readers += 1);
            header.writer().is_none() && readers == 0
        })
    }

    #[test]
    fn aborted_attempt_leaves_no_stale_entries() {
        let tm = LibTm::new(LibTmConfig::default());
        let (x, y) = (TObject::new(1u32), TObject::new(10u32));
        let mut ctx = tm.register();
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
            // with 101 or publish y.
            let v = tx.read(&x)?;
            tx.write(&x, v + 1)?;
            Ok((v, tx.read(&x)?, tx.read(&y)?))
        });
        assert_eq!(seen, (1, 2, 10));
        assert_eq!((x.load_quiesced(), y.load_quiesced()), (2, 10));
        assert!(released(&[&x, &y]), "lock or registration left");
        assert!(ctx.buffers_idle(), "buffers not returned empty");
    }

    #[test]
    fn panicking_body_leaves_context_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let tm = LibTm::new(LibTmConfig::default());
        let v = TObject::new(5u32);
        let mut ctx = tm.register();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            ctx.atomically::<()>(TxnId(0), |tx| {
                let x = tx.read(&v)?; // registers a visible reader
                tx.write(&v, x + 1)?;
                panic!("body panics mid-transaction");
            })
        }));
        assert!(unwound.is_err());
        assert!(released(&[&v]), "lock or registration left");
        assert!(ctx.buffers_idle());
        ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x * 2));
        assert_eq!(v.load_quiesced(), 10, "panicked write leaked");
    }

    #[test]
    fn registration_ids_are_bounded() {
        let tm = LibTm::new(LibTmConfig::default());
        assert_eq!(tm.register().thread(), ThreadId(0));
        assert_eq!(tm.register().thread(), ThreadId(1));
    }

    #[test]
    #[should_panic(expected = "exceeds SLOTS")]
    fn oversized_thread_id_is_rejected() {
        let tm = LibTm::new(LibTmConfig::default());
        let _ = tm.register_as(ThreadId(SLOTS as u16));
    }
}
