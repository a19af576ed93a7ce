//! The LibTM runtime: configuration, the doomed-flag table for
//! abort-readers resolution, and the `atomically` entry point into the
//! shared retry driver ([`gstm_core::Instruments::run`]).

use crate::txn::{LtBuffers, LtTxn};
use gstm_core::faultinject::FaultPlan;
use gstm_core::rng::Interleave;
use gstm_core::sync::{PerThread, SLOTS};
use gstm_core::telemetry::Telemetry;
use gstm_core::ThreadStats;
use gstm_core::{GuidanceHook, Instruments, Pair, ThreadId, TxResult, TxnId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tunables of one LibTM instance. Detection is fully optimistic (reads
/// version-validated, writer locks taken at commit) and resolution is
/// abort-readers (a committing writer dooms the object's visible
/// readers), the one configuration the paper's SynQuake runs use.
#[derive(Clone, Copy, Debug, Default)]
pub struct LibTmConfig {
    /// Interleave injection, as in gstm-tl2's `StmConfig::yield_prob_log2`.
    pub yield_prob_log2: Option<u32>,
}

/// One thread's doomed flag (abort-readers resolution).
#[derive(Default)]
struct Doom {
    /// 0 (clear) or the dooming writer's id + 1.
    writer: AtomicU32,
    /// The contended object key behind the doom, written (Relaxed)
    /// before the flag's Release store. Best-effort under concurrent
    /// dooms of one victim — the partition counters stay exact; only
    /// which address gets charged can race, like the flag itself.
    addr: AtomicUsize,
}

/// One thread id's commit and abort totals, for the instance-wide sums.
#[derive(Default)]
struct Outcomes {
    commits: AtomicU64,
    aborts: AtomicU64,
}

/// One LibTM instance.
pub struct LibTm {
    config: LibTmConfig,
    /// Hook, telemetry, fault plan and contention tracker — everything
    /// the retry driver reports to.
    instruments: Instruments,
    /// Doomed flags, one per registered thread id.
    doomed: PerThread<Doom>,
    /// Outcome totals, one per registered thread id.
    totals: PerThread<Outcomes>,
    next_thread: AtomicU16,
}

impl LibTm {
    /// The instance reporting to `instruments` — the one construction
    /// path; the named constructors below forward to it. Attach a
    /// [`gstm_core::contention::ContentionTracker`] through the bundle to
    /// record every abort's cause, owner and conflicting object key.
    pub fn with_instruments(config: LibTmConfig, instruments: Instruments) -> Arc<Self> {
        Arc::new(LibTm {
            config,
            instruments,
            doomed: PerThread::default(),
            totals: PerThread::default(),
            next_thread: AtomicU16::new(0),
        })
    }

    /// A plain instance (no recording, no gating).
    pub fn new(config: LibTmConfig) -> Arc<Self> {
        Self::with_instruments(config, Instruments::default())
    }

    /// An instance reporting to a guidance hook.
    pub fn with_hook(hook: Arc<dyn GuidanceHook>, config: LibTmConfig) -> Arc<Self> {
        Self::with_instruments(config, Instruments::new(hook, None, None, None))
    }

    /// An instance reporting to a guidance hook and, optionally, a
    /// [`Telemetry`] collector (counters, latency histograms, tracing).
    pub fn with_telemetry(
        hook: Arc<dyn GuidanceHook>,
        config: LibTmConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Arc<Self> {
        Self::with_instruments(config, Instruments::new(hook, telemetry, None, None))
    }

    /// [`LibTm::with_telemetry`] plus a deterministic fault plan: each
    /// attempt probes the `libtm-abort` site (forced abort through the
    /// ordinary rollback path, surfaced as
    /// [`gstm_core::AbortCause::Explicit`]) and the `libtm-commit-delay`
    /// site (a bounded spin before commit).
    pub fn with_robustness(
        hook: Arc<dyn GuidanceHook>,
        config: LibTmConfig,
        telemetry: Option<Arc<Telemetry>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        Self::with_instruments(config, Instruments::new(hook, telemetry, faults, None))
    }

    /// Register the calling thread with the next sequential id.
    pub fn register(self: &Arc<Self>) -> LtThreadCtx {
        let id = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        self.register_as(id)
    }

    /// Register under an explicit id (stable ids across runs, as the
    /// model requires). Ids must be below [`SLOTS`], so every thread
    /// owns its doomed flag.
    pub fn register_as(self: &Arc<Self>, id: ThreadId) -> LtThreadCtx {
        assert!(
            id.index() < SLOTS,
            "thread id {} exceeds SLOTS {}",
            id.0,
            SLOTS
        );
        LtThreadCtx {
            tm: Arc::clone(self),
            thread: id,
            stats: ThreadStats::new(),
            inject: Interleave::for_thread(self.config.yield_prob_log2, id),
            bufs: Cell::default(),
        }
    }

    /// Total commits across all threads.
    pub fn total_commits(&self) -> u64 {
        self.totals
            .iter()
            .map(|t| t.commits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total aborts across all threads.
    pub fn total_aborts(&self) -> u64 {
        self.totals
            .iter()
            .map(|t| t.aborts.load(Ordering::Relaxed))
            .sum()
    }

    /// Mark `victim` as doomed by `writer` over the object keyed `addr`
    /// (abort-readers resolution). The address lands before the flag's
    /// Release store, so a victim that observes the flag also observes
    /// the address.
    pub(crate) fn doom(&self, victim: ThreadId, writer: ThreadId, addr: usize) {
        let doom = self.doomed.get(victim.index());
        doom.addr.store(addr, Ordering::Relaxed);
        doom.writer.store(writer.0 as u32 + 1, Ordering::Release);
    }

    /// Consume `me`'s doomed flag, returning the dooming writer and the
    /// contended object key if set. A clear flag costs one load: only a
    /// set one is swapped out, so the common check writes no line.
    pub(crate) fn take_doom(&self, me: ThreadId) -> Option<(ThreadId, usize)> {
        let doom = self.doomed.get(me.index());
        if doom.writer.load(Ordering::Acquire) == 0 {
            return None;
        }
        match doom.writer.swap(0, Ordering::AcqRel) {
            0 => None,
            w => Some((ThreadId((w - 1) as u16), doom.addr.load(Ordering::Relaxed))),
        }
    }
}

/// A worker thread's handle onto a [`LibTm`] instance.
pub struct LtThreadCtx {
    tm: Arc<LibTm>,
    thread: ThreadId,
    stats: ThreadStats,
    inject: Interleave,
    /// Read/write-set buffers every attempt of this thread reuses.
    bufs: Cell<LtBuffers>,
}

impl LtThreadCtx {
    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    /// Take the statistics, resetting the counters.
    pub fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.stats)
    }

    /// Run `f` transactionally at site `txid`, retrying until commit.
    /// An attempt begins by clearing any doom aimed at a previous one.
    pub fn atomically<R>(&mut self, txid: TxnId, f: impl FnMut(&mut LtTxn) -> TxResult<R>) -> R {
        let me = Pair::new(txid, self.thread);
        let (tm, inject, bufs) = (&*self.tm, &self.inject, &self.bufs);
        let aborts = self.stats.aborts;
        let r = tm.instruments.run(
            me,
            &mut self.stats,
            inject,
            || {
                let _ = tm.take_doom(me.thread);
                LtTxn::new(tm, me, inject, bufs)
            },
            f,
        );
        let totals = tm.totals.get(me.thread.index());
        totals.commits.fetch_add(1, Ordering::Relaxed);
        if self.stats.aborts != aborts {
            totals
                .aborts
                .fetch_add(self.stats.aborts - aborts, Ordering::Relaxed);
        }
        r
    }

    /// Run `f` — a wait outside any transaction, such as a barrier —
    /// with this thread parked at the guidance hook, so that a gate
    /// waiting for it to commit is released at once.
    pub fn parked<R>(&self, f: impl FnOnce() -> R) -> R {
        self.tm.instruments.parked(self.thread, f)
    }

    /// Whether the thread's buffers are back home and empty — true
    /// between transactions.
    #[cfg(test)]
    fn buffers_idle(&self) -> bool {
        let bufs = self.bufs.take();
        let idle = bufs.is_empty();
        self.bufs.set(bufs);
        idle
    }
}

impl Drop for LtThreadCtx {
    /// The thread runs no more transactions here: retire it at the hook.
    fn drop(&mut self) {
        self.tm.instruments.retire(self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::TObject;
    use gstm_core::AnyLocation;
    use gstm_core::{GuidanceHook, GuidedHook, Pair};

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
        use gstm_core::NoopHook;
        use std::sync::atomic::AtomicBool;
        // One thread sits in a long transaction reading `x`; a writer
        // commits to `x`; the reader's next operation must abort with
        // AbortedByWriter, and the tracker must charge that abort to the
        // writer and to `x`.
        let tracker = Arc::new(ContentionTracker::new());
        let tm = LibTm::with_instruments(
            LibTmConfig::default(),
            Instruments::new(Arc::new(NoopHook), None, None, Some(tracker.clone())),
        );
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
        assert_eq!(tm.register().thread, ThreadId(0));
        assert_eq!(tm.register().thread, ThreadId(1));
    }

    #[test]
    #[should_panic(expected = "exceeds SLOTS")]
    fn oversized_thread_id_is_rejected() {
        let tm = LibTm::new(LibTmConfig::default());
        let _ = tm.register_as(ThreadId(SLOTS as u16));
    }

    /// A fixed guided hook whose model lets only thread 0 go after
    /// thread 1 commits, with a budget no test could sit out.
    fn after_thread_one_only_zero_goes() -> Arc<GuidedHook> {
        use gstm_core::{GuidanceConfig, GuidedModel, StateKey, Tsa};
        let [zero, one] = [0, 1].map(|t| StateKey::solo(Pair::new(TxnId(0), ThreadId(t))));
        let run: Vec<_> = (0..8).flat_map(|_| [one.clone(), zero.clone()]).collect();
        let cfg = GuidanceConfig {
            k_retries: 1_000_000,
            wait_spins: 1_000_000,
            ..GuidanceConfig::default()
        };
        let model = GuidedModel::build(Tsa::from_runs(&[run]), &cfg);
        Arc::new(GuidedHook::new(Arc::new(model), cfg))
    }

    /// Thread 2, which the model never lets go, gates: it returns only if
    /// no other gater can wake it.
    fn lone_waiter_returns(hook: &Arc<GuidedHook>) -> bool {
        let hook = Arc::clone(hook);
        let waiter =
            std::thread::spawn(move || hook.gate(Pair::new(TxnId(0), ThreadId(2))));
        let t0 = std::time::Instant::now();
        while !waiter.is_finished() && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        waiter.is_finished()
    }

    #[test]
    fn dropping_a_context_retires_its_thread_at_the_hook() {
        let hook = after_thread_one_only_zero_goes();
        let tm = LibTm::with_hook(hook.clone(), LibTmConfig::default());
        let mut ctx = tm.register_as(ThreadId(1));
        ctx.atomically(TxnId(0), |_| Ok(()));
        drop(ctx);
        assert!(lone_waiter_returns(&hook), "thread 1 still counts as a waker");
        assert_eq!(hook.stats().released, 1);
    }
}
