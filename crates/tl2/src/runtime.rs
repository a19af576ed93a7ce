//! The STM runtime: instance configuration, thread registration, and the
//! `atomically` entry point into the shared retry driver
//! ([`gstm_core::Instruments::run`]).

use crate::clock;
use crate::txn::{TxBuffers, Txn};
use gstm_core::contention::ContentionTracker;
use gstm_core::faultinject::FaultPlan;
use gstm_core::rng::Interleave;
use gstm_core::telemetry::Telemetry;
use gstm_core::ThreadStats;
use gstm_core::{GuidanceHook, Instruments, NoopHook, Pair, ThreadId, TxResult, TxnId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// When conflicts between writers are detected (Section II of the paper:
/// "STMs provide options of eager and lazy conflict detection").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Detection {
    /// TL2's native mode: writes are buffered and locks are taken at
    /// commit; writer/writer conflicts surface at commit time.
    Lazy,
    /// Encounter-time write locking: a write acquires the location's
    /// lock immediately, so writer/writer conflicts abort at the write
    /// instead of at commit. Reads remain invisible and version-validated
    /// either way.
    Eager,
}

/// Tunables of one STM instance.
#[derive(Clone, Copy, Debug)]
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

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            detection: Detection::Lazy,
            yield_prob_log2: None,
        }
    }
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

/// Configures and builds an [`Stm`] instance — the one construction
/// path; the named constructors ([`Stm::new`], [`Stm::with_robustness`])
/// are thin wrappers over it. First concrete step toward the planned
/// `StmBackend` trait: backends will take a builder, not a constructor
/// ladder.
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
pub struct StmBuilder {
    hook: Arc<dyn GuidanceHook>,
    config: StmConfig,
    telemetry: Option<Arc<Telemetry>>,
    faults: Option<Arc<FaultPlan>>,
    contention: Option<Arc<ContentionTracker>>,
}

impl StmBuilder {
    /// A builder for a plain instance (no recording, no gating).
    pub fn new(config: StmConfig) -> Self {
        StmBuilder {
            hook: Arc::new(NoopHook),
            config,
            telemetry: None,
            faults: None,
            contention: None,
        }
    }

    /// Report to the given guidance hook — a [`gstm_core::RecorderHook`]
    /// for profiling or a [`gstm_core::GuidedHook`] for model-driven
    /// execution.
    pub fn hook(mut self, hook: Arc<dyn GuidanceHook>) -> Self {
        self.hook = hook;
        self
    }

    /// Additionally record commits, aborts, and latencies into
    /// `telemetry`.
    pub fn telemetry(mut self, telemetry: Option<Arc<Telemetry>>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Arm a deterministic fault plan: each attempt probes the
    /// `tl2-abort` site (forced abort through the ordinary rollback
    /// path, surfaced as [`gstm_core::AbortCause::Explicit`]) and the
    /// `tl2-commit-delay` site (a bounded spin while the write set is
    /// buffered, emulating a descheduled committer).
    pub fn faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a conflict-provenance tracker: every abort is recorded
    /// with its cause, owner, and conflicting address. `None` (the
    /// default) keeps the abort path at one predictable branch.
    pub fn contention(mut self, tracker: Option<Arc<ContentionTracker>>) -> Self {
        self.contention = tracker;
        self
    }

    /// Build the instance.
    pub fn build(self) -> Arc<Stm> {
        Arc::new(Stm {
            instruments: Instruments::new(self.hook, self.telemetry, self.faults, self.contention),
            config: self.config,
            next_thread: AtomicU16::new(0),
        })
    }
}

/// One STM instance: configuration plus its [`Instruments`]. Every
/// instance commits through the process-wide `clock::global` clock, so
/// a [`crate::TVar`] may be used under any instance — instances differ
/// only in configuration and instrumentation.
pub struct Stm {
    /// Hook, telemetry, fault plan, contention tracker and the outcome
    /// totals — everything the retry driver reports to.
    instruments: Instruments,
    pub(crate) config: StmConfig,
    next_thread: AtomicU16,
}

impl Stm {
    /// A plain STM instance (no recording, no gating).
    pub fn new(config: StmConfig) -> Arc<Self> {
        StmBuilder::new(config).build()
    }

    /// An instance reporting to the given guidance hook — a
    /// [`gstm_core::RecorderHook`] for profiling or a
    /// [`gstm_core::GuidedHook`] for model-driven execution — that
    /// optionally records into `telemetry` and runs a deterministic fault
    /// plan (see [`StmBuilder::faults`]).
    pub fn with_robustness(
        hook: Arc<dyn GuidanceHook>,
        config: StmConfig,
        telemetry: Option<Arc<Telemetry>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        StmBuilder::new(config)
            .hook(hook)
            .telemetry(telemetry)
            .faults(faults)
            .build()
    }

    /// Register the calling thread, assigning the next sequential
    /// [`ThreadId`] (0, 1, 2, ...).
    pub fn register(self: &Arc<Self>) -> ThreadCtx {
        let id = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        self.register_as(id)
    }

    /// Register the calling thread under an explicit id. Workloads use
    /// this to keep thread ids stable across runs — the model's states
    /// name specific thread ids, so profiled and guided runs must agree on
    /// the numbering.
    pub fn register_as(self: &Arc<Self>, id: ThreadId) -> ThreadCtx {
        ThreadCtx {
            stm: Arc::clone(self),
            thread: id,
            stats: ThreadStats::new(),
            inject: Interleave::for_thread(self.config.yield_prob_log2, id),
            bufs: Cell::default(),
        }
    }

    /// Current value of the commit clock. No stamp a new transaction
    /// can observe exceeds this value.
    fn clock_now(&self) -> u64 {
        clock::global().now()
    }
}

/// A worker thread's handle onto an [`Stm`]: identity, statistics, and the
/// `atomically` entry point. Not `Sync` — each thread owns its context.
pub struct ThreadCtx {
    stm: Arc<Stm>,
    thread: ThreadId,
    stats: ThreadStats,
    inject: Interleave,
    /// Read/write-set buffers every attempt of this thread reuses.
    bufs: Cell<TxBuffers>,
}

impl ThreadCtx {
    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ThreadStats {
        &self.stats
    }

    /// Take the statistics, resetting the context's counters.
    pub fn take_stats(&mut self) -> ThreadStats {
        std::mem::take(&mut self.stats)
    }

    /// Run `f` transactionally at static transaction site `txid`,
    /// retrying on conflicts until it commits. Returns `f`'s result from
    /// the committing attempt.
    ///
    /// Each attempt is bracketed by the guidance hook: `gate` before the
    /// attempt (blocks in guided mode while the transaction would steer
    /// execution to a low-probability state), `on_abort` after a rollback,
    /// `on_commit` after success. An attempt begins by sampling the
    /// commit clock into its read version.
    pub fn atomically<R>(&mut self, txid: TxnId, f: impl FnMut(&mut Txn) -> TxResult<R>) -> R {
        let me = Pair::new(txid, self.thread);
        let (stm, inject, bufs) = (&*self.stm, &self.inject, &self.bufs);
        stm.instruments.run(
            me,
            &mut self.stats,
            inject,
            || Txn::new(stm, me, stm.clock_now(), inject, bufs),
            f,
        )
    }

    /// Run `f` — a wait outside any transaction, such as a barrier —
    /// with this thread parked at the guidance hook, so that a gate
    /// waiting for it to commit is released at once.
    pub fn parked<R>(&self, f: impl FnOnce() -> R) -> R {
        self.stm.instruments.parked(self.thread, f)
    }

    /// Whether the thread's buffers are back home and empty — true
    /// between transactions.
    #[cfg(test)]
    pub(crate) fn buffers_idle(&self) -> bool {
        let bufs = self.bufs.take();
        let idle = bufs.is_empty();
        self.bufs.set(bufs);
        idle
    }
}

impl Drop for ThreadCtx {
    /// The thread runs no more transactions here: retire it at the hook.
    fn drop(&mut self) {
        self.stm.instruments.retire(self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use gstm_core::{GuidanceHook, GuidedHook, Pair};

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
        assert_eq!(stm.register().thread, ThreadId(0));
        assert_eq!(stm.register().thread, ThreadId(1));
        assert_eq!(stm.register_as(ThreadId(9)).thread, ThreadId(9));
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
        let stm = Stm::with_robustness(hook.clone(), StmConfig::default(), None, None);
        let mut ctx = stm.register_as(ThreadId(1));
        ctx.atomically(TxnId(0), |_| Ok(()));
        drop(ctx);
        assert!(lone_waiter_returns(&hook), "thread 1 still counts as a waker");
        assert_eq!(hook.stats().released, 1);
    }
}
