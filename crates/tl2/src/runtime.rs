//! The STM runtime: instance configuration, thread registration, and the
//! `atomically` entry point into the shared retry driver
//! ([`gstm_core::Instruments::run`]).

use crate::clock::{self, ClockMode, ClockSnapshot, MAX_SHARDS, SHARD_BITS};
use crate::txn::Txn;
use gstm_core::contention::ContentionTracker;
use gstm_core::faultinject::FaultPlan;
use gstm_core::placement::{self, PlacementPlan};
use gstm_core::rng::Interleave;
use gstm_core::telemetry::{ClockStats, ShardClockStats, Telemetry};
use gstm_core::ThreadStats;
use gstm_core::{GuidanceHook, Instruments, NoopHook, Pair, ThreadId, TxResult, TxnId};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
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
    /// Bounded spin iterations per write-lock acquisition at commit.
    pub commit_spin: u32,
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
            commit_spin: 64,
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
/// path; the named constructors ([`Stm::new`], [`Stm::with_hook`], …)
/// are thin wrappers over it. First concrete step toward the planned
/// `StmBackend` trait: backends will take a builder, not a constructor
/// ladder.
///
/// ```
/// use gstm_tl2::{ClockMode, StmBuilder, StmConfig};
///
/// let stm = StmBuilder::new(StmConfig::default())
///     .clock(ClockMode::Sharded)
///     .build();
/// assert_eq!(stm.clock_mode(), ClockMode::Sharded);
/// ```
pub struct StmBuilder {
    hook: Arc<dyn GuidanceHook>,
    config: StmConfig,
    telemetry: Option<Arc<Telemetry>>,
    faults: Option<Arc<FaultPlan>>,
    clock_mode: ClockMode,
    placement: Option<Arc<PlacementPlan>>,
    contention: Option<Arc<ContentionTracker>>,
}

impl StmBuilder {
    /// A builder for a plain instance (no recording, no gating, global
    /// clock, no placement).
    pub fn new(config: StmConfig) -> Self {
        StmBuilder {
            hook: Arc::new(NoopHook),
            config,
            telemetry: None,
            faults: None,
            clock_mode: ClockMode::Global,
            placement: None,
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

    /// Select the commit clock (default [`ClockMode::Global`]).
    pub fn clock(mut self, mode: ClockMode) -> Self {
        self.clock_mode = mode;
        self
    }

    /// Install a thread-placement plan: [`Stm::register_as`] pins each
    /// worker per the plan and assigns its clock shard from it.
    pub fn placement(mut self, plan: Option<Arc<PlacementPlan>>) -> Self {
        self.placement = plan;
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
            clock_mode: self.clock_mode,
            placement: self.placement,
            shard_commits: (0..MAX_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            clock_baseline: clock::sharded().snapshot(),
            next_thread: AtomicU16::new(0),
        })
    }
}

/// One STM instance: configuration plus its [`Instruments`]. All instances
/// of one [`ClockMode`] commit through that mode's process-wide clock
/// ([`clock::global`] / [`clock::sharded`]), so a [`crate::TVar`] may be
/// used under any instance of the same mode — instances differ only in
/// configuration and instrumentation. Handing a `TVar` from a global-mode
/// instance to a sharded one is safe when the accesses are ordered (setup
/// then run: sharded stamps always exceed prior global stamps); the
/// reverse direction and concurrent cross-mode sharing are not supported.
pub struct Stm {
    /// Hook, telemetry, fault plan, contention tracker and the outcome
    /// totals — everything the retry driver reports to.
    instruments: Instruments,
    pub(crate) config: StmConfig,
    /// Which commit clock transactions of this instance use.
    pub(crate) clock_mode: ClockMode,
    /// Placement plan consulted at registration (core pinning + shard
    /// assignment); `None` = unpinned, shard = thread id mod shards.
    placement: Option<Arc<PlacementPlan>>,
    /// Per-shard successful-commit counters (sharded mode; all zero in
    /// global mode). Every commit increments exactly one slot, so the
    /// slots partition `total_commits` — the analyzer's exactness check.
    shard_commits: Box<[AtomicU64]>,
    /// Process-wide clock state at construction; [`Stm::clock_stats`]
    /// reports deltas against it so per-run stats are run-local even
    /// though the clocks outlive the instance.
    clock_baseline: ClockSnapshot,
    next_thread: AtomicU16,
}

impl Stm {
    /// A plain STM instance (no recording, no gating).
    pub fn new(config: StmConfig) -> Arc<Self> {
        StmBuilder::new(config).build()
    }

    /// An instance reporting to the given guidance hook — a
    /// [`gstm_core::RecorderHook`] for profiling or a
    /// [`gstm_core::GuidedHook`] for model-driven execution.
    pub fn with_hook(hook: Arc<dyn GuidanceHook>, config: StmConfig) -> Arc<Self> {
        StmBuilder::new(config).hook(hook).build()
    }

    /// An instance that additionally records into `telemetry` and runs
    /// a deterministic fault plan (see [`StmBuilder::faults`]).
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
    ///
    /// This is also where placement lands: if the instance carries a
    /// [`PlacementPlan`], the calling OS thread is pinned to its planned
    /// core (best-effort; unsupported platforms no-op) and its clock
    /// shard comes from the plan instead of the `id % MAX_SHARDS`
    /// default.
    pub fn register_as(self: &Arc<Self>, id: ThreadId) -> ThreadCtx {
        let mut shard = (id.index() % MAX_SHARDS) as u16;
        if let Some(plan) = &self.placement {
            if let Some(s) = plan.shard_of(id) {
                shard = s % MAX_SHARDS as u16;
            }
            if let Some(core) = plan.core_of(id) {
                placement::pin_current_thread(core as usize);
            }
        }
        if self.clock_mode == ClockMode::Sharded {
            clock::sharded().register_shard(shard);
        }
        ThreadCtx {
            stm: Arc::clone(self),
            thread: id,
            shard,
            stats: ThreadStats::new(),
            inject: Interleave::for_thread(self.config.yield_prob_log2, id),
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Total commits across all threads so far.
    pub fn total_commits(&self) -> u64 {
        self.instruments.total_commits()
    }

    /// Total aborts across all threads so far.
    pub fn total_aborts(&self) -> u64 {
        self.instruments.total_aborts()
    }

    /// The commit clock this instance uses.
    pub fn clock_mode(&self) -> ClockMode {
        self.clock_mode
    }

    /// Current value of this instance's commit clock — the global
    /// counter in global mode, the lazily aggregated bound in sharded
    /// mode. Either way, no stamp a new transaction can observe exceeds
    /// this value.
    pub fn clock_now(&self) -> u64 {
        match self.clock_mode {
            ClockMode::Global => clock::global().now(),
            ClockMode::Sharded => clock::sharded().bound(),
        }
    }

    /// Record a successful commit against its clock shard (sharded mode
    /// only; a no-op in global mode).
    #[inline]
    pub(crate) fn record_shard_commit(&self, shard: u16) {
        if self.clock_mode == ClockMode::Sharded {
            self.shard_commits[shard as usize % MAX_SHARDS].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-run commit-clock statistics: deltas of the process-wide
    /// clock(s) against this instance's construction-time baseline, plus
    /// the instance-local per-shard commit partition. Feed to
    /// [`Telemetry::set_clock_stats`] for export.
    pub fn clock_stats(&self) -> ClockStats {
        match self.clock_mode {
            ClockMode::Global => ClockStats {
                sharded: false,
                global_advances: clock::global()
                    .now()
                    .saturating_sub(self.clock_baseline.global),
                shards: Vec::new(),
            },
            ClockMode::Sharded => {
                let now = clock::sharded().snapshot();
                let base = &self.clock_baseline;
                let mut shards = Vec::new();
                for s in 0..now.active.max(base.active) {
                    let advances = now.advances[s].saturating_sub(base.advances[s]);
                    let commits = self.shard_commits[s].load(Ordering::Relaxed);
                    if advances == 0 && commits == 0 {
                        continue;
                    }
                    shards.push(ShardClockStats {
                        shard: s as u16,
                        advances,
                        epoch_start: base.stamps[s] >> SHARD_BITS,
                        epoch_end: now.stamps[s] >> SHARD_BITS,
                        commits,
                    });
                }
                ClockStats {
                    sharded: true,
                    global_advances: 0,
                    shards,
                }
            }
        }
    }
}

/// A worker thread's handle onto an [`Stm`]: identity, statistics, and the
/// `atomically` entry point. Not `Sync` — each thread owns its context.
pub struct ThreadCtx {
    stm: Arc<Stm>,
    thread: ThreadId,
    /// Clock shard this thread commits through (sharded mode).
    shard: u16,
    stats: ThreadStats,
    inject: Interleave,
}

impl ThreadCtx {
    /// This thread's id within the STM instance.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The clock shard this thread commits through in sharded mode.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The owning STM instance.
    pub fn stm(&self) -> &Arc<Stm> {
        &self.stm
    }

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
        let (stm, inject, shard) = (&*self.stm, &self.inject, self.shard);
        stm.instruments.run(
            me,
            &mut self.stats,
            inject,
            || Txn::new(stm, me, stm.clock_now(), inject, shard),
            f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;

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
        assert_eq!(stm.total_commits(), 100);
    }

    #[test]
    fn registration_assigns_sequential_ids() {
        let stm = Stm::new(StmConfig::default());
        assert_eq!(stm.register().thread_id(), ThreadId(0));
        assert_eq!(stm.register().thread_id(), ThreadId(1));
        assert_eq!(stm.register_as(ThreadId(9)).thread_id(), ThreadId(9));
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        let stm = Stm::new(StmConfig::with_yield_injection(2));
        let v = TVar::new(0u64);
        let threads = 4;
        let per = 250;
        std::thread::scope(|s| {
            for t in 0..threads {
                let stm = Arc::clone(&stm);
                let v = v.clone();
                s.spawn(move || {
                    let mut ctx = stm.register_as(ThreadId(t));
                    for _ in 0..per {
                        ctx.atomically(TxnId(0), |tx| tx.modify(&v, |x| x + 1));
                    }
                });
            }
        });
        assert_eq!(v.load_quiesced(), threads as u64 * per);
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
