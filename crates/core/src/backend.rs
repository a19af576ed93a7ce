//! One runtime for both STMs: the [`Backend`] trait a commit protocol
//! implements, and the [`Runtime`], [`Context`] and [`Builder`] written
//! once over it. Everything is monomorphized per backend, so a
//! transaction makes the same calls a hand-written runtime would.

use crate::contention::ContentionTracker;
use crate::events::TxResult;
use crate::faultinject::FaultPlan;
use crate::guidance::{GuidanceHook, NoopHook};
use crate::ids::{Pair, ThreadId, TxnId};
use crate::instruments::{Attempt, Instruments};
use crate::rng::Interleave;
use crate::stats::ThreadStats;
use crate::telemetry::Telemetry;
use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

/// A commit protocol the generic [`Runtime`] can drive.
pub trait Backend {
    /// Tunables of one instance.
    type Config;

    /// Read/write-set buffers a thread's attempts reuse: each attempt
    /// takes them from the context's cell and returns them cleared.
    type Buffers: Default;

    /// Registration rejects thread ids at or above this bound.
    const SLOTS: usize;

    /// One in-flight attempt, borrowing the protocol, the thread's
    /// interleave injector and its buffer cell.
    type Attempt<'a>: Attempt
    where
        Self: 'a;

    /// The protocol of an instance configured by `config`.
    fn new(config: Self::Config) -> Self;

    /// Interleave injection probability (`2^-k`), if enabled.
    fn yield_prob_log2(&self) -> Option<u32>;

    /// Whether `bufs` holds no entries.
    fn is_idle(bufs: &Self::Buffers) -> bool;

    /// Open attempt number `retries` (the count of aborts before it) of
    /// transaction `me`.
    fn begin<'a>(
        &'a self,
        me: Pair,
        retries: u32,
        inject: &'a Interleave,
        bufs: &'a Cell<Self::Buffers>,
    ) -> Self::Attempt<'a>;
}

/// Configures and builds a [`Runtime`] — the one construction path; the
/// named constructors ([`Runtime::new`], ...) forward to it.
pub struct Builder<B: Backend> {
    config: B::Config,
    instruments: Instruments,
}

impl<B: Backend> Builder<B> {
    /// A builder for a plain instance (no recording, no gating).
    pub fn new(config: B::Config) -> Self {
        Builder {
            config,
            instruments: Instruments::new(Arc::new(NoopHook), None, None, None),
        }
    }

    /// Report to the given guidance hook — a [`crate::RecorderHook`] for
    /// profiling or a [`crate::GuidedHook`] for model-driven execution.
    pub fn hook(mut self, hook: Arc<dyn GuidanceHook>) -> Self {
        self.instruments.hook = hook;
        self
    }

    /// Additionally record commits, aborts, and latencies into
    /// `telemetry`.
    pub fn telemetry(mut self, telemetry: Option<Arc<Telemetry>>) -> Self {
        self.instruments.telemetry = telemetry;
        self
    }

    /// Arm a deterministic fault plan: each attempt probes the backend's
    /// forced-abort site (an abort through the ordinary rollback path,
    /// surfaced as [`crate::AbortCause::Explicit`]) and its commit-delay
    /// site (a bounded spin before the commit, emulating a descheduled
    /// committer); see [`Attempt::FAULT_SITES`].
    pub fn faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.instruments.faults = faults;
        self
    }

    /// Attach a conflict-provenance tracker: every abort is recorded
    /// with its cause, owner, and conflicting address. `None` (the
    /// default) keeps the abort path at one predictable branch.
    pub fn contention(mut self, tracker: Option<Arc<ContentionTracker>>) -> Self {
        self.instruments.contention = tracker;
        self
    }

    /// Build the instance.
    pub fn build(self) -> Arc<Runtime<B>> {
        Arc::new(Runtime {
            protocol: B::new(self.config),
            instruments: self.instruments,
            next_thread: AtomicU16::new(0),
        })
    }
}

/// One STM instance: its protocol plus the [`Instruments`] it reports
/// to. It dereferences to the protocol, so a backend's own instance-wide
/// methods are called on the runtime directly.
pub struct Runtime<B> {
    protocol: B,
    /// Hook, telemetry, fault plan and contention tracker — everything
    /// the retry driver reports to.
    instruments: Instruments,
    next_thread: AtomicU16,
}

impl<B> Deref for Runtime<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.protocol
    }
}

impl<B: Backend> Runtime<B> {
    /// A plain instance (no recording, no gating).
    pub fn new(config: B::Config) -> Arc<Self> {
        Builder::new(config).build()
    }

    /// An instance reporting to a guidance hook.
    pub fn with_hook(hook: Arc<dyn GuidanceHook>, config: B::Config) -> Arc<Self> {
        Builder::new(config).hook(hook).build()
    }

    /// An instance reporting to a guidance hook and, optionally, a
    /// [`Telemetry`] collector (counters, latency histograms, tracing).
    pub fn with_telemetry(
        hook: Arc<dyn GuidanceHook>,
        config: B::Config,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Arc<Self> {
        Builder::new(config).hook(hook).telemetry(telemetry).build()
    }

    /// [`Runtime::with_telemetry`] plus a deterministic fault plan (see
    /// [`Builder::faults`]).
    pub fn with_robustness(
        hook: Arc<dyn GuidanceHook>,
        config: B::Config,
        telemetry: Option<Arc<Telemetry>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        Builder::new(config)
            .hook(hook)
            .telemetry(telemetry)
            .faults(faults)
            .build()
    }

    /// Register the calling thread, assigning the next sequential
    /// [`ThreadId`] (0, 1, 2, ...).
    pub fn register(self: &Arc<Self>) -> Context<B> {
        let id = ThreadId(self.next_thread.fetch_add(1, Ordering::Relaxed));
        self.register_as(id)
    }

    /// Register the calling thread under an explicit id. Workloads use
    /// this to keep thread ids stable across runs — the model's states
    /// name specific thread ids, so profiled and guided runs must agree on
    /// the numbering. Ids must be below the backend's [`Backend::SLOTS`].
    pub fn register_as(self: &Arc<Self>, id: ThreadId) -> Context<B> {
        assert!(
            id.index() < B::SLOTS,
            "thread id {} exceeds SLOTS {}",
            id.0,
            B::SLOTS
        );
        Context {
            inject: Interleave::for_thread(self.protocol.yield_prob_log2(), id),
            runtime: Arc::clone(self),
            thread: id,
            stats: ThreadStats::new(),
            bufs: Cell::default(),
        }
    }
}

/// A worker thread's handle onto a [`Runtime`]: identity, statistics, and
/// the `atomically` entry point. Not `Sync` — each thread owns its
/// context.
pub struct Context<B: Backend> {
    runtime: Arc<Runtime<B>>,
    /// The id this context registered under, below [`Backend::SLOTS`].
    thread: ThreadId,
    stats: ThreadStats,
    inject: Interleave,
    /// Buffers every attempt of this thread reuses.
    bufs: Cell<B::Buffers>,
}

impl<B: Backend> Context<B> {
    /// The id this context registered under.
    pub fn thread(&self) -> ThreadId {
        self.thread
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
    /// `on_commit` after success. Between the gate and the body runs the
    /// backend's begin step ([`Backend::begin`]).
    pub fn atomically<R>(
        &mut self,
        txid: TxnId,
        f: impl FnMut(&mut B::Attempt<'_>) -> TxResult<R>,
    ) -> R {
        let me = Pair::new(txid, self.thread);
        let (rt, inject, bufs) = (&*self.runtime, &self.inject, &self.bufs);
        rt.instruments.run(
            me,
            &mut self.stats,
            inject,
            |retries| rt.protocol.begin(me, retries, inject, bufs),
            f,
        )
    }

    /// Run `f` — a wait outside any transaction, such as a barrier —
    /// with this thread parked at the guidance hook
    /// ([`GuidanceHook::park`]), so that a gate waiting for it to commit
    /// is released at once.
    pub fn parked<R>(&self, f: impl FnOnce() -> R) -> R {
        let hook = &self.runtime.instruments.hook;
        hook.park(self.thread);
        let r = f();
        hook.unpark(self.thread);
        r
    }

    /// Whether the thread's buffers are back home and empty — true
    /// between transactions; a leak check for tests.
    pub fn buffers_idle(&self) -> bool {
        let bufs = self.bufs.take();
        let idle = B::is_idle(&bufs);
        self.bufs.set(bufs);
        idle
    }
}

impl<B: Backend> Drop for Context<B> {
    /// The thread runs no more transactions here: park it at the hook
    /// for good. A later gate under the same id marks it running again.
    fn drop(&mut self) {
        self.runtime.instruments.hook.park(self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Abort;
    use crate::faultinject::FaultSite;

    /// A backend with no shared state: every attempt commits, and the
    /// begin step logs the retry count it was given.
    struct Log {
        yield_prob_log2: Option<u32>,
    }

    struct LogAttempt<'a> {
        bufs: Vec<u32>,
        home: &'a Cell<Vec<u32>>,
    }

    impl Drop for LogAttempt<'_> {
        fn drop(&mut self) {
            self.home.set(std::mem::take(&mut self.bufs));
        }
    }

    impl Attempt for LogAttempt<'_> {
        const FAULT_SITES: (FaultSite, FaultSite) =
            (FaultSite::Tl2Abort, FaultSite::Tl2CommitDelay);

        fn write_set_size(&self) -> usize {
            0
        }

        fn commit(self) -> TxResult<()> {
            Ok(())
        }
    }

    impl Backend for Log {
        type Config = Option<u32>;
        type Buffers = Vec<u32>;
        const SLOTS: usize = 4;
        type Attempt<'a> = LogAttempt<'a>;

        fn new(config: Option<u32>) -> Self {
            Log {
                yield_prob_log2: config,
            }
        }

        fn yield_prob_log2(&self) -> Option<u32> {
            self.yield_prob_log2
        }

        fn is_idle(bufs: &Vec<u32>) -> bool {
            bufs.is_empty()
        }

        fn begin<'a>(
            &'a self,
            _me: Pair,
            retries: u32,
            _inject: &'a Interleave,
            home: &'a Cell<Vec<u32>>,
        ) -> LogAttempt<'a> {
            let mut bufs = home.take();
            bufs.push(retries);
            LogAttempt { bufs, home }
        }
    }

    #[test]
    fn registration_assigns_sequential_ids_below_the_bound() {
        let rt = Runtime::<Log>::new(None);
        let ids: Vec<_> = (0..3).map(|_| rt.register().thread()).collect();
        assert_eq!(ids, [ThreadId(0), ThreadId(1), ThreadId(2)]);
        assert_eq!(rt.register_as(ThreadId(3)).thread(), ThreadId(3));
        let over =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.register_as(ThreadId(4))));
        assert!(over.is_err(), "id 4 reaches SLOTS 4");
    }

    #[test]
    fn begin_sees_each_attempts_retry_count() {
        let rt = Runtime::<Log>::new(Some(3));
        let mut ctx = rt.register();
        let mut attempts = 0;
        let r = ctx.atomically(TxnId(0), |tx| {
            attempts += 1;
            if attempts < 3 {
                return Err(Abort::EXPLICIT);
            }
            Ok(std::mem::take(&mut tx.bufs))
        });
        assert_eq!(r, [0, 1, 2], "one begin per attempt, counting aborts");
        assert!(ctx.buffers_idle());
        let stats = ctx.take_stats();
        assert_eq!((stats.commits, stats.aborts), (1, 2));
        assert_eq!(ctx.stats().commits, 0, "take resets");
    }
}
