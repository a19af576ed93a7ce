//! Guided execution — the gate consulted by the STM at transaction begin.
//!
//! An STM integrates with the framework through [`GuidanceHook`]:
//!
//! * [`GuidanceHook::gate`] is called before each transaction attempt. In
//!   guided mode it blocks the caller while `<txn,thread>` does not appear
//!   in any tuple of a high-probability destination state of the *current*
//!   state, re-examining the (possibly changed) current state up to `k`
//!   times before releasing the thread anyway (progress guarantee). With
//!   a fixed model the wait also ends at once while no other thread that
//!   has gated on the hook can change the state: each is blocked in its
//!   own gate on the same state, or parked ([`GuidanceHook::park`]).
//! * [`GuidanceHook::on_abort`] reports a rolled-back attempt.
//! * [`GuidanceHook::on_commit`] reports a successful commit; the tracker
//!   drains the aborts observed since the previous commit into a new
//!   [`StateKey`] and advances the current state.
//!
//! Three implementations are provided: [`NoopHook`] (default execution),
//! [`RecorderHook`] (profiling / non-determinism measurement), and
//! [`GuidedHook`] (model-driven gating, which also records so that
//! non-determinism under guidance can be measured — the paper's `ND_mcmc`).
//! A traced guided hook also writes each state it forms into the trace
//! ([`TraceKind::State`]), so the exported artifacts carry the tracker's
//! own Tseq rather than a re-derivation of it.
//!
//! ## Hot-path architecture
//!
//! The hooks sit on **every** transaction begin/abort/commit, so the
//! tracker is built to be contention-free and allocation-free at steady
//! state:
//!
//! * **Aborts** push into the aborting thread's shard, its slot in a
//!   [`PerThread`] table — an uncontended lock acquisition (a single CAS)
//!   plus a `Vec` push; no global lock is touched and no other thread's
//!   cache line is written.
//! * **Commits** take the *single* commit-side lock, sweep the shards into
//!   a reused scratch buffer, canonicalize it in place, classify the state
//!   (model lookup by borrowed slice, via precomputed 64-bit hashes — see
//!   [`crate::tsa`]), and append the state's 4-byte id in a per-run
//!   table of distinct states to the recorded Tseq. One hash of the
//!   window serves the model lookup and the table lookup; only a state
//!   the run has not seen before is materialized into an owned
//!   [`StateKey`].
//! * **Gates** count their outcome, and commits count a state absent
//!   from the model, in the caller's own shard, so neither writes a line
//!   another thread writes.
//!
//! The windowed attribution semantics are unchanged from the original
//! double-mutex tracker: every abort is grouped with the next commit, and
//! the recorded per-run multiset of states is identical (the equivalence
//! stress test in `tests/tracker_equivalence.rs` pins this down).
//!
//! ## Static vs adaptive models
//!
//! A [`GuidedHook`] gates against either a **fixed** model (the offline
//! profile→build pipeline) or an **adaptive** one managed by
//! `ModelManager`, which regenerates the model online when the drift
//! ladder says it went stale and hot-swaps it without blocking readers
//! (see `crate::adapt`). In adaptive mode the current-state word is
//! tagged with the model's epoch: state ids are model-relative, so a
//! state recorded under a superseded model must not be interpreted by the
//! new one — a tag mismatch degrades the state to "unknown", which fails
//! open exactly like an unmodeled state. Each gate and each commit
//! resolves the generation once, through the calling OS thread's own
//! epoch cache, so two threads registered under one `ThreadId` never
//! share cache state.

use crate::adapt::{pack_state, unpack_state, AdaptConfig, ModelManager};
use crate::breaker::{Breaker, BreakerState};
use crate::config::GuidanceConfig;
use crate::drift::DriftTracker;
use crate::events::AbortCause;
use crate::faultinject::{spin_for, FaultPlan, FaultSite};
use crate::ids::{Pair, ThreadId};
use crate::rng::finalize;
use crate::sync::{slot_of, Mutex, PerThread, SLOTS};
use crate::telemetry::{GateOutcome, Telemetry, TraceKind};
use crate::tsa::{GuidedModel, StateId, StateIndex};
use crate::tss::{hash_parts, StateKey};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "current state not present in the model".
const UNKNOWN: u32 = u32::MAX;

/// The current-state word of a fresh (or reset) hook: epoch 0, state
/// unknown. The state half short-circuits every consumer, so the epoch
/// half never matters for this value.
const UNKNOWN_WORD: u64 = UNKNOWN as u64;

/// Gate-slot value of a thread that is not waiting in a gate. A gate
/// blocks only on a word whose state is known (an unknown state always
/// passes), so both sentinels use the [`UNKNOWN`] state half.
pub(crate) const RUNNING: u64 = UNKNOWN_WORD;

/// Gate-slot value of a parked thread: outside every attempt, at a
/// barrier or retired for good.
pub(crate) const PARKED: u64 = 1 << 32 | UNKNOWN as u64;

/// Cap on the gate's exponential backoff: a wait round busy-spins at most
/// `2 * (1 << BACKOFF_CAP)` iterations before yielding, keeping the
/// worst-case poll latency bounded while still spreading contending
/// re-examinations apart.
const BACKOFF_CAP: u32 = 6;

/// Callbacks an STM invokes around each transaction attempt.
///
/// Implementations must be cheap and thread-safe; every worker thread calls
/// into the same hook instance.
pub trait GuidanceHook: Send + Sync {
    /// Called before a transaction attempt begins. May block (guided mode).
    fn gate(&self, _who: Pair) {}
    /// Called when an attempt rolls back.
    fn on_abort(&self, _who: Pair, _cause: AbortCause) {}
    /// Called when an attempt commits.
    fn on_commit(&self, _who: Pair) {}
    /// Called when `thread` stops running attempts until it calls
    /// [`GuidanceHook::unpark`] or gates again: it waits at a barrier,
    /// or its context is gone for good.
    fn park(&self, _thread: ThreadId) {}
    /// Called when a parked `thread` runs again.
    fn unpark(&self, _thread: ThreadId) {}
}

/// The default hook: plain STM execution, zero overhead.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoopHook;

impl GuidanceHook for NoopHook {}

/// One thread's slot in the tracker's [`PerThread`] table: the aborts
/// it has pending, its gate outcomes and its commits into states absent
/// from the model. Only the owning thread writes the counters; ids that
/// alias onto one shard still count exactly, since every update is an
/// atomic read-modify-write.
#[derive(Default)]
struct Shard {
    pending: Mutex<Vec<Pair>>,
    passed: AtomicU64,
    waited: AtomicU64,
    released: AtomicU64,
    unknown: AtomicU64,
}

/// Commit-side state, all behind one lock: the scratch buffer commits
/// drain into (reused, so steady-state commits never allocate it) and
/// the recorded Tseq, kept as ids into the run's table of distinct
/// states. In adaptive mode the bounded sliding window model rebuilds
/// train on is *derived* from `recorded` — every commit pushes exactly
/// one id, so the window is always the last `window_cap` entries.
/// Snapshots materialize that suffix on demand; the commit itself does no
/// window bookkeeping at all, so adaptation adds zero work to the hot
/// path.
#[derive(Default)]
struct CommitSide {
    scratch: Vec<Pair>,
    /// The run's distinct states, in first-seen order, and their index.
    states: Vec<StateKey>,
    index: StateIndex,
    /// The run's Tseq: one `states` id per commit.
    recorded: Vec<StateId>,
    /// Sliding-window capacity; 0 disables window snapshots.
    window_cap: usize,
}

/// Shared windowed-attribution tracker: groups the aborts seen since the
/// previous commit with the next commit to form a [`StateKey`].
///
/// See the module docs for the sharded hot-path design. The `occupied`
/// bitmap (bit *i* set ⇒ shard *i* may hold pending aborts) lets the
/// commit drain visit only shards that actually received aborts since the
/// last drain — the common low-conflict commit swaps one word and touches
/// no shard at all.
#[derive(Default)]
struct StateTracker {
    /// One shard per [`crate::sync::SLOTS`] slot, so one bit per shard
    /// fits `occupied`.
    shards: PerThread<Shard>,
    occupied: AtomicU64,
    commit: Mutex<CommitSide>,
}

const _: () = assert!(crate::sync::SLOTS == u64::BITS as usize);

impl StateTracker {
    #[inline]
    fn shard(&self, who: Pair) -> &Shard {
        self.shards.get(who.thread.index())
    }

    /// Gate outcomes and unknown-state commits summed over every shard.
    fn gate_totals(&self) -> GateStats {
        let mut total = GateStats::default();
        for s in self.shards.iter() {
            total.passed += s.passed.load(Ordering::Relaxed);
            total.waited += s.waited.load(Ordering::Relaxed);
            total.released += s.released.load(Ordering::Relaxed);
            total.unknown_states += s.unknown.load(Ordering::Relaxed);
        }
        total
    }

    /// Record an abort: a push into the aborting thread's own shard, plus
    /// an occupancy-bit publication when the shard transitions from empty
    /// (so repeat aborts within one window never touch the shared word).
    #[inline]
    fn abort(&self, who: Pair) {
        let idx = slot_of(who.thread.index());
        let was_empty = {
            let mut buf = self.shards.get(idx).pending.lock();
            let was_empty = buf.is_empty();
            buf.push(who);
            was_empty
        };
        // Published after the push: a commit that swaps the bitmap in
        // between simply leaves this abort for the next window, which is
        // valid windowed attribution. The bit can never be lost — either
        // this fetch_or lands it, or a concurrent drain already holds the
        // shard lock and empties the buffer first, after which the next
        // push re-publishes.
        if was_empty {
            self.occupied.fetch_or(1 << idx, Ordering::Release);
        }
    }

    /// Form the state for a commit, record it, and hand the canonicalized
    /// window and its [`hash_parts`] value to `classify` (borrowed — no
    /// allocation) before it is recorded. Returns `classify`'s result.
    ///
    /// The whole drain-classify-record sequence runs under the single
    /// commit-side lock, so concurrent committers observe disjoint,
    /// complete windows.
    fn commit_with<R>(&self, who: Pair, classify: impl FnOnce(&[Pair], Pair, u64) -> R) -> R {
        let mut side = self.commit.lock();
        let side = &mut *side;
        side.scratch.clear();
        let mut occupied = self.occupied.swap(0, Ordering::AcqRel);
        while occupied != 0 {
            let idx = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            side.scratch
                .append(&mut self.shards.get(idx).pending.lock());
        }
        side.scratch.sort_unstable();
        side.scratch.dedup();
        let hash = hash_parts(&side.scratch, who);
        let result = classify(&side.scratch, who, hash);
        side.record(hash, who);
        result
    }

    /// Enable (cap > 0) or disable the sliding window. Called once at
    /// hook construction, before any commit traffic.
    fn set_window_cap(&self, cap: usize) {
        self.commit.lock().window_cap = cap;
    }

    /// Copy out the current sliding window — the most recent `window_cap`
    /// recorded states, oldest first (empty when the window is disabled).
    fn window_snapshot(&self) -> Vec<StateKey> {
        let side = self.commit.lock();
        if side.window_cap == 0 {
            return Vec::new();
        }
        let start = side.recorded.len().saturating_sub(side.window_cap);
        side.materialize(&side.recorded[start..])
    }

    fn take_run(&self) -> Vec<StateKey> {
        let mut side = self.commit.lock();
        self.occupied.store(0, Ordering::Release);
        for shard in self.shards.iter() {
            shard.pending.lock().clear();
        }
        side.scratch.clear();
        let run = side.materialize(&side.recorded);
        side.recorded.clear();
        side.states.clear();
        side.index = StateIndex::default();
        run
    }
}

impl CommitSide {
    /// Append the state that the scratch window and `commit` form, whose
    /// [`hash_parts`] value is `hash`, to the recorded Tseq, interning it
    /// in the run's table the first time the run sees it.
    fn record(&mut self, hash: u64, commit: Pair) {
        let (aborts, states) = (&self.scratch, &mut self.states);
        let known = self
            .index
            .lookup(hash, |id| states[id.index()].matches_parts(aborts, commit));
        let id = known.unwrap_or_else(|| {
            let id = StateId(states.len() as u32);
            states.push(StateKey::from_sorted(aborts, commit));
            self.index.insert(hash, id);
            id
        });
        self.recorded.push(id);
    }

    /// The states `ids` name, as owned keys.
    fn materialize(&self, ids: &[StateId]) -> Vec<StateKey> {
        ids.iter()
            .map(|id| self.states[id.index()].clone())
            .collect()
    }
}

/// Profiling hook: records the transaction sequence without gating.
///
/// Used both for model generation (the paper's `mcmc_data`) and for
/// measuring the non-determinism of default execution (`ND_only`).
#[derive(Default)]
pub struct RecorderHook {
    tracker: StateTracker,
}

impl RecorderHook {
    /// Create a fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain and return the recorded transaction sequence for the run that
    /// just finished, resetting the recorder for the next run.
    pub fn take_run(&self) -> Vec<StateKey> {
        self.tracker.take_run()
    }
}

impl GuidanceHook for RecorderHook {
    fn on_abort(&self, who: Pair, _cause: AbortCause) {
        self.tracker.abort(who);
    }

    fn on_commit(&self, who: Pair) {
        self.tracker.commit_with(who, |_, _, _| ());
    }
}

/// Counters describing what the gate did during a guided run.
///
/// The three outcome counters partition gate calls:
/// `passed + waited + released` equals the number of calls.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct GateStats {
    /// Gate calls that passed immediately (allowed or unknown state).
    pub passed: u64,
    /// Gate calls that waited at least one retry before passing.
    pub waited: u64,
    /// Gate calls that waited and were then released by the `k`-retry
    /// progress escape without ever becoming allowed.
    pub released: u64,
    /// Commits that moved the system to a state absent from the model.
    pub unknown_states: u64,
}

impl GateStats {
    /// Accumulate another hook's counters into this one (used when a
    /// measurement phase runs one hook per run and reports the total).
    pub fn merge(&mut self, other: &GateStats) {
        self.passed += other.passed;
        self.waited += other.waited;
        self.released += other.released;
        self.unknown_states += other.unknown_states;
    }
}

/// Where a [`GuidedHook`] gets its model from.
enum ModelSource {
    /// One model for the hook's whole lifetime (offline pipeline).
    Fixed(Arc<GuidedModel>),
    /// Epoch-managed model that may be hot-swapped while gating.
    Adaptive(Arc<ModelManager>),
}

/// Model-driven gating hook (Section V of the paper).
pub struct GuidedHook {
    source: ModelSource,
    config: GuidanceConfig,
    tracker: StateTracker,
    /// Current state, packed as `(epoch << 32) | state_id` (see
    /// [`crate::adapt::pack_state`]); the state half is [`UNKNOWN`] when
    /// the current state is absent from the (epoch's) model. Fixed-model
    /// hooks always use epoch 0.
    current: AtomicU64,
    /// One bit per thread index below [`SLOTS`] that has gated on this
    /// hook; set on gate entry and kept for good (`take_run` too).
    gaters: AtomicU64,
    /// Each gater's gate slot: [`RUNNING`], [`PARKED`], or the packed
    /// current word its gate is blocked on. Only the owning thread
    /// writes its slot; waiting gates of a fixed-model hook read them.
    /// This assumes one OS thread per thread id on a hook at a time, as
    /// the gater bit does: two OS threads under one id would overwrite
    /// each other's slot.
    slots: PerThread<AtomicU64>,
    /// Set for good once a thread id of [`SLOTS`] or more gates: such ids
    /// alias onto other threads' slots, so no slot can be trusted and
    /// every wait runs its full budget.
    aliased: AtomicBool,
    /// Optional telemetry sink: gate outcomes feed the per-thread
    /// counters, commits feed TSA state-transition trace events. `None`
    /// keeps the hot path at one extra predictable branch per call.
    telemetry: Option<Arc<Telemetry>>,
    /// Optional model-drift accumulator fed every observed state
    /// transition (including self-transitions, which the profiled TSA
    /// also counts). `None` costs one predictable branch per commit.
    /// Fixed-model hooks only; adaptive hooks carry a tracker per epoch.
    drift: Option<Arc<DriftTracker>>,
    /// Optional guidance circuit breaker. While Open the gate is a
    /// single load + early return (fail-open unguided execution); the
    /// breaker's window/watchdog bookkeeping rides on the outcome and
    /// abort/commit notifications. `None` costs one predictable branch.
    breaker: Option<Arc<Breaker>>,
    /// Optional deterministic fault plan (chaos mode): probes the
    /// gate-stall and transition-storm sites. `None` costs one
    /// predictable branch per site, same as `telemetry`.
    faults: Option<Arc<FaultPlan>>,
}

impl GuidedHook {
    /// Create a guided hook over a trained model.
    pub fn new(model: Arc<GuidedModel>, config: GuidanceConfig) -> Self {
        Self::with_robustness(model, config, None, None, None, None)
    }

    /// Create a guided hook with observability and the robustness layer,
    /// each part optional:
    ///
    /// * `telemetry` receives gate outcomes and, when it has a trace
    ///   ring, one [`TraceKind::State`] per commit plus the TSA state
    ///   transitions;
    /// * `drift` receives every observed transition. It must be built
    ///   over the same model (state ids are shared); register the same
    ///   `Arc` with [`Telemetry::attach_drift`] to have snapshots carry
    ///   the drift report;
    /// * a circuit `breaker` degrades gating to fail-open unguided
    ///   execution when the model misbehaves. A drift tracker given
    ///   alongside it is attached to it, so Fresh verdicts veto
    ///   model-health trips;
    /// * a deterministic fault plan (`faults`) exercises the gate-stall
    ///   and transition-storm chaos sites.
    pub fn with_robustness(
        model: Arc<GuidedModel>,
        config: GuidanceConfig,
        telemetry: Option<Arc<Telemetry>>,
        drift: Option<Arc<DriftTracker>>,
        breaker: Option<Arc<Breaker>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        if let (Some(b), Some(d)) = (&breaker, &drift) {
            b.attach_drift(Arc::clone(d));
        }
        GuidedHook {
            source: ModelSource::Fixed(model),
            config,
            tracker: StateTracker::default(),
            current: AtomicU64::new(UNKNOWN_WORD),
            gaters: AtomicU64::new(0),
            slots: PerThread::new(|| AtomicU64::new(RUNNING)),
            aliased: AtomicBool::new(false),
            telemetry,
            drift,
            breaker,
            faults,
        }
    }

    /// Create a guided hook whose model regenerates online: `model`
    /// seeds epoch 0, commits feed a bounded sliding window, and a
    /// `ModelManager` rebuilds + hot-swaps the model when the drift
    /// ladder reaches Drifting/Stale. When `adapt.background` is set a
    /// guardian thread polls the verdict; otherwise call
    /// `ModelManager::maybe_regenerate` (via [`GuidedHook::manager`])
    /// at the cadence you control — tests use this for deterministic
    /// swap points.
    ///
    /// Swap events and the current epoch's drift report flow into
    /// `telemetry` when given.
    pub fn adaptive(
        model: Arc<GuidedModel>,
        config: GuidanceConfig,
        adapt: AdaptConfig,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Arc<Self> {
        Self::adaptive_with_robustness(model, config, adapt, telemetry, None, None)
    }

    /// [`GuidedHook::adaptive`] plus the robustness layer (see
    /// [`GuidedHook::with_robustness`]). The breaker follows the live
    /// epoch: every hot-swap re-attaches the new generation's drift
    /// tracker, and the guardian thread is panic-isolated against the
    /// fault plan's guardian-panic site.
    pub fn adaptive_with_robustness(
        model: Arc<GuidedModel>,
        config: GuidanceConfig,
        adapt: AdaptConfig,
        telemetry: Option<Arc<Telemetry>>,
        breaker: Option<Arc<Breaker>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        let manager = ModelManager::with_robustness(
            model,
            config,
            adapt,
            telemetry.clone(),
            breaker.clone(),
            faults.clone(),
        );
        let hook = Arc::new(GuidedHook {
            source: ModelSource::Adaptive(Arc::clone(&manager)),
            config,
            tracker: StateTracker::default(),
            current: AtomicU64::new(UNKNOWN_WORD),
            gaters: AtomicU64::new(0),
            slots: PerThread::new(|| AtomicU64::new(RUNNING)),
            aliased: AtomicBool::new(false),
            telemetry,
            drift: None,
            breaker,
            faults,
        });
        hook.tracker.set_window_cap(adapt.window);
        if adapt.background {
            manager.spawn_guardian(&hook);
        }
        hook
    }

    /// The model manager, when this hook is adaptive.
    pub fn manager(&self) -> Option<&Arc<ModelManager>> {
        match &self.source {
            ModelSource::Fixed(_) => None,
            ModelSource::Adaptive(m) => Some(m),
        }
    }

    /// Copy of the sliding window rebuilds train on (oldest first; empty
    /// for fixed-model hooks, where the window is disabled).
    pub fn window_snapshot(&self) -> Vec<StateKey> {
        self.tracker.window_snapshot()
    }

    /// The `(epoch, state)` tag of the current-state word (diagnostic;
    /// the schedule-replay suite uses it to prove no mixed-epoch reads).
    /// The state half is `u32::MAX` when the current state is unknown.
    pub fn current_tag(&self) -> (u32, u32) {
        unpack_state(self.current.load(Ordering::Acquire))
    }

    /// Drain the recorded state sequence (for non-determinism measurement
    /// under guidance), resetting for the next run. Also resets the current
    /// state (and the sliding window) so runs do not leak guidance context
    /// into each other.
    pub fn take_run(&self) -> Vec<StateKey> {
        self.current.store(UNKNOWN_WORD, Ordering::Release);
        self.tracker.take_run()
    }

    /// Gate behaviour counters accumulated so far.
    pub fn stats(&self) -> GateStats {
        self.tracker.gate_totals()
    }

    /// Whether `who` may proceed from the state packed in `word`, judged
    /// by `model` (which is the `epoch` generation). Three ways to pass:
    /// the state is unknown, the state was recorded under a *different*
    /// epoch (model-relative ids must not cross generations — degrade to
    /// unknown, fail open), or the model allows the pair.
    #[inline]
    fn allowed_word(word: u64, model: &GuidedModel, epoch: u32, who: Pair) -> bool {
        let (e, s) = unpack_state(word);
        s == UNKNOWN || e != epoch || model.is_allowed(StateId(s), who)
    }

    /// Count a gate resolution in the caller's shard and, when attached,
    /// the telemetry cells and the breaker's health window. A trip
    /// reported back by the breaker fails the gate open *immediately*:
    /// one store of the unknown word releases every thread still spinning
    /// on the old current state (unknown always passes).
    #[inline]
    fn count_outcome(&self, who: Pair, outcome: GateOutcome) {
        let shard = self.tracker.shard(who);
        let counter = match outcome {
            GateOutcome::Passed => &shard.passed,
            GateOutcome::Waited => &shard.waited,
            GateOutcome::Released => &shard.released,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_gate_outcome(who, outcome);
        }
        if let Some(b) = &self.breaker {
            let released = matches!(outcome, GateOutcome::Released);
            if let Some(tr) = b.note_gate(who.thread.index(), released) {
                if tr.to == BreakerState::Open {
                    self.current.store(UNKNOWN_WORD, Ordering::Release);
                }
            }
        }
    }

    /// The gate, parameterized by the model generation resolved at call
    /// entry: wait for an allowed state, then count the outcome. A gate
    /// that waited leaves its blocked state first, because a breaker trip
    /// in `count_outcome` stores the word, and a thread whose slot says
    /// it is blocked must not move the word (see [`GuidedHook::wait`]).
    fn gate_with(&self, who: Pair, model: &GuidedModel, epoch: u32) {
        let i = who.thread.index();
        let slot = (matches!(self.source, ModelSource::Fixed(_)) && i < SLOTS)
            .then(|| self.slots.get(i));
        let outcome = self.wait(who, model, epoch, slot);
        if let Some(slot) = slot.filter(|_| outcome != GateOutcome::Passed) {
            slot.store(RUNNING, Ordering::SeqCst);
        }
        self.count_outcome(who, outcome);
    }

    /// The wait loop. A concurrent hot-swap cannot strand a waiter:
    /// commits under the new generation re-tag the current word, the tag
    /// mismatch reads as unknown, and unknown always passes.
    ///
    /// A fixed model's word changes only in a gate (a breaker trip) or a
    /// commit, and every commit follows its thread's gate. So a wait pays
    /// only while some other thread that has gated can still move the
    /// word. With `slot` (a fixed model and an id below [`SLOTS`]) the
    /// gate publishes the word it is blocked on there before its first
    /// wait round on it, and before each round checks
    /// [`GuidedHook::nobody_can_wake`]; when that holds it skips the rest
    /// of its budget for the final re-examination. An adaptive hook
    /// always keeps the full wait: its manager can re-tag the word from
    /// a thread that never gates.
    fn wait(
        &self,
        who: Pair,
        model: &GuidedModel,
        epoch: u32,
        slot: Option<&AtomicU64>,
    ) -> GateOutcome {
        let resolved = |waited| if waited { GateOutcome::Waited } else { GateOutcome::Passed };
        let mut waited = false;
        'retry: for retry in 0..self.config.k_retries {
            let cur = self.current.load(Ordering::Acquire);
            if Self::allowed_word(cur, model, epoch, who) {
                return resolved(waited);
            }
            // Wait (bounded) for a concurrent commit to change the current
            // state, then loop to re-examine from the new state. Each
            // round busy-spins `base + jitter` iterations before yielding:
            // the exponential base keeps short waits responsive and long
            // waits cheap, and the jitter — a pure hash of (pair, retry,
            // round), no RNG state — decorrelates threads that blocked on
            // the same state so they do not re-poll in lockstep.
            waited = true;
            if let Some(slot) = slot {
                slot.store(cur, Ordering::SeqCst);
            }
            for round in 0..self.config.wait_spins {
                if self.current.load(Ordering::Acquire) != cur {
                    break;
                }
                if slot.is_some() && self.nobody_can_wake(who.thread.index(), cur) {
                    break 'retry;
                }
                let base = 1u64 << round.min(BACKOFF_CAP);
                let jitter =
                    finalize(((who.packed() as u64) << 32) ^ ((retry as u64) << 16) ^ round as u64)
                        % base;
                spin_for((base + jitter) as u32);
                std::thread::yield_now();
            }
        }
        // Retry budget exhausted, or no other thread that could wake us.
        // Re-examine once — the final wait may have ended on a state
        // change whose new state allows us — and otherwise release to
        // guarantee progress.
        if Self::allowed_word(self.current.load(Ordering::Acquire), model, epoch, who) {
            resolved(waited)
        } else {
            GateOutcome::Released
        }
    }

    /// Whether no thread but `me` that has gated can move the current
    /// word off `cur`: each is parked, or blocked in its own gate on
    /// `cur` itself, and the word still reads `cur`. A thread blocked on
    /// `cur` examined it, was disallowed, and leaves only on a state
    /// change or by its own release. One blocked on any other word is
    /// about to re-examine and may pass and commit, so it can wake us.
    ///
    /// The loads here and the slot stores are `SeqCst`: a store of the
    /// blocked word followed by a load of a peer's slot is a
    /// store-then-load handshake, so of two threads that block on one
    /// word at least one sees the other.
    fn nobody_can_wake(&self, me: usize, cur: u64) -> bool {
        if self.aliased.load(Ordering::SeqCst) {
            return false;
        }
        let mut others = self.gaters.load(Ordering::SeqCst) & !(1 << me);
        while others != 0 {
            let slot = self.slots.get(others.trailing_zeros() as usize);
            others &= others - 1;
            let state = slot.load(Ordering::SeqCst);
            if state != PARKED && state != cur {
                return false;
            }
        }
        self.current.load(Ordering::SeqCst) == cur
    }

    /// Record that `who`'s thread gates on this hook: set its gater bit
    /// and mark its slot running (a parked or retired thread runs again).
    /// An id of [`SLOTS`] or more sets [`GuidedHook::aliased`] instead.
    /// The steady state is one load of each word.
    #[inline]
    fn note_gater(&self, who: Pair) {
        let i = who.thread.index();
        if i >= SLOTS {
            if !self.aliased.load(Ordering::Relaxed) {
                self.aliased.store(true, Ordering::SeqCst);
            }
            return;
        }
        if self.gaters.load(Ordering::Relaxed) & 1 << i == 0 {
            self.gaters.fetch_or(1 << i, Ordering::SeqCst);
        }
        let slot = self.slots.get(i);
        if slot.load(Ordering::Relaxed) != RUNNING {
            slot.store(RUNNING, Ordering::SeqCst);
        }
    }

    /// Store `state` in `thread`'s gate slot; ids of [`SLOTS`] or more
    /// would alias another thread's slot and are ignored.
    fn set_slot(&self, thread: ThreadId, state: u64) {
        if thread.index() < SLOTS {
            self.slots.get(thread.index()).store(state, Ordering::SeqCst);
        }
    }

    /// The commit path, parameterized by the model generation resolved at
    /// call entry. `drift` is the tracker the transition feeds (the
    /// epoch's own in adaptive mode): when the displaced previous state
    /// carries a different epoch tag it is reported as unknown-origin,
    /// because its id means nothing under `model`.
    fn commit_with_model(
        &self,
        who: Pair,
        model: &GuidedModel,
        epoch: u32,
        drift: Option<&DriftTracker>,
    ) {
        // The state's hash names it in the trace only when a trace ring
        // will record it.
        let trace_states = self.telemetry.as_ref().is_some_and(|t| t.trace_enabled());
        let (id, key) = self.tracker.commit_with(who, |aborts, commit, hash| {
            let key = trace_states.then_some(hash);
            (model.tsa().id_of_hashed(hash, aborts, commit), key)
        });
        if let (Some(t), Some(key)) = (&self.telemetry, key) {
            t.trace(who, TraceKind::State { key });
        }
        let next = match id {
            Some(id) => id.0,
            None => {
                self.tracker
                    .shard(who)
                    .unknown
                    .fetch_add(1, Ordering::Relaxed);
                UNKNOWN
            }
        };
        // Only observers need the previous state; the observability-off
        // path keeps the plain release store (an xchg here costs a locked
        // RMW on a line every committer writes).
        if self.telemetry.is_some() || drift.is_some() {
            let prev_word = self.current.swap(pack_state(epoch, next), Ordering::AcqRel);
            let (prev_epoch, prev_state) = unpack_state(prev_word);
            let prev = if prev_epoch == epoch { prev_state } else { UNKNOWN };
            if let Some(d) = drift {
                d.record(prev, next);
            }
            if let Some(t) = &self.telemetry {
                if prev != next {
                    t.trace(who, TraceKind::StateTransition { from: prev, to: next });
                }
            }
        } else {
            self.current.store(pack_state(epoch, next), Ordering::Release);
        }
        // Chaos site: a transition storm floods the drift tracker with
        // off-model transitions and scrambles the current state to
        // unknown — the failure shape of an application phase change the
        // model has never seen. No trace events are fabricated (the
        // analyzer counts the traced states against the harness's).
        if let Some(f) = &self.faults {
            if let Some(fault) = f.should_fire(FaultSite::TransitionStorm, who.thread.index()) {
                if let Some(d) = drift {
                    for _ in 0..fault.spins.max(1) {
                        d.record(next, UNKNOWN);
                    }
                }
                self.current.store(UNKNOWN_WORD, Ordering::Release);
            }
        }
    }
}

impl GuidanceHook for GuidedHook {
    fn gate(&self, who: Pair) {
        self.note_gater(who);
        // Chaos site: stall this thread at the gate, as if it lost its
        // timeslice between the epoch read and the state examination.
        if let Some(f) = &self.faults {
            if let Some(fault) = f.should_fire(FaultSite::GateStall, who.thread.index()) {
                spin_for(fault.spins);
            }
        }
        // Fail-open: while the breaker is Open the gate is this one load
        // — no model lookup, no waiting. The outcome still feeds
        // count_outcome so the breaker can count down its cooldown and
        // move to Half-Open.
        if let Some(b) = &self.breaker {
            if b.bypass() {
                self.count_outcome(who, GateOutcome::Passed);
                return;
            }
        }
        match &self.source {
            ModelSource::Fixed(model) => self.gate_with(who, model, 0),
            ModelSource::Adaptive(mgr) => {
                // One epoch resolution per call: on the steady path this
                // is a shared load and a check of the calling thread's
                // own cache.
                mgr.cell()
                    .with(|epoch| self.gate_with(who, &epoch.model, epoch.id));
            }
        }
    }

    fn on_abort(&self, who: Pair, _cause: AbortCause) {
        self.tracker.abort(who);
        if let Some(b) = &self.breaker {
            b.note_abort(who.thread.index());
        }
    }

    fn on_commit(&self, who: Pair) {
        match &self.source {
            ModelSource::Fixed(model) => {
                self.commit_with_model(who, model, 0, self.drift.as_deref());
            }
            ModelSource::Adaptive(mgr) => mgr.cell().with(|epoch| {
                self.commit_with_model(who, &epoch.model, epoch.id, Some(&epoch.drift));
            }),
        }
        if let Some(b) = &self.breaker {
            b.note_commit(who.thread.index());
        }
    }

    fn park(&self, thread: ThreadId) {
        self.set_slot(thread, PARKED);
    }

    fn unpark(&self, thread: ThreadId) {
        self.set_slot(thread, RUNNING);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftVerdict;
    use crate::ids::{ThreadId, TxnId};
    use crate::tsa::Tsa;

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    #[test]
    fn recorder_windows_aborts_into_next_commit() {
        let rec = RecorderHook::new();
        rec.on_abort(p(0, 1), AbortCause::Validation);
        rec.on_abort(p(0, 2), AbortCause::Validation);
        rec.on_commit(p(1, 3));
        rec.on_commit(p(1, 4));
        let run = rec.take_run();
        assert_eq!(run.len(), 2);
        assert_eq!(run[0], StateKey::new(vec![p(0, 1), p(0, 2)], p(1, 3)));
        assert_eq!(run[1], StateKey::solo(p(1, 4)));
        assert!(rec.take_run().is_empty(), "take_run resets");
    }

    #[test]
    fn aliased_threads_share_a_shard_without_loss() {
        // Thread ids SLOTS apart alias to one shard; the window must
        // still contain both aborts.
        let rec = RecorderHook::new();
        let far = crate::sync::SLOTS as u16;
        rec.on_abort(p(0, 1), AbortCause::Validation);
        rec.on_abort(p(0, 1 + far), AbortCause::Validation);
        rec.on_commit(p(1, 0));
        let run = rec.take_run();
        assert_eq!(run, vec![StateKey::new(vec![p(0, 1), p(0, 1 + far)], p(1, 0))]);
    }

    #[test]
    fn recorded_run_keeps_each_distinct_state_once() {
        let rec = RecorderHook::new();
        let aborted = |a: Vec<Pair>, c| (a, c);
        // Five commits over three distinct states, two of them with aborts.
        let commits = [
            aborted(vec![p(0, 1)], p(1, 0)),
            aborted(vec![], p(0, 0)),
            aborted(vec![p(0, 1)], p(1, 0)),
            aborted(vec![p(2, 2), p(0, 1)], p(1, 0)),
            aborted(vec![], p(0, 0)),
        ];
        for (aborts, commit) in &commits {
            for &a in aborts {
                rec.on_abort(a, AbortCause::Validation);
            }
            rec.on_commit(*commit);
        }
        assert_eq!(rec.tracker.commit.lock().states.len(), 3, "one key per state");
        let expected: Vec<StateKey> =
            commits.into_iter().map(|(a, c)| StateKey::new(a, c)).collect();
        assert_eq!(rec.take_run(), expected, "the run is the commit sequence");
        assert!(rec.tracker.commit.lock().states.is_empty(), "take_run resets");
    }

    fn two_state_model() -> Arc<GuidedModel> {
        // A -> B dominates; A -> C is rare. B commits p(0,1), C commits p(0,2).
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let c = StateKey::solo(p(0, 2));
        let mut run = Vec::new();
        for i in 0..20 {
            run.push(a.clone());
            run.push(if i == 0 { c.clone() } else { b.clone() });
        }
        let tsa = Tsa::from_runs(&[run]);
        Arc::new(GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(1.0)))
    }

    #[test]
    fn gate_passes_unknown_state() {
        let hook = GuidedHook::new(two_state_model(), GuidanceConfig::default());
        // Fresh hook: current state unknown, everything passes immediately.
        hook.gate(p(9, 9));
        assert_eq!(hook.stats().passed, 1);
        assert_eq!(hook.stats().released, 0);
    }

    #[test]
    fn gate_passes_allowed_pair_after_commit() {
        let model = two_state_model();
        let hook = GuidedHook::new(model.clone(), GuidanceConfig::default());
        // Commit p(0,0): current becomes state A, whose only kept
        // destination (Tfactor=1) is B = {<a1>}.
        hook.on_commit(p(0, 0));
        hook.gate(p(0, 1)); // allowed: commits B
        assert_eq!(hook.stats().passed, 1);
    }

    #[test]
    fn gate_releases_disallowed_pair_after_k_retries() {
        let model = two_state_model();
        let cfg = GuidanceConfig {
            k_retries: 2,
            wait_spins: 4,
            ..GuidanceConfig::default()
        };
        let hook = GuidedHook::new(model, cfg);
        hook.on_commit(p(0, 0)); // current = A; only B allowed
        hook.gate(p(0, 2)); // C's committer: low probability, must wait then release
        let stats = hook.stats();
        assert_eq!(stats.released, 1);
        assert_eq!(stats.passed, 0);
        assert_eq!(stats.waited, 0, "released calls are not double-counted");
    }

    #[test]
    fn gate_recounts_allowance_after_final_wait() {
        // With a single retry whose wait ends on a state change, the gate
        // must re-examine the new state instead of releasing blindly: the
        // new state is UNKNOWN here, so the call counts as waited-then-
        // passed, not released.
        let model = two_state_model();
        let cfg = GuidanceConfig {
            k_retries: 1,
            wait_spins: 1_000_000,
            ..GuidanceConfig::default()
        };
        let hook = Arc::new(GuidedHook::new(model, cfg));
        hook.gate(p(5, 5)); // the rescuer gates first, as every committer does
        hook.on_commit(p(0, 0)); // current = A; only p(0,1) allowed
        let h2 = Arc::clone(&hook);
        let waiter = std::thread::spawn(move || h2.gate(p(0, 2)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        hook.on_commit(p(5, 5)); // unknown state: everything allowed
        waiter.join().unwrap();
        let stats = hook.stats();
        assert_eq!(stats.waited, 1, "final re-examination sees the new state");
        assert_eq!(stats.released, 0);
    }

    #[test]
    fn gate_unblocks_when_state_changes() {
        use std::sync::atomic::AtomicBool;
        let model = two_state_model();
        let cfg = GuidanceConfig {
            k_retries: 1_000_000,
            wait_spins: 1_000_000,
            ..GuidanceConfig::default()
        };
        let hook = Arc::new(GuidedHook::new(model, cfg));
        hook.gate(p(5, 5)); // the rescuer gates first, as every committer does
        hook.on_commit(p(0, 0)); // current = A; only p(0,1) allowed
        let done = Arc::new(AtomicBool::new(false));
        let h2 = Arc::clone(&hook);
        let d2 = Arc::clone(&done);
        let waiter = std::thread::spawn(move || {
            h2.gate(p(0, 2)); // blocked until state changes
            d2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Commit p(0,2) is not what unblocks — committing p(0,1) moves the
        // current state to B, which is unmodeled-source (terminal) => its
        // destination set is empty... so instead move to an UNKNOWN state,
        // which always unblocks.
        hook.on_commit(p(5, 5));
        waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(hook.stats().unknown_states, 1);
    }

    /// A budget no test could sit out: a gate that returns at all
    /// within the test's lifetime did not spend it.
    fn endless() -> GuidanceConfig {
        GuidanceConfig {
            k_retries: 1_000_000,
            wait_spins: 1_000_000,
            ..GuidanceConfig::default()
        }
    }

    #[test]
    fn lone_waiter_on_a_fixed_hook_releases_at_once() {
        let hook = GuidedHook::new(two_state_model(), endless());
        hook.on_commit(p(0, 0)); // current = A; only p(0,1) allowed
        let t0 = std::time::Instant::now();
        hook.gate(p(0, 2)); // nobody else has ever gated: no waker
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        let stats = hook.stats();
        assert_eq!((stats.passed, stats.waited, stats.released), (0, 0, 1));
    }

    #[test]
    fn adaptive_hook_keeps_waiting_as_the_only_gater() {
        // The same lone waiter on an adaptive hook: its manager can
        // re-tag the word from a thread that never gates, so it is still
        // waiting 20 ms later and a state change rescues it. (The rescuing
        // commit never gated, standing in for such a re-tag.)
        let hook = GuidedHook::adaptive(two_state_model(), endless(), manual_adapt(16), None);
        hook.on_commit(p(0, 0));
        let at_gate = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (hook, at_gate) = (Arc::clone(&hook), Arc::clone(&at_gate));
            std::thread::spawn(move || {
                at_gate.wait();
                hook.gate(p(0, 2));
            })
        };
        at_gate.wait();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "adaptive gate gave up its wait");
        hook.on_commit(p(5, 5)); // unknown state: everything allowed
        waiter.join().unwrap();
        let stats = hook.stats();
        assert_eq!(stats.released, 0);
        assert_eq!(stats.passed + stats.waited, 1);
    }

    #[test]
    fn gater_bits_register_each_gating_thread_for_good() {
        let hook = GuidedHook::new(two_state_model(), GuidanceConfig::default());
        let gaters = || hook.gaters.load(Ordering::Relaxed);
        hook.on_commit(p(1, 2)); // only a gate registers its thread
        assert_eq!(gaters(), 0);
        hook.gate(p(0, 1));
        hook.gate(p(1, 1)); // another transaction of the same thread
        assert_eq!(gaters(), 0b10);
        let _ = hook.take_run(); // a new run keeps the registration
        assert_eq!(gaters(), 0b10);
        hook.gate(p(1, 2));
        assert_eq!(gaters(), 0b110);
        assert!(!hook.aliased.load(Ordering::Relaxed));
    }

    /// Wait up to five seconds for `gate` to return; panic otherwise
    /// (the thread is left behind, spending a budget nobody can sit out).
    fn returns_soon(gate: std::thread::JoinHandle<()>) {
        let t0 = std::time::Instant::now();
        while !gate.is_finished() {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5), "gate never returned");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        gate.join().unwrap();
    }

    /// A fixed hook with an endless budget whose threads 1..=`n` have
    /// each gated once, and whose current state then became A, under
    /// which only `p(0,1)` may go.
    fn blocked_hook(n: u16) -> Arc<GuidedHook> {
        let hook = Arc::new(GuidedHook::new(two_state_model(), endless()));
        for th in 1..=n {
            hook.gate(p(9, th)); // the state is unknown: everyone passes
        }
        hook.on_commit(p(0, 0));
        hook
    }

    #[test]
    fn two_threads_blocked_on_one_word_release_without_their_budget() {
        // Threads 2 and 3 both block on A; neither can move the word
        // until one is released. The first to see the other blocked
        // releases at once, then parks, which releases the second.
        let hook = blocked_hook(3);
        let gates: Vec<_> = [2u16, 3]
            .into_iter()
            .map(|th| {
                let hook = Arc::clone(&hook);
                std::thread::spawn(move || {
                    hook.gate(p(0, th));
                    hook.park(ThreadId(th));
                })
            })
            .collect();
        hook.park(ThreadId(1)); // thread 1 could wake them; it stays out
        gates.into_iter().for_each(returns_soon);
        let stats = hook.stats();
        assert_eq!((stats.waited, stats.released), (0, 2));
    }

    #[test]
    fn a_parked_peer_releases_the_waiter_at_once() {
        let hook = blocked_hook(2);
        hook.park(ThreadId(1));
        let waiter = Arc::clone(&hook);
        returns_soon(std::thread::spawn(move || waiter.gate(p(0, 2))));
        assert_eq!(hook.stats().released, 1);
        // A later gate by the parked thread marks it running again.
        hook.gate(p(0, 1));
        assert_eq!(hook.slots.get(1).load(Ordering::Relaxed), RUNNING);
    }

    /// Start a gate of `p(0,2)` and check it is still waiting 20 ms
    /// later; a commit into an unknown state then lets it pass.
    fn keeps_waiting_until_a_commit(hook: &Arc<GuidedHook>) {
        let waiter = {
            let hook = Arc::clone(hook);
            std::thread::spawn(move || hook.gate(p(0, 2)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "the gate gave up a wait a peer could end");
        hook.on_commit(p(5, 5)); // unknown state: everything allowed
        returns_soon(waiter);
        let stats = hook.stats();
        assert_eq!((stats.waited, stats.released), (1, 0));
    }

    #[test]
    fn a_peer_blocked_on_a_stale_word_keeps_the_waiter_waiting() {
        // Thread 1's slot names a word the state has since left: it is
        // about to re-examine, may pass and commit, and so can wake the
        // waiter blocked on A.
        let hook = blocked_hook(2);
        let stale = pack_state(0, hook.current_tag().1 ^ 1);
        hook.slots.get(1).store(stale, Ordering::SeqCst);
        keeps_waiting_until_a_commit(&hook);
    }

    #[test]
    fn a_gate_by_an_id_at_or_above_slots_disables_the_rule() {
        // Thread 2 is the only gater below SLOTS, which alone would
        // release it at once; but the id SLOTS + 1 aliases onto slot 1,
        // so no slot can be trusted.
        let hook = Arc::new(GuidedHook::new(two_state_model(), endless()));
        let far = ThreadId(SLOTS as u16 + 1);
        hook.gate(Pair::new(TxnId(9), far));
        hook.park(far); // ignored: it would mark slot 1 parked
        assert_eq!(hook.slots.get(1).load(Ordering::Relaxed), RUNNING);
        hook.on_commit(p(0, 0));
        keeps_waiting_until_a_commit(&hook);
    }

    #[test]
    fn shard_counters_partition_each_threads_gate_calls() {
        let hook = Arc::new(GuidedHook::new(two_state_model(), GuidanceConfig::default()));
        hook.on_commit(p(0, 0)); // current = A; p(0,1) passes, the rest wait
        std::thread::scope(|s| {
            for th in 1..4u16 {
                let hook = Arc::clone(&hook);
                s.spawn(move || {
                    for i in 0..50 * th {
                        let who = p(i % 2, th);
                        hook.gate(who);
                        hook.on_commit(who);
                    }
                });
            }
        });
        let mut sum = (0, 0, 0);
        for th in 1..4u16 {
            let shard = hook.tracker.shard(p(0, th));
            let (pa, wa, re) = (
                shard.passed.load(Ordering::Relaxed),
                shard.waited.load(Ordering::Relaxed),
                shard.released.load(Ordering::Relaxed),
            );
            assert_eq!(pa + wa + re, 50 * th as u64, "thread {th}");
            sum = (sum.0 + pa, sum.1 + wa, sum.2 + re);
        }
        let stats = hook.stats();
        assert_eq!((stats.passed, stats.waited, stats.released), sum);
    }

    #[test]
    fn commit_to_modeled_state_updates_current() {
        let model = two_state_model();
        let hook = GuidedHook::new(model.clone(), GuidanceConfig::default());
        hook.on_commit(p(0, 1)); // state B exists in model
        assert_ne!(hook.current_tag().1, UNKNOWN);
        assert_eq!(hook.current_tag().0, 0, "fixed models always tag epoch 0");
        let run = hook.take_run();
        assert_eq!(run, vec![StateKey::solo(p(0, 1))]);
        // take_run resets current state to UNKNOWN.
        assert_eq!(hook.current_tag().1, UNKNOWN);
    }

    #[test]
    fn guided_commit_windows_aborts_like_recorder() {
        let model = two_state_model();
        let hook = GuidedHook::new(model, GuidanceConfig::default());
        hook.on_abort(p(0, 2), AbortCause::Validation);
        hook.on_abort(p(0, 1), AbortCause::Validation);
        hook.on_commit(p(0, 0));
        let run = hook.take_run();
        assert_eq!(run, vec![StateKey::new(vec![p(0, 1), p(0, 2)], p(0, 0))]);
    }

    /// Drive a scripted abort/commit schedule through a hook traced into
    /// `tel`; returns the `State` keys traced and the recorded Tseq.
    fn traced_states(tel: Arc<Telemetry>) -> (Vec<u64>, Vec<StateKey>) {
        let (model, cfg) = (two_state_model(), GuidanceConfig::default());
        let hook = GuidedHook::with_robustness(model, cfg, Some(tel.clone()), None, None, None);
        hook.on_abort(p(0, 2), AbortCause::Validation);
        hook.on_abort(p(0, 1), AbortCause::Validation);
        hook.on_commit(p(0, 0));
        hook.on_commit(p(0, 1));
        hook.on_abort(p(1, 2), AbortCause::ReadVersion);
        hook.on_abort(p(1, 2), AbortCause::ReadVersion);
        hook.on_commit(p(9, 9)); // unmodeled: still one state
        let keys = tel
            .trace_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::State { key } => Some(key),
                _ => None,
            })
            .collect();
        (keys, hook.take_run())
    }

    #[test]
    fn traced_hook_writes_one_state_per_commit() {
        let (keys, run) = traced_states(Arc::new(Telemetry::new()));
        assert_eq!(run.len(), 3);
        let recorded: Vec<u64> = run.iter().map(StateKey::hash64).collect();
        assert_eq!(keys, recorded, "the trace carries the tracker's own states, in order");
        // Without a trace ring there is nothing to write them into.
        let (keys, run) = traced_states(Arc::new(Telemetry::counters_only()));
        assert!(keys.is_empty());
        assert_eq!(run.len(), 3);
    }

    #[test]
    fn guided_commits_feed_attached_drift_tracker() {
        let model = two_state_model();
        let drift = Arc::new(DriftTracker::new(&model));
        let hook = GuidedHook::with_robustness(
            model,
            GuidanceConfig::default(),
            None,
            Some(drift.clone()),
            None,
            None,
        );
        // First commit transitions from UNKNOWN; the next two walk the
        // modeled A→B edge and then B's terminal (no outbound) state.
        hook.on_commit(p(0, 0)); // UNKNOWN -> A
        hook.on_commit(p(0, 1)); // A -> B (modeled edge)
        hook.on_commit(p(9, 9)); // B -> UNKNOWN (unmodeled state)
        let d = drift.report();
        assert_eq!(d.from_unknown, 1);
        assert_eq!(d.on_edge, 1);
        assert_eq!(d.to_unknown, 1);
        assert_eq!(d.transitions_total(), 3);
    }

    #[test]
    fn noop_hook_is_inert() {
        let hook = NoopHook;
        hook.gate(p(0, 0));
        hook.on_abort(p(0, 0), AbortCause::Explicit);
        hook.on_commit(p(0, 0));
    }

    // ---- adaptive mode -------------------------------------------------

    /// Manual-control adaptive config: no guardian thread, tiny window.
    fn manual_adapt(window: usize) -> AdaptConfig {
        AdaptConfig {
            window,
            min_window: 1,
            background: false,
            ..AdaptConfig::default()
        }
    }

    #[test]
    fn adaptive_hook_gates_like_fixed_until_swap() {
        let hook = GuidedHook::adaptive(
            two_state_model(),
            GuidanceConfig::with_tfactor(1.0),
            manual_adapt(16),
            None,
        );
        hook.on_commit(p(0, 0)); // current = A (epoch 0)
        assert_eq!(hook.current_tag().0, 0);
        hook.gate(p(0, 1)); // allowed under the seed model
        assert_eq!(hook.stats().passed, 1);
        let mgr = hook.manager().expect("adaptive hook has a manager");
        assert_eq!(mgr.swaps(), 0);
        assert_eq!(mgr.epoch_id(), 0);
    }

    #[test]
    fn sliding_window_is_bounded_and_cleared_by_take_run() {
        let hook = GuidedHook::adaptive(
            two_state_model(),
            GuidanceConfig::default(),
            manual_adapt(4),
            None,
        );
        for t in 0..10u16 {
            hook.on_commit(p(t, 0));
        }
        let w = hook.window_snapshot();
        assert_eq!(w.len(), 4, "window keeps only the most recent cap states");
        assert_eq!(w[0], StateKey::solo(p(6, 0)));
        assert_eq!(w[3], StateKey::solo(p(9, 0)));
        let run = hook.take_run();
        assert_eq!(run.len(), 10, "recorded Tseq is not windowed");
        assert!(hook.window_snapshot().is_empty(), "take_run clears the window");
    }

    #[test]
    fn fixed_hook_has_no_window() {
        let hook = GuidedHook::new(two_state_model(), GuidanceConfig::default());
        hook.on_commit(p(0, 0));
        assert!(hook.window_snapshot().is_empty());
        assert!(hook.manager().is_none());
    }

    #[test]
    fn forced_regeneration_swaps_epoch_and_retags_current() {
        let hook = GuidedHook::adaptive(
            two_state_model(),
            GuidanceConfig::with_tfactor(1.0),
            manual_adapt(64),
            None,
        );
        // Feed a window dominated by a different pattern than the seed
        // model: thread 7 commits everything.
        for t in 0..32u16 {
            hook.on_commit(p(t % 4, 7));
        }
        let mgr = hook.manager().unwrap();
        let new_epoch = mgr
            .regenerate_from(&hook, DriftVerdict::Stale)
            .expect("window is thick enough");
        assert_eq!(new_epoch, 1);
        assert_eq!(mgr.swaps(), 1);
        assert_eq!(mgr.epoch_id(), 1);
        // The current word still carries the epoch-0 tag, so the next
        // gate (now judging with the epoch-1 model) fails open...
        assert_eq!(hook.current_tag().0, 0);
        hook.gate(p(9, 9));
        assert_eq!(hook.stats().passed, 1, "cross-epoch state degrades to unknown");
        // ...and the next commit re-anchors the state under epoch 1.
        hook.on_commit(p(0, 7));
        assert_eq!(hook.current_tag().0, 1);
        // The regenerated model reflects the window: it contains the
        // states the window recorded.
        assert!(mgr.epoch().model.num_states() >= 1);
    }

    #[test]
    fn maybe_regenerate_fires_only_on_drift() {
        // Drift ladder with a low evidence bar so a handful of off-model
        // commits reach Stale.
        let drift_cfg = crate::drift::DriftConfig { min_transitions: 8 };
        let adapt = AdaptConfig {
            window: 64,
            min_window: 4,
            background: false,
            drift: drift_cfg,
        };
        let hook = GuidedHook::adaptive(
            two_state_model(),
            GuidanceConfig::with_tfactor(1.0),
            adapt,
            None,
        );
        let mgr = hook.manager().unwrap().clone();
        // Fresh hook, no transitions: verdict Insufficient, no swap.
        assert_eq!(mgr.maybe_regenerate(&hook), None);
        // Commit a pattern the seed model has never seen: every
        // transition is off-model/unknown, which drives the ladder to
        // Stale once min_transitions is met.
        for t in 0..24u16 {
            hook.on_commit(p(t % 3, 9));
        }
        assert!(mgr.epoch().drift.report().verdict >= DriftVerdict::Drifting);
        let swapped = mgr.maybe_regenerate(&hook);
        assert_eq!(swapped, Some(1), "stale verdict triggers regeneration");
        // The new epoch starts with a fresh tracker: immediately after
        // the swap there is no evidence against the new model.
        assert_eq!(
            mgr.epoch().drift.report().verdict,
            DriftVerdict::Insufficient
        );
    }

    #[test]
    fn thin_window_skips_regeneration() {
        let adapt = AdaptConfig {
            window: 64,
            min_window: 16,
            background: false,
            ..AdaptConfig::default()
        };
        let hook =
            GuidedHook::adaptive(two_state_model(), GuidanceConfig::default(), adapt, None);
        hook.on_commit(p(0, 0)); // window holds 1 < 16 states
        let mgr = hook.manager().unwrap();
        assert_eq!(mgr.regenerate_from(&hook, DriftVerdict::Stale), None);
        assert_eq!(mgr.swaps(), 0);
    }

    #[test]
    fn background_guardian_swaps_on_live_drift() {
        // End-to-end: guardian thread polls, sees a stale verdict, and
        // swaps without any manual call.
        let drift_cfg = crate::drift::DriftConfig { min_transitions: 8 };
        let adapt = AdaptConfig {
            window: 64,
            min_window: 4,
            background: true,
            drift: drift_cfg,
        };
        let hook = GuidedHook::adaptive(
            two_state_model(),
            GuidanceConfig::with_tfactor(1.0),
            adapt,
            None,
        );
        let mgr = hook.manager().unwrap().clone();
        for round in 0..500 {
            for t in 0..8u16 {
                hook.on_commit(p(t % 3, 9)); // consistently off-model
            }
            if mgr.swaps() > 0 {
                break;
            }
            assert!(
                round < 499,
                "guardian never swapped: {:?}",
                mgr.epoch().drift.report()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(mgr.swaps() >= 1);
        mgr.stop();
    }
}
