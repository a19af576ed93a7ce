//! Online model regeneration: drift-triggered rebuilds with a lock-free
//! hot-swap.
//!
//! PR 3's [`DriftTracker`] can *diagnose* a stale TSA but the runtime
//! could not act on the verdict: guided execution silently degraded until
//! someone re-profiled offline. This module closes the
//! profile → detect → regenerate loop:
//!
//! * the guided hook keeps the live Tseq flowing into a **bounded sliding
//!   window** maintained inside the tracker's existing commit-side
//!   critical section (no new hot-path locks — see
//!   [`crate::guidance::GuidedHook::window_snapshot`]);
//! * a [`ModelManager`] polls the current epoch's drift verdict on a
//!   background thread and, when the [`DriftConfig`] ladder reaches
//!   `Drifting`/`Stale`, rebuilds the TSA + [`GuidedModel`] from the
//!   window via the ordinary [`Tsa::from_runs`] / [`GuidedModel::build`]
//!   pipeline;
//! * the new model is **hot-swapped** through an [`EpochCell`] so the
//!   gate's read side stays a single shared load — readers never block,
//!   never observe a torn model, and a retired epoch is freed only once
//!   the last in-flight reader lets go of it.
//!
//! ## Epoch cell: swap without reader-side fences
//!
//! The classic lock-free hand-off (epoch-based reclamation, hazard
//! pointers) needs a StoreLoad fence on every read-side pin, which busts
//! the hook's ≤2% overhead budget. The cell instead exploits that swaps
//! are *rare* and readers are *keyed by thread*:
//!
//! * the current [`ModelEpoch`] lives behind a mutex (`current`) next to
//!   a monotone publication counter (`epoch`);
//! * each reader thread owns one cache-padded slot holding a **cached
//!   `Arc<ModelEpoch>`** plus the counter value it was cloned under;
//! * the steady-state read is two relaxed/acquire loads (shared counter,
//!   own tag) and a pointer dereference — no RMW, no fence, no lock;
//! * only when the counter moved does the reader take the cold path:
//!   lock `current`, clone the new `Arc` into its slot, drop the old one.
//!
//! Reclamation falls out of `Arc`: a superseded epoch stays alive exactly
//! as long as some slot (or in-flight clone) still references it, and is
//! freed by whichever reader or manager drops the last reference. A
//! reader stalled mid-window keeps its epoch alive rather than racing a
//! free.
//!
//! Because state ids are *model-relative*, the hook's current-state word
//! carries the epoch id in its upper half (see `guidance.rs`): a gate
//! decision only applies a model to a state recorded under the same
//! epoch; across a swap the state degrades to "unknown", which fails
//! open (threads run freely until the first commit re-anchors the state
//! in the new model — the same semantics the paper uses for unmodeled
//! states).

use crate::breaker::Breaker;
use crate::config::GuidanceConfig;
use crate::drift::{DriftConfig, DriftTracker, DriftVerdict, ModelDrift};
use crate::faultinject::{FaultPlan, FaultSite};
use crate::guidance::GuidedHook;
use crate::sync::Mutex;
use crate::telemetry::Telemetry;
use crate::tsa::{GuidedModel, Tsa};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Cap on the guardian's restart backoff exponent: after repeated caught
/// panics the poll interval stretches to at most `poll << 6` so a
/// deterministically poisoned regeneration step cannot spin a core.
const GUARDIAN_BACKOFF_CAP: u32 = 6;

/// Reader cache slots in an [`EpochCell`] (power of two; thread ids map
/// by masking, like the tracker shards). Threads beyond this alias and
/// fall back to the locked clone path.
pub const EPOCH_SLOTS: usize = 64;

/// Slot owner sentinel: unclaimed.
const FREE: u32 = u32::MAX;

/// Cache tag sentinel: nothing cached yet.
const EMPTY: u32 = u32::MAX;

/// One model generation: the model, its id, and the drift tracker that
/// observes execution *under* it. Rebuilding produces a whole new epoch,
/// so readers can never pair a model with another generation's tracker
/// or state ids.
pub struct ModelEpoch {
    /// Monotone generation number (the initial model is epoch 0).
    pub id: u32,
    /// The guided model of this generation.
    pub model: Arc<GuidedModel>,
    /// Drift observed while this generation was (or is) current.
    pub drift: Arc<DriftTracker>,
}

impl ModelEpoch {
    /// Wrap `model` as generation `id` with a fresh drift tracker.
    pub fn new(id: u32, model: Arc<GuidedModel>, drift_cfg: DriftConfig) -> Arc<Self> {
        let drift = Arc::new(DriftTracker::with_config(&model, drift_cfg));
        Arc::new(ModelEpoch { id, model, drift })
    }
}

/// A reader's per-thread epoch cache. `owner` is claimed once (CAS) by
/// the first thread that maps here; from then on only that thread
/// touches `cached`, so the steady path is single-writer and needs no
/// synchronization beyond the tag load. Aliased threads (owner mismatch)
/// never touch `cached` at all.
struct CacheSlot {
    owner: AtomicU32,
    /// Publication-counter value `cached` was cloned under.
    tag: AtomicU32,
    cached: UnsafeCell<Option<Arc<ModelEpoch>>>,
}

#[repr(align(128))]
struct PaddedSlot(CacheSlot);

impl Default for PaddedSlot {
    fn default() -> Self {
        PaddedSlot(CacheSlot {
            owner: AtomicU32::new(FREE),
            tag: AtomicU32::new(EMPTY),
            cached: UnsafeCell::new(None),
        })
    }
}

/// Lock-free read / locked swap holder for the current [`ModelEpoch`].
///
/// See the module docs for the design. Readers call `EpochCell::load`
/// once per hook entry; the manager calls [`EpochCell::swap`] per
/// regeneration.
pub struct EpochCell {
    /// Publication counter: bumped (release) after `current` is replaced.
    epoch: AtomicU32,
    current: Mutex<Arc<ModelEpoch>>,
    slots: Box<[PaddedSlot]>,
}

// SAFETY: `cached` is only written by the slot's owner thread (enforced
// by the `owner` CAS protocol in `load`) and only read through the
// reference that same thread holds; all cross-thread hand-off goes
// through `current`'s mutex and the release/acquire counter.
unsafe impl Send for EpochCell {}
unsafe impl Sync for EpochCell {}

/// What `EpochCell::load` hands the hot path: either the calling
/// thread's cached reference (steady state — no refcount traffic) or an
/// owned clone (aliased threads / first touch contention).
pub enum EpochRef<'a> {
    /// Borrowed from the caller's own cache slot.
    Cached(&'a ModelEpoch),
    /// Cloned under the cell lock (slow path).
    Owned(Arc<ModelEpoch>),
}

impl std::ops::Deref for EpochRef<'_> {
    type Target = ModelEpoch;

    #[inline]
    fn deref(&self) -> &ModelEpoch {
        match self {
            EpochRef::Cached(e) => e,
            EpochRef::Owned(e) => e,
        }
    }
}

impl EpochCell {
    /// A cell whose current generation is `initial`.
    pub fn new(initial: Arc<ModelEpoch>) -> Self {
        EpochCell {
            epoch: AtomicU32::new(0),
            current: Mutex::new(initial),
            slots: (0..EPOCH_SLOTS).map(|_| PaddedSlot::default()).collect(),
        }
    }

    /// The publication counter (number of swaps so far).
    pub fn publications(&self) -> u32 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clone the current epoch (locks; not for the hot path).
    pub fn current(&self) -> Arc<ModelEpoch> {
        self.current.lock().clone()
    }

    /// Publish `next` as the current generation. Readers observe the
    /// counter bump on their next load and refresh their slot; the
    /// superseded epoch is freed when the last cached/cloned `Arc` to it
    /// drops.
    pub fn swap(&self, next: Arc<ModelEpoch>) {
        *self.current.lock() = next;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The hot-path read: the caller's current view of the model.
    ///
    /// Steady state (no swap since this thread's last call) is two loads
    /// and no atomic write. The returned reference must be dropped before
    /// the same thread calls `load` again (hook entry points do not
    /// nest), because a refresh replaces the slot's cached `Arc` in
    /// place; this is why the borrowing variant is crate-internal — the
    /// public surface ([`Self::current`]) always clones.
    #[inline]
    pub(crate) fn load(&self, thread_index: usize) -> EpochRef<'_> {
        let now = self.epoch.load(Ordering::Acquire);
        let slot = &self.slots[thread_index & (EPOCH_SLOTS - 1)].0;
        let me = thread_index as u32;
        let owner = slot.owner.load(Ordering::Relaxed);
        let owned = owner == me
            || (owner == FREE
                && slot
                    .owner
                    .compare_exchange(FREE, me, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok());
        if !owned {
            // Aliased thread: never touches the slot cache.
            return EpochRef::Owned(self.current.lock().clone());
        }
        if slot.tag.load(Ordering::Relaxed) != now {
            let fresh = self.current.lock().clone();
            // SAFETY: this thread owns the slot (CAS above), so it is the
            // only writer of `cached`, and no borrow from a previous
            // `load` is alive (see the method contract).
            unsafe { *slot.cached.get() = Some(fresh) };
            slot.tag.store(now, Ordering::Relaxed);
        }
        // SAFETY: sole-owner read; the slot holds `Some` since the
        // refresh above ran at least once for this thread.
        let arc = unsafe { (*slot.cached.get()).as_ref().unwrap() };
        EpochRef::Cached(arc)
    }
}

/// Tunables for online regeneration.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Sliding-window capacity, in recorded states (commits). The window
    /// is what a rebuild trains on, so it bounds both rebuild cost and
    /// how much history a regenerated model reflects.
    pub window: usize,
    /// Minimum states the window must hold before a rebuild is
    /// attempted; below this a Drifting/Stale verdict is ignored (a
    /// model built from a sliver would be worse than the stale one).
    pub min_window: usize,
    /// How often the background thread re-examines the drift verdict.
    pub poll: Duration,
    /// Whether [`crate::guidance::GuidedHook::adaptive`] spawns the
    /// guardian thread. Disable for manual, deterministic control of
    /// regeneration points (the schedule-replay tests do).
    pub background: bool,
    /// Drift ladder applied to every epoch's tracker.
    pub drift: DriftConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            window: 4096,
            min_window: 256,
            // A drift verdict needs `min_transitions` commits to form, so
            // sub-millisecond reaction buys nothing; 5ms keeps the idle
            // guardian invisible even on a single-core host.
            poll: Duration::from_millis(5),
            background: true,
            drift: DriftConfig::default(),
        }
    }
}

impl AdaptConfig {
    /// A config with a specific window capacity, other knobs at defaults
    /// (`min_window` is clamped to at most half the window).
    pub fn with_window(window: usize) -> Self {
        let d = Self::default();
        AdaptConfig {
            window: window.max(1),
            min_window: d.min_window.min(window.max(1) / 2).max(1),
            ..d
        }
    }
}

/// Drives online regeneration for one [`GuidedHook`]: owns the epoch
/// cell, decides when to rebuild, and performs the swap.
pub struct ModelManager {
    cell: EpochCell,
    guidance: GuidanceConfig,
    cfg: AdaptConfig,
    swaps: AtomicU64,
    /// Rebuild opportunities declined because the window was too small.
    skipped_thin_window: AtomicU64,
    stop: AtomicBool,
    guardian: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Swap events and per-epoch drift re-attachment go here when set.
    telemetry: Option<Arc<Telemetry>>,
    /// Breaker tracking the live epoch's drift (re-attached per swap).
    breaker: Option<Arc<Breaker>>,
    /// Chaos plan probed at the guardian-panic site.
    faults: Option<Arc<FaultPlan>>,
    /// Guardian panics caught and survived.
    restarts: AtomicU64,
}

impl ModelManager {
    /// A manager whose epoch 0 is `initial`. `guidance` parameterizes
    /// rebuilt models exactly like the offline pipeline. No background
    /// thread is started — see [`ModelManager::spawn_guardian`]. The
    /// robustness layer is optional: the `breaker` follows the live
    /// epoch's drift tracker across hot-swaps, and the guardian probes
    /// `faults`' guardian-panic site each poll (panics are caught,
    /// counted, and survived with capped backoff).
    pub fn with_robustness(
        initial: Arc<GuidedModel>,
        guidance: GuidanceConfig,
        cfg: AdaptConfig,
        telemetry: Option<Arc<Telemetry>>,
        breaker: Option<Arc<Breaker>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Arc<Self> {
        let epoch = ModelEpoch::new(0, initial, cfg.drift);
        if let Some(t) = &telemetry {
            t.attach_drift(epoch.drift.clone());
        }
        if let Some(b) = &breaker {
            b.attach_drift(epoch.drift.clone());
        }
        Arc::new(ModelManager {
            cell: EpochCell::new(epoch),
            guidance,
            cfg,
            swaps: AtomicU64::new(0),
            skipped_thin_window: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            guardian: Mutex::new(None),
            telemetry,
            breaker,
            faults,
            restarts: AtomicU64::new(0),
        })
    }

    /// The epoch cell (hot-path read side).
    pub(crate) fn cell(&self) -> &EpochCell {
        &self.cell
    }

    /// The current generation.
    pub fn epoch(&self) -> Arc<ModelEpoch> {
        self.cell.current()
    }

    /// The current generation's id.
    pub fn epoch_id(&self) -> u32 {
        self.cell.current().id
    }

    /// Completed hot-swaps so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Rebuilds skipped because the sliding window was thinner than
    /// `min_window`.
    pub fn skipped_thin_window(&self) -> u64 {
        self.skipped_thin_window.load(Ordering::Relaxed)
    }

    /// Guardian panics caught and survived so far.
    pub fn guardian_restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// The adaptation tunables in effect.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Drift report of the *current* generation.
    pub fn drift_report(&self) -> ModelDrift {
        self.cell.current().drift.report()
    }

    /// One decision step: read the current epoch's verdict and rebuild
    /// from `hook`'s sliding window when it says Drifting/Stale. Returns
    /// the new epoch id when a swap happened.
    ///
    /// This is what the guardian thread calls each poll; tests call it
    /// directly for deterministic, scripted swap points.
    pub fn maybe_regenerate(&self, hook: &GuidedHook) -> Option<u32> {
        let epoch = self.cell.current();
        let report = epoch.drift.report();
        if report.verdict < DriftVerdict::Drifting {
            return None;
        }
        self.regenerate_from(hook, report.verdict)
    }

    /// Unconditionally rebuild from `hook`'s window (verdict recorded as
    /// `cause`) and swap. Returns the new epoch id, or `None` if the
    /// window is thinner than `min_window`.
    pub fn regenerate_from(&self, hook: &GuidedHook, cause: DriftVerdict) -> Option<u32> {
        let window = hook.window_snapshot();
        if window.len() < self.cfg.min_window {
            self.skipped_thin_window.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // The window is one contiguous run: transitions are counted
        // between adjacent states exactly like the offline profiler.
        let tsa = Tsa::from_runs(&[window]);
        let model = Arc::new(GuidedModel::build(tsa, &self.guidance));
        Some(self.swap_in(model, cause))
    }

    /// Install `model` as a new generation (epoch id +1), re-attach the
    /// new drift tracker to telemetry, and record the swap event.
    /// `cause` is the verdict that triggered the regeneration.
    pub fn swap_in(&self, model: Arc<GuidedModel>, cause: DriftVerdict) -> u32 {
        let next_id = self.cell.current().id.wrapping_add(1);
        let epoch = ModelEpoch::new(next_id, model, self.cfg.drift);
        if let Some(t) = &self.telemetry {
            t.attach_drift(epoch.drift.clone());
            t.record_model_swap(next_id, cause);
        }
        if let Some(b) = &self.breaker {
            // The breaker judges model health against the generation that
            // is actually gating.
            b.attach_drift(epoch.drift.clone());
        }
        self.cell.swap(epoch);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        next_id
    }

    /// Start the background guardian: every `poll`, upgrade the hook and
    /// run [`ModelManager::maybe_regenerate`]. The thread exits when the
    /// hook is dropped or [`ModelManager::stop`] is called. At most one
    /// guardian per manager.
    pub fn spawn_guardian(self: &Arc<Self>, hook: &Arc<GuidedHook>) {
        let mut slot = self.guardian.lock();
        if slot.is_some() {
            return;
        }
        let mgr = Arc::clone(self);
        let hook: Weak<GuidedHook> = Arc::downgrade(hook);
        *slot = Some(std::thread::spawn(move || {
            // Consecutive caught panics; a clean step resets it, so the
            // backoff only stretches while the step keeps failing.
            let mut streak = 0u32;
            loop {
                let backoff = 1u32 << streak.min(GUARDIAN_BACKOFF_CAP);
                std::thread::sleep(mgr.cfg.poll * backoff);
                if mgr.stop.load(Ordering::Acquire) {
                    break;
                }
                let Some(hook) = hook.upgrade() else { break };
                // The regeneration step is panic-isolated: a panic in the
                // drift read, the rebuild, or the injected guardian-panic
                // site must degrade adaptation (the stale epoch keeps
                // gating), never take the process down with it.
                let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(f) = &mgr.faults {
                        if f.should_fire(FaultSite::GuardianPanic, 0).is_some() {
                            panic!("injected guardian panic (chaos plan)");
                        }
                    }
                    mgr.maybe_regenerate(&hook);
                }));
                match step {
                    Ok(()) => streak = 0,
                    Err(_) => {
                        streak = streak.saturating_add(1);
                        mgr.restarts.fetch_add(1, Ordering::Relaxed);
                        if let Some(t) = &mgr.telemetry {
                            t.record_guardian_restart();
                        }
                    }
                }
            }
        }));
    }

    /// Signal the guardian to exit and join it (idempotent; no-op when
    /// none was spawned).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.guardian.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ModelManager {
    fn drop(&mut self) {
        // The guardian holds an Arc to the manager, so by the time Drop
        // runs the thread has already exited (or was never spawned); the
        // stop() here only covers the never-upgraded case.
        self.stop.store(true, Ordering::Release);
    }
}

/// Pack an (epoch, state) pair into the hook's current-state word.
#[inline]
pub(crate) fn pack_state(epoch: u32, state: u32) -> u64 {
    ((epoch as u64) << 32) | state as u64
}

/// Split the hook's current-state word into (epoch, state).
#[inline]
pub(crate) fn unpack_state(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Pair, ThreadId, TxnId};
    use crate::tss::StateKey;

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    fn model_of(pairs: &[(u16, u16)]) -> Arc<GuidedModel> {
        let run: Vec<StateKey> = std::iter::repeat_n(pairs, 8)
            .flatten()
            .map(|&(t, th)| StateKey::solo(p(t, th)))
            .collect();
        Arc::new(GuidedModel::build(
            Tsa::from_runs(&[run]),
            &GuidanceConfig::default(),
        ))
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (e, s) in [(0, 0), (1, 7), (u32::MAX, u32::MAX), (3, u32::MAX - 1)] {
            assert_eq!(unpack_state(pack_state(e, s)), (e, s));
        }
    }

    #[test]
    fn cell_load_caches_until_swap() {
        let m = model_of(&[(0, 0), (0, 1)]);
        let cell = EpochCell::new(ModelEpoch::new(0, m.clone(), DriftConfig::default()));
        {
            let e = cell.load(3);
            assert_eq!(e.id, 0);
            assert!(matches!(e, EpochRef::Cached(_)));
        }
        {
            // Second load from the same thread: still the cached epoch.
            let e = cell.load(3);
            assert_eq!(e.id, 0);
        }
        cell.swap(ModelEpoch::new(1, model_of(&[(1, 0)]), DriftConfig::default()));
        let e = cell.load(3);
        assert_eq!(e.id, 1, "reader refreshes after a swap");
        assert_eq!(cell.publications(), 1);
    }

    #[test]
    fn aliased_slot_readers_get_owned_clones() {
        let m = model_of(&[(0, 0)]);
        let cell = EpochCell::new(ModelEpoch::new(0, m, DriftConfig::default()));
        // Thread 2 claims slot 2; thread 2 + EPOCH_SLOTS aliases to the
        // same slot and must take the owned path.
        let _ = cell.load(2);
        let aliased = cell.load(2 + EPOCH_SLOTS);
        assert!(matches!(aliased, EpochRef::Owned(_)));
        assert_eq!(aliased.id, 0);
    }

    #[test]
    fn retired_epoch_is_freed_after_readers_refresh() {
        let m0 = model_of(&[(0, 0)]);
        let e0 = ModelEpoch::new(0, m0, DriftConfig::default());
        let weak0 = Arc::downgrade(&e0);
        let cell = EpochCell::new(e0);
        let _ = cell.load(1); // thread 1 caches epoch 0
        cell.swap(ModelEpoch::new(1, model_of(&[(1, 1)]), DriftConfig::default()));
        assert!(
            weak0.upgrade().is_some(),
            "epoch 0 still pinned by thread 1's slot"
        );
        let _ = cell.load(1); // refresh drops the pin
        assert!(
            weak0.upgrade().is_none(),
            "last reference gone => epoch reclaimed"
        );
    }

    #[test]
    fn slot_claim_race_crowns_exactly_one_owner() {
        // Four OS threads whose indices all alias to slot 5 race the
        // claim CAS from a barrier. Exactly one may win the slot (and see
        // borrowed `Cached` refs); every loser must take the mutex
        // fallback (`Owned` clones) on every single load — the unclaimed
        // slot is never written by two threads.
        let cell = Arc::new(EpochCell::new(ModelEpoch::new(
            0,
            model_of(&[(0, 0)]),
            DriftConfig::default(),
        )));
        let contenders: Vec<usize> = (0..4).map(|i| 5 + i * EPOCH_SLOTS).collect();
        let barrier = Arc::new(std::sync::Barrier::new(contenders.len() + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = contenders
            .iter()
            .map(|&idx| {
                let cell = Arc::clone(&cell);
                let barrier = Arc::clone(&barrier);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut saw_cached = false;
                    let mut last = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let e = cell.load(idx);
                        saw_cached |= matches!(e, EpochRef::Cached(_));
                        assert!(e.id >= last, "epoch went backwards");
                        last = e.id;
                    }
                    saw_cached
                })
            })
            .collect();
        barrier.wait();
        for id in 1..=20u32 {
            cell.swap(ModelEpoch::new(id, model_of(&[(0, 0)]), DriftConfig::default()));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let saw_cached: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let owner = cell.slots[5].0.owner.load(Ordering::Relaxed);
        let winner = contenders
            .iter()
            .position(|&idx| idx as u32 == owner)
            .expect("slot 5 claimed by one of the contenders");
        assert!(saw_cached[winner], "the CAS winner reads through its slot");
        let cached_count = saw_cached.iter().filter(|&&c| c).count();
        assert_eq!(cached_count, 1, "losers must always fall back to owned clones");
    }

    #[test]
    fn swap_under_concurrent_readers_never_tears() {
        let cell = Arc::new(EpochCell::new(ModelEpoch::new(
            0,
            model_of(&[(0, 0), (0, 1)]),
            DriftConfig::default(),
        )));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4u16)
            .map(|t| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        let e = cell.load(t as usize);
                        // The epoch a reader observes is internally
                        // consistent: its drift tracker was built for its
                        // model (state counts agree) and ids never go
                        // backwards.
                        assert_eq!(e.drift.num_states(), e.model.num_states());
                        assert!(e.id >= last, "epochs are monotone per reader");
                        last = e.id;
                    }
                })
            })
            .collect();
        for id in 1..=50u32 {
            let pairs: Vec<(u16, u16)> = (0..=(id % 4) as u16).map(|t| (t, t)).collect();
            cell.swap(ModelEpoch::new(id, model_of(&pairs), DriftConfig::default()));
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.current().id, 50);
    }
}
