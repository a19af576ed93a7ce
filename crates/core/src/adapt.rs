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
//!   background thread and, when the drift ladder reaches
//!   `Drifting`/`Stale`, rebuilds the TSA + [`GuidedModel`] from the
//!   window via the ordinary [`Tsa::from_runs`] / [`GuidedModel::build`]
//!   pipeline;
//! * the new model is **hot-swapped** through an [`EpochCell`] so the
//!   gate's read side stays a shared load and a thread-local check —
//!   readers never block, never observe a torn model, and a retired
//!   epoch is freed once the last reader lets go of it.
//!
//! ## Epoch cell: swap without reader-side fences
//!
//! The classic lock-free hand-off (epoch-based reclamation, hazard
//! pointers) needs a StoreLoad fence on every read-side pin, which busts
//! the hook's ≤2% overhead budget. The cell instead exploits that swaps
//! are *rare*:
//!
//! * the current [`ModelEpoch`] lives behind a mutex (`current`) next to
//!   a monotone publication counter (`epoch`);
//! * each OS thread keeps a one-entry `thread_local!` cache: the cell's
//!   unique id, the counter value, and an `Arc<ModelEpoch>` cloned under
//!   that value;
//! * the steady-state read ([`EpochCell::with`]) is one acquire load of
//!   the shared counter and a compare against the thread's own entry — no
//!   RMW, no fence, no lock, and no write to a line another thread reads;
//! * only when the counter moved, or the thread last read another cell,
//!   does the reader take the cold path: lock `current`, clone the new
//!   `Arc` into its entry, drop the old one.
//!
//! The cache is keyed by OS thread, not by the caller's `ThreadId`, so two
//! threads that register under one id can never share an entry. It is
//! keyed by a process-unique cell id, not the cell's address, so a cell
//! allocated where a dropped one lived never inherits its entry. All of
//! it is safe code.
//!
//! Reclamation falls out of `Arc`: a superseded epoch stays alive exactly
//! as long as some thread's entry (or an in-flight clone) still
//! references it, and is freed by whichever reader or manager drops the
//! last reference. The price is that each OS thread keeps at most one
//! retired epoch alive until its next adaptive call (or its exit). A
//! reader stalled mid-call keeps its epoch alive rather than racing a
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
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How often the background guardian re-examines the drift verdict. A
/// verdict needs `min_transitions` commits to form, so sub-millisecond
/// reaction buys nothing; 5ms keeps the idle guardian invisible even on a
/// single-core host.
const POLL: Duration = Duration::from_millis(5);

/// Cap on the guardian's restart backoff exponent: after repeated caught
/// panics the poll interval stretches to at most `POLL << 6` so a
/// deterministically poisoned regeneration step cannot spin a core.
const GUARDIAN_BACKOFF_CAP: u32 = 6;

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

/// Source of [`EpochCell`] ids: every cell gets a fresh one, so a cache
/// entry can never be mistaken for another cell's.
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(0);

/// One OS thread's cached view of one [`EpochCell`].
struct CachedEpoch {
    /// [`EpochCell::id`] of the cell `epoch` was read from.
    cell: u64,
    /// Publication-counter value `epoch` was cloned under.
    tag: u32,
    epoch: Arc<ModelEpoch>,
}

thread_local! {
    /// The calling thread's one-entry epoch cache (see the module docs).
    static EPOCH_CACHE: RefCell<Option<CachedEpoch>> = const { RefCell::new(None) };
}

/// Lock-free read / locked swap holder for the current [`ModelEpoch`].
///
/// See the module docs for the design. Readers call [`EpochCell::with`]
/// once per hook entry; the manager calls [`EpochCell::swap`] per
/// regeneration.
pub struct EpochCell {
    /// Process-unique id keying the readers' thread-local caches.
    id: u64,
    /// Publication counter: bumped (release) after `current` is replaced.
    epoch: AtomicU32,
    current: Mutex<Arc<ModelEpoch>>,
}

impl EpochCell {
    /// A cell whose current generation is `initial`.
    pub fn new(initial: Arc<ModelEpoch>) -> Self {
        EpochCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU32::new(0),
            current: Mutex::new(initial),
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
    /// counter bump on their next read and refresh their cache; the
    /// superseded epoch is freed when the last cached/cloned `Arc` to it
    /// drops.
    pub fn swap(&self, next: Arc<ModelEpoch>) {
        *self.current.lock() = next;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The hot-path read: run `f` on the caller's current view of the
    /// model.
    ///
    /// Steady state (no swap since this thread's last read of this cell)
    /// is one shared load, no atomic write and no lock. A call nested in
    /// another `with` on the same thread finds the cache in use and reads
    /// a locked clone instead.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&ModelEpoch) -> R) -> R {
        let tag = self.epoch.load(Ordering::Acquire);
        EPOCH_CACHE.with(|cache| {
            let Ok(mut cache) = cache.try_borrow_mut() else {
                return f(&self.current());
            };
            let entry = match &mut *cache {
                Some(e) if e.cell == self.id && e.tag == tag => e,
                stale => stale.insert(self.refresh(tag)),
            };
            f(&entry.epoch)
        })
    }

    /// A cache entry for this cell's generation as of counter value
    /// `tag` (the cold path of [`EpochCell::with`]).
    #[cold]
    fn refresh(&self, tag: u32) -> CachedEpoch {
        CachedEpoch {
            cell: self.id,
            tag,
            epoch: self.current(),
        }
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

    /// Start the background guardian: every `POLL` (5 ms), upgrade the
    /// hook and run [`ModelManager::maybe_regenerate`]. The thread exits
    /// when the hook is dropped or [`ModelManager::stop`] is called. At
    /// most one guardian per manager.
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
                std::thread::sleep(POLL * backoff);
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
        let first = cell.with(|e| {
            assert_eq!(e.id, 0);
            e as *const ModelEpoch
        });
        // Second read from the same thread: still the cached epoch.
        assert!(std::ptr::eq(cell.with(|e| e as *const ModelEpoch), first));
        cell.swap(ModelEpoch::new(1, model_of(&[(1, 0)]), DriftConfig::default()));
        assert_eq!(cell.with(|e| e.id), 1, "reader refreshes after a swap");
        assert_eq!(cell.publications(), 1);
    }

    #[test]
    fn cells_never_share_a_cache_entry() {
        // Two cells at the same publication count: reading one must not
        // hand back the other's epoch, and a nested read of the same cell
        // sees the same generation.
        let cell_of = |id| {
            EpochCell::new(ModelEpoch::new(
                id,
                model_of(&[(0, 0)]),
                DriftConfig::default(),
            ))
        };
        let (a, b) = (cell_of(7), cell_of(9));
        assert_eq!(a.with(|e| e.id), 7);
        assert_eq!(b.with(|e| e.id), 9);
        assert_eq!(a.with(|e| (e.id, b.with(|inner| inner.id))), (7, 9));
        assert_eq!(a.with(|e| (e.id, a.with(|inner| inner.id))), (7, 7));
    }

    #[test]
    fn retired_epoch_is_freed_after_readers_refresh() {
        let m0 = model_of(&[(0, 0)]);
        let e0 = ModelEpoch::new(0, m0, DriftConfig::default());
        let weak0 = Arc::downgrade(&e0);
        let cell = EpochCell::new(e0);
        cell.with(|_| ()); // this thread caches epoch 0
        cell.swap(ModelEpoch::new(1, model_of(&[(1, 1)]), DriftConfig::default()));
        assert!(
            weak0.upgrade().is_some(),
            "epoch 0 still pinned by this thread's cache"
        );
        cell.with(|_| ()); // refresh drops the pin
        assert!(
            weak0.upgrade().is_none(),
            "last reference gone => epoch reclaimed"
        );
    }

    #[test]
    fn swap_under_concurrent_readers_never_tears() {
        let cell = Arc::new(EpochCell::new(ModelEpoch::new(
            0,
            model_of(&[(0, 0), (0, 1)]),
            DriftConfig::default(),
        )));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        // The epoch a reader observes is internally
                        // consistent: its drift tracker was built for its
                        // model (state counts agree) and ids never go
                        // backwards.
                        let id = cell.with(|e| {
                            assert_eq!(e.drift.num_states(), e.model.num_states());
                            e.id
                        });
                        assert!(id >= last, "epochs are monotone per reader");
                        last = id;
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
