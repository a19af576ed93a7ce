//! Guidance circuit breaker: fail-open degradation for pathological
//! models.
//!
//! The paper's only robustness escape is the per-call `k`-retry gate
//! release. That bounds one thread's wait on one gate call, but a model
//! that is systematically wrong (corrupt file, stale profile, adverse
//! schedule) keeps paying the full retry budget on *every* call while
//! guidance adds no value. The breaker watches guidance health and, when
//! it degrades, swaps the gate to fail-open unguided execution — the
//! safe direction, because the gate is a pure scheduling hint: skipping
//! it can never violate STM correctness, only forfeit the variance win.
//!
//! Classic three-state machine:
//!
//! * **Closed** — guidance active. Per-thread watchdogs (consecutive
//!   released-gate and abort-streak counters) trip immediately on a
//!   starvation bound; windowed rates (released-gate share, abort
//!   share, off-model fraction from the live drift tracker) trip at
//!   window boundaries. Rate trips that blame the *model*
//!   (released-rate, off-model) are suppressed while the drift verdict
//!   is [`DriftVerdict::Fresh`] — a fresh model is not the culprit, and
//!   the breaker must never trip on one. Execution-health trips (abort
//!   storm, starvation) stay armed regardless.
//! * **Open** — fail-open: the gate passes every call unexamined. After
//!   `cooldown` gate calls the breaker moves to Half-Open.
//! * **Half-Open** — guidance is probed for `probe_window` calls; the
//!   probe re-closes only if the window was healthy *and* the drift
//!   verdict is Fresh (or Insufficient / absent — no evidence against
//!   the model); otherwise it re-opens for another cooldown.
//!
//! Transitions are serialized by a mutex (they are rare); the hot path
//! costs a handful of relaxed atomics per gate call and is only taken
//! when a breaker is attached at all.

use crate::drift::{DriftTracker, DriftVerdict};
use crate::sync::{Mutex, PerThread};
use crate::telemetry::Telemetry;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Breaker position. Codes are stable (telemetry gauge, trace events).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerState {
    /// Guidance active.
    Closed = 0,
    /// Failed open: gate bypassed.
    Open = 1,
    /// Probing guidance after a cooldown.
    HalfOpen = 2,
}

impl BreakerState {
    /// Stable numeric code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`BreakerState::code`].
    pub fn from_code(code: u8) -> BreakerState {
        match code {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Why a transition happened. Codes are stable (trace events).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerCause {
    /// Released-gate share of a window exceeded the bound.
    ReleasedRate = 0,
    /// Off-model transition fraction exceeded the bound.
    OffModel = 1,
    /// One thread hit the consecutive released-gate bound.
    Starvation = 2,
    /// Abort share of a window (or one thread's abort streak) exceeded
    /// the bound.
    AbortStorm = 3,
    /// A model file was rejected at load (checksum/format/thread-count).
    ModelRejected = 4,
    /// Cooldown elapsed (Open → Half-Open).
    Cooldown = 5,
    /// Half-open probe verdict (re-close or re-open).
    Probe = 6,
    /// An external overload controller (e.g. the server's degradation
    /// ladder) forced the breaker open to shed guidance cost.
    Overload = 7,
}

impl BreakerCause {
    /// Stable numeric code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            BreakerCause::ReleasedRate => "released-rate",
            BreakerCause::OffModel => "off-model",
            BreakerCause::Starvation => "starvation",
            BreakerCause::AbortStorm => "abort-storm",
            BreakerCause::ModelRejected => "model-rejected",
            BreakerCause::Cooldown => "cooldown",
            BreakerCause::Probe => "probe",
            BreakerCause::Overload => "overload",
        }
    }

    /// Label for a stable code (trace/report rendering).
    pub fn label_for(code: u8) -> &'static str {
        match code {
            0 => "released-rate",
            1 => "off-model",
            2 => "starvation",
            3 => "abort-storm",
            4 => "model-rejected",
            5 => "cooldown",
            6 => "probe",
            7 => "overload",
            _ => "unknown",
        }
    }
}

/// One observed transition, handed back to the caller so the gate owner
/// can react (e.g. publish the fail-open state word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerTransition {
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
    /// Why.
    pub cause: BreakerCause,
}

/// Thresholds and window sizes. Units are gate calls unless noted.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Gate calls per Closed-state evaluation window.
    pub window: u64,
    /// Trip when a window's released-gate share (percent) reaches this.
    pub max_released_pct: f64,
    /// Trip when the drift tracker's off-model fraction (percent)
    /// reaches this at a window boundary.
    pub max_off_model_pct: f64,
    /// Trip when a window's abort share (percent of attempts) reaches
    /// this.
    pub max_abort_pct: f64,
    /// Trip immediately when one thread suffers this many *consecutive*
    /// released gates.
    pub starvation_releases: u32,
    /// Trip immediately when one thread suffers this many consecutive
    /// aborts without a commit.
    pub abort_streak: u32,
    /// Gate calls spent Open before probing (Half-Open).
    pub cooldown: u64,
    /// Gate calls the Half-Open probe observes before judging.
    pub probe_window: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 512,
            max_released_pct: 50.0,
            max_off_model_pct: 60.0,
            max_abort_pct: 25.0,
            starvation_releases: 16,
            abort_streak: 64,
            cooldown: 512,
            probe_window: 256,
        }
    }
}

/// One thread's watchdog streaks; ids that alias onto one slot share
/// their streaks.
#[derive(Default)]
struct Watch {
    consec_released: AtomicU32,
    abort_streak: AtomicU32,
}

/// The circuit breaker. Shared (`Arc`) between the guided hook, the
/// adapt manager, and the harness.
pub struct Breaker {
    cfg: BreakerConfig,
    state: AtomicU32,
    /// Gate calls / released gates in the current Closed or Half-Open
    /// window.
    calls: AtomicU64,
    released: AtomicU64,
    /// Aborts / commits in the current window.
    win_aborts: AtomicU64,
    win_commits: AtomicU64,
    /// Gate calls since the breaker opened.
    open_calls: AtomicU64,
    watch: PerThread<Watch>,
    drift: Mutex<Option<Arc<DriftTracker>>>,
    transition: Mutex<()>,
    trips: AtomicU64,
    recloses: AtomicU64,
    probes: AtomicU64,
    model_rejections: AtomicU64,
    last_cause: AtomicU32,
    telemetry: Option<Arc<Telemetry>>,
}

impl Breaker {
    /// A closed breaker with the given thresholds; state changes are
    /// mirrored to `telemetry` when present.
    pub fn new(cfg: BreakerConfig, telemetry: Option<Arc<Telemetry>>) -> Breaker {
        Breaker {
            cfg,
            state: AtomicU32::new(BreakerState::Closed.code() as u32),
            calls: AtomicU64::new(0),
            released: AtomicU64::new(0),
            win_aborts: AtomicU64::new(0),
            win_commits: AtomicU64::new(0),
            open_calls: AtomicU64::new(0),
            watch: PerThread::default(),
            drift: Mutex::new(None),
            transition: Mutex::new(()),
            trips: AtomicU64::new(0),
            recloses: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            model_rejections: AtomicU64::new(0),
            last_cause: AtomicU32::new(0),
            telemetry: None,
        }
        .with_telemetry(telemetry)
    }

    fn with_telemetry(mut self, telemetry: Option<Arc<Telemetry>>) -> Breaker {
        self.telemetry = telemetry;
        self
    }

    /// The thresholds in force.
    pub fn config(&self) -> &BreakerConfig {
        &self.cfg
    }

    /// (Re-)attach the live drift tracker consulted at window
    /// boundaries. The adapt manager re-attaches on every hot-swap so
    /// the breaker always judges the epoch that is actually gating.
    pub fn attach_drift(&self, tracker: Arc<DriftTracker>) {
        *self.drift.lock() = Some(tracker);
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        BreakerState::from_code(self.state.load(Ordering::Acquire) as u8)
    }

    /// Whether the gate should bypass guidance (fail-open).
    #[inline]
    pub fn bypass(&self) -> bool {
        self.state.load(Ordering::Acquire) == BreakerState::Open.code() as u32
    }

    /// Closed/Half-Open → Open transitions so far.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Half-Open → Closed transitions so far.
    pub fn recloses(&self) -> u64 {
        self.recloses.load(Ordering::Relaxed)
    }

    /// Open → Half-Open transitions so far.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Model files rejected via [`Breaker::reject_model`].
    pub fn model_rejections(&self) -> u64 {
        self.model_rejections.load(Ordering::Relaxed)
    }

    /// Cause of the most recent transition.
    pub fn last_cause(&self) -> BreakerCause {
        match self.last_cause.load(Ordering::Relaxed) {
            0 => BreakerCause::ReleasedRate,
            1 => BreakerCause::OffModel,
            2 => BreakerCause::Starvation,
            3 => BreakerCause::AbortStorm,
            4 => BreakerCause::ModelRejected,
            5 => BreakerCause::Cooldown,
            7 => BreakerCause::Overload,
            _ => BreakerCause::Probe,
        }
    }

    /// Force the breaker open from outside the gate path (overload
    /// control). The gate fails open on the next call; recovery rides
    /// the ordinary cooldown → half-open → probe path, so a forced trip
    /// is indistinguishable from an organic one downstream. No-op if
    /// already open.
    pub fn force_open(&self) -> Option<BreakerTransition> {
        let state = self.state();
        if state == BreakerState::Open {
            return None;
        }
        self.transition_to(state, BreakerState::Open, BreakerCause::Overload)
    }

    /// Record one gate call and its outcome. Returns the transition it
    /// caused, if any — the caller owns the fail-open reaction (e.g.
    /// publishing the unknown state word).
    pub fn note_gate(&self, thread: usize, released: bool) -> Option<BreakerTransition> {
        let state = self.state();
        match state {
            BreakerState::Open => {
                let oc = self.open_calls.fetch_add(1, Ordering::Relaxed) + 1;
                if oc >= self.cfg.cooldown {
                    return self.transition_to(
                        BreakerState::Open,
                        BreakerState::HalfOpen,
                        BreakerCause::Cooldown,
                    );
                }
                None
            }
            BreakerState::Closed | BreakerState::HalfOpen => {
                let w = self.watch.get(thread);
                let streak = if released {
                    self.released.fetch_add(1, Ordering::Relaxed);
                    w.consec_released.fetch_add(1, Ordering::Relaxed) + 1
                } else {
                    w.consec_released.store(0, Ordering::Relaxed);
                    0
                };
                if streak >= self.cfg.starvation_releases {
                    return self.transition_to(state, BreakerState::Open, BreakerCause::Starvation);
                }
                let calls = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
                let win = if state == BreakerState::HalfOpen {
                    self.cfg.probe_window
                } else {
                    self.cfg.window
                };
                if calls >= win {
                    return self.evaluate_window(state);
                }
                None
            }
        }
    }

    /// Record an abort on `thread`.
    pub fn note_abort(&self, thread: usize) -> Option<BreakerTransition> {
        let state = self.state();
        if state == BreakerState::Open {
            return None;
        }
        self.win_aborts.fetch_add(1, Ordering::Relaxed);
        let w = self.watch.get(thread);
        let streak = w.abort_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= self.cfg.abort_streak {
            return self.transition_to(state, BreakerState::Open, BreakerCause::AbortStorm);
        }
        None
    }

    /// Record a commit on `thread` (resets its abort streak).
    pub fn note_commit(&self, thread: usize) {
        if self.state() == BreakerState::Open {
            return;
        }
        self.win_commits.fetch_add(1, Ordering::Relaxed);
        self.watch
            .get(thread)
            .abort_streak
            .store(0, Ordering::Relaxed);
    }

    /// A model file failed its integrity checks at load: count it and
    /// fail open so the run proceeds unguided.
    pub fn reject_model(&self) -> Option<BreakerTransition> {
        self.model_rejections.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_model_rejected();
        }
        let state = self.state();
        if state == BreakerState::Open {
            return None;
        }
        self.transition_to(state, BreakerState::Open, BreakerCause::ModelRejected)
    }

    /// Judge a completed Closed window or Half-Open probe.
    fn evaluate_window(&self, at: BreakerState) -> Option<BreakerTransition> {
        // Snapshot-and-reset; racing increments spill into the next
        // window, which only makes windows approximate, never wrong.
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let released = self.released.swap(0, Ordering::Relaxed);
        let aborts = self.win_aborts.swap(0, Ordering::Relaxed);
        let commits = self.win_commits.swap(0, Ordering::Relaxed);
        if calls == 0 {
            return None;
        }
        let released_pct = 100.0 * released as f64 / calls as f64;
        let abort_pct = if aborts + commits > 0 {
            100.0 * aborts as f64 / (aborts + commits) as f64
        } else {
            0.0
        };
        let report = self.drift.lock().as_ref().map(|d| d.report());
        let verdict = report.as_ref().map(|r| r.verdict);
        let off_model_pct = report.as_ref().map(|r| r.off_model_pct);
        match at {
            BreakerState::Closed => {
                // Execution health first: an abort storm means guidance
                // is not helping, whatever the model's own verdict.
                if abort_pct >= self.cfg.max_abort_pct {
                    return self.transition_to(at, BreakerState::Open, BreakerCause::AbortStorm);
                }
                // Model-health trips are suppressed on a Fresh verdict:
                // the breaker never trips on a fresh model.
                if verdict == Some(DriftVerdict::Fresh) {
                    return None;
                }
                if released_pct >= self.cfg.max_released_pct {
                    return self.transition_to(at, BreakerState::Open, BreakerCause::ReleasedRate);
                }
                if off_model_pct.is_some_and(|o| o >= self.cfg.max_off_model_pct) {
                    return self.transition_to(at, BreakerState::Open, BreakerCause::OffModel);
                }
                None
            }
            BreakerState::HalfOpen => {
                let model_ok = match verdict {
                    None | Some(DriftVerdict::Fresh) | Some(DriftVerdict::Insufficient) => true,
                    Some(DriftVerdict::Drifting) | Some(DriftVerdict::Stale) => false,
                };
                let healthy = released_pct < self.cfg.max_released_pct
                    && abort_pct < self.cfg.max_abort_pct
                    && off_model_pct.is_none_or(|o| o < self.cfg.max_off_model_pct)
                    && model_ok;
                if healthy {
                    self.transition_to(at, BreakerState::Closed, BreakerCause::Probe)
                } else {
                    self.transition_to(at, BreakerState::Open, BreakerCause::Probe)
                }
            }
            BreakerState::Open => None,
        }
    }

    /// Serialize and publish a state change; `None` if another thread
    /// already moved the breaker off `from`.
    fn transition_to(
        &self,
        from: BreakerState,
        to: BreakerState,
        cause: BreakerCause,
    ) -> Option<BreakerTransition> {
        let _g = self.transition.lock();
        if self.state() != from || from == to {
            return None;
        }
        self.state.store(to.code() as u32, Ordering::Release);
        self.last_cause.store(cause.code() as u32, Ordering::Relaxed);
        // Fresh books for the new state.
        self.calls.store(0, Ordering::Relaxed);
        self.released.store(0, Ordering::Relaxed);
        self.win_aborts.store(0, Ordering::Relaxed);
        self.win_commits.store(0, Ordering::Relaxed);
        self.open_calls.store(0, Ordering::Relaxed);
        for w in self.watch.iter() {
            w.consec_released.store(0, Ordering::Relaxed);
            w.abort_streak.store(0, Ordering::Relaxed);
        }
        match to {
            BreakerState::Open => {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::HalfOpen => {
                self.probes.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Closed => {
                self.recloses.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(t) = &self.telemetry {
            t.record_breaker_transition(from.code(), to.code(), cause.code());
        }
        Some(BreakerTransition { from, to, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GuidanceConfig;
    use crate::ids::{Pair, ThreadId, TxnId};
    use crate::tsa::{GuidedModel, Tsa};
    use crate::tss::StateKey;

    fn small_cfg() -> BreakerConfig {
        BreakerConfig {
            window: 16,
            max_released_pct: 50.0,
            max_off_model_pct: 60.0,
            max_abort_pct: 50.0,
            starvation_releases: 4,
            abort_streak: 6,
            cooldown: 8,
            probe_window: 8,
        }
    }

    /// A drift tracker over a small cyclic model, preloaded so its
    /// verdict is `v` (same fixture shape as the drift tests).
    fn tracker_with_verdict(v: DriftVerdict) -> Arc<DriftTracker> {
        let state = |i: u16| StateKey::solo(Pair::new(TxnId(0), ThreadId(i)));
        let mut run = Vec::new();
        for step in 0..2000u16 {
            run.push(state(if step % 13 == 5 { (step * 3 + 2) % 10 } else { step % 10 }));
        }
        let model = GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::default());
        let tracker = Arc::new(DriftTracker::new(&model));
        match v {
            DriftVerdict::Fresh => {
                // Replay the model's own profiled distribution exactly.
                let tsa = model.tsa();
                for id in tsa.state_ids() {
                    for &(dst, f) in tsa.outbound(id) {
                        for _ in 0..f {
                            tracker.record(id.0, dst.0);
                        }
                    }
                }
            }
            DriftVerdict::Stale => {
                // Everything leaves the modeled edge set.
                for _ in 0..200 {
                    tracker.record(0, crate::telemetry::UNKNOWN_STATE);
                }
            }
            _ => {}
        }
        assert_eq!(tracker.report().verdict, v, "fixture verdict");
        tracker
    }

    fn drain_window(b: &Breaker, released: bool) -> Option<BreakerTransition> {
        // Drive exactly one full Closed window of gate calls.
        let mut tr = None;
        for i in 0..b.config().window {
            // Spread across threads so no starvation streak forms.
            let t = (i % 8) as usize;
            if let Some(x) = b.note_gate(t, released) {
                tr = Some(x);
            }
        }
        tr
    }

    #[test]
    fn trips_on_released_rate_and_counts() {
        let b = Breaker::new(small_cfg(), None);
        assert_eq!(b.state(), BreakerState::Closed);
        let tr = drain_window(&b, true).expect("must trip");
        // With starvation_releases=4 the per-thread streak fires first;
        // either cause is a legitimate released-storm trip.
        assert_eq!(tr.to, BreakerState::Open);
        assert!(matches!(
            tr.cause,
            BreakerCause::ReleasedRate | BreakerCause::Starvation
        ));
        assert_eq!(b.trips(), 1);
        assert!(b.bypass());
    }

    #[test]
    fn released_rate_trip_without_starvation() {
        // Alternate released/passed across many threads: 50% released
        // rate, no streak ever reaches 4.
        let b = Breaker::new(small_cfg(), None);
        let mut tr = None;
        for i in 0..small_cfg().window {
            if let Some(x) = b.note_gate((i % 16) as usize, i % 2 == 0) {
                tr = Some(x);
            }
        }
        let tr = tr.expect("50% released must trip at the window boundary");
        assert_eq!(tr.cause, BreakerCause::ReleasedRate);
    }

    #[test]
    fn quiet_window_stays_closed() {
        let b = Breaker::new(small_cfg(), None);
        for _ in 0..4 {
            assert!(drain_window(&b, false).is_none());
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn half_open_probe_exhausts_exactly_at_the_cooldown_boundary() {
        let cfg = small_cfg();
        let b = Breaker::new(cfg, None);
        // Trip via the starvation watchdog (4 consecutive releases).
        for _ in 0..4 {
            b.note_gate(3, true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // The first cooldown-1 Open calls must NOT open the probe.
        for i in 0..cfg.cooldown - 1 {
            assert!(
                b.note_gate(i as usize % 8, false).is_none(),
                "call {i} left Open before the cooldown boundary"
            );
            assert_eq!(b.state(), BreakerState::Open);
        }
        // The boundary call itself flips to Half-Open.
        let tr = b.note_gate(0, false).expect("cooldown boundary opens the probe");
        assert_eq!((tr.from, tr.to), (BreakerState::Open, BreakerState::HalfOpen));
        assert_eq!(tr.cause, BreakerCause::Cooldown);
        assert_eq!(b.probes(), 1);
        // Exhaust the probe window with unhealthy traffic (every call
        // released, rotated across threads so no starvation streak can
        // fire first): the judgement lands exactly on the last probe
        // call, not a moment earlier.
        for i in 0..cfg.probe_window - 1 {
            assert!(
                b.note_gate(i as usize % 8, true).is_none(),
                "probe judged early at call {i}"
            );
            assert_eq!(b.state(), BreakerState::HalfOpen);
        }
        let tr = b
            .note_gate((cfg.probe_window - 1) as usize % 8, true)
            .expect("full probe window must be judged");
        assert_eq!(
            (tr.from, tr.to),
            (BreakerState::HalfOpen, BreakerState::Open),
            "an all-released probe re-opens"
        );
        assert_eq!(b.trips(), 2);
        // Second cooldown, then a healthy probe: re-close, counted.
        for i in 0..cfg.cooldown - 1 {
            assert!(b.note_gate(i as usize % 8, false).is_none());
        }
        let tr = b.note_gate(0, false).expect("second cooldown boundary");
        assert_eq!(tr.to, BreakerState::HalfOpen);
        for i in 0..cfg.probe_window - 1 {
            assert!(b.note_gate(i as usize % 8, false).is_none());
        }
        let tr = b
            .note_gate((cfg.probe_window - 1) as usize % 8, false)
            .expect("healthy probe window must be judged");
        assert_eq!(tr.to, BreakerState::Closed, "healthy probe re-closes");
        assert_eq!(b.probes(), 2);
        assert_eq!(b.recloses(), 1);
    }

    #[test]
    fn starvation_watchdog_trips_immediately() {
        let b = Breaker::new(small_cfg(), None);
        let mut tr = None;
        for _ in 0..4 {
            tr = tr.or(b.note_gate(3, true));
        }
        let tr = tr.expect("4 consecutive releases on one thread must trip");
        assert_eq!(tr.cause, BreakerCause::Starvation);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn abort_streak_trips_and_commit_resets() {
        let b = Breaker::new(small_cfg(), None);
        for _ in 0..5 {
            assert!(b.note_abort(1).is_none());
        }
        b.note_commit(1); // resets the streak
        for _ in 0..5 {
            assert!(b.note_abort(1).is_none());
        }
        let tr = b.note_abort(1).expect("6th consecutive abort must trip");
        assert_eq!(tr.cause, BreakerCause::AbortStorm);
    }

    #[test]
    fn abort_rate_trips_at_window_boundary() {
        let b = Breaker::new(small_cfg(), None);
        // 60% abort share spread over threads (no streak), quiet gates.
        for i in 0..30 {
            b.note_abort(i % 8);
            if i % 3 == 0 {
                b.note_commit(i % 8);
            }
        }
        let tr = drain_window(&b, false).expect("abort share must trip");
        assert_eq!(tr.cause, BreakerCause::AbortStorm);
    }

    #[test]
    fn never_trips_on_fresh_model() {
        let b = Breaker::new(small_cfg(), None);
        b.attach_drift(tracker_with_verdict(DriftVerdict::Fresh));
        // 100% released rate — far past max_released_pct — but spread
        // so the starvation watchdog stays quiet.
        let mut tr = None;
        for i in 0..(small_cfg().window * 4) {
            if let Some(x) = b.note_gate((i % 64) as usize, true) {
                tr = Some(x);
            }
        }
        assert!(
            tr.is_none(),
            "model-health trips must be suppressed on a Fresh verdict: {tr:?}"
        );
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn off_model_fraction_trips_when_stale() {
        let b = Breaker::new(small_cfg(), None);
        b.attach_drift(tracker_with_verdict(DriftVerdict::Stale));
        let tr = drain_window(&b, false).expect("off-model fraction must trip");
        assert_eq!(tr.cause, BreakerCause::OffModel);
    }

    #[test]
    fn cooldown_then_half_open_then_reclose() {
        let b = Breaker::new(small_cfg(), None);
        b.reject_model().expect("rejection trips");
        assert!(b.bypass());
        // Cooldown: 8 open gate calls move it to Half-Open.
        let mut tr = None;
        for _ in 0..8 {
            tr = tr.or(b.note_gate(0, false));
        }
        assert_eq!(tr.unwrap().to, BreakerState::HalfOpen);
        assert_eq!(b.probes(), 1);
        assert!(!b.bypass(), "half-open probes guidance again");
        // A healthy probe window (no releases, no aborts) re-closes.
        b.attach_drift(tracker_with_verdict(DriftVerdict::Fresh));
        let mut tr = None;
        for i in 0..8 {
            tr = tr.or(b.note_gate(i % 8, false));
        }
        let tr = tr.expect("probe window must judge");
        assert_eq!((tr.to, tr.cause), (BreakerState::Closed, BreakerCause::Probe));
        assert_eq!(b.recloses(), 1);
    }

    #[test]
    fn unhealthy_probe_reopens() {
        let b = Breaker::new(small_cfg(), None);
        b.reject_model();
        for _ in 0..8 {
            b.note_gate(0, false);
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe window full of released gates (spread to avoid the
        // starvation fast path — we want the windowed judgment).
        let mut tr = None;
        for i in 0..8 {
            tr = tr.or(b.note_gate(i % 8, true));
        }
        let tr = tr.expect("probe window must judge");
        assert_eq!((tr.to, tr.cause), (BreakerState::Open, BreakerCause::Probe));
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn stale_model_blocks_reclose() {
        let b = Breaker::new(small_cfg(), None);
        b.attach_drift(tracker_with_verdict(DriftVerdict::Stale));
        b.reject_model();
        for _ in 0..8 {
            b.note_gate(0, false);
        }
        // Quiet probe, but the verdict says Stale → re-open.
        let mut tr = None;
        for i in 0..8 {
            tr = tr.or(b.note_gate(i % 8, false));
        }
        assert_eq!(tr.unwrap().to, BreakerState::Open);
    }

    #[test]
    fn model_rejection_counts_and_is_idempotent_when_open() {
        let b = Breaker::new(small_cfg(), None);
        assert!(b.reject_model().is_some());
        assert!(b.reject_model().is_none(), "already open");
        assert_eq!(b.model_rejections(), 2);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_state_ignores_abort_and_commit_books() {
        let b = Breaker::new(small_cfg(), None);
        b.reject_model();
        for _ in 0..100 {
            assert!(b.note_abort(0).is_none());
            b.note_commit(0);
        }
        assert_eq!(b.state(), BreakerState::Open);
    }
}
