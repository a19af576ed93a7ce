//! The small-step operational model of the guidance protocol.
//!
//! Each step is one atomic action on the shared words the real
//! implementation touches. The atomicity coarsening relative to the real
//! code is documented per phase below and in DESIGN.md §15; every monitor
//! (safety invariant or bounded-liveness bound) is evaluated inside the
//! step that could break it, so a violation is attached to the exact
//! `(agent, step)` that caused it and a schedule prefix reproduces it.
//!
//! The machine is a *pure function*: `step(agent)` on equal states yields
//! equal results, which is what makes counterexample schedules replayable
//! bit-identically and lets the explorer memoize on state identity.
//!
//! ## Agents and phases
//!
//! Workers `0..threads` each run `windows` transaction windows; window `w`
//! commits the pair `(w % txns, t)`. A window scripted to abort (bit
//! `t*windows+w` of `abort_mask`) aborts once, re-gates, then commits —
//! the same shape the PR 4 replay harness drives. Agent id `threads` is
//! the model manager: each of its `swaps` steps rebuilds a model from the
//! recorded Tseq and publishes a new generation (one step, faithful to the
//! real install-then-bump ordering, under which no reader can observe a
//! generation without its model).
//!
//! Per window a worker takes these steps:
//!
//! 1. **GateEntry** — the breaker bypass check plus the epoch resolution
//!    (`EpochCell::with`). Coarsened to one step: the interleavings this
//!    hides cannot affect any checked invariant (both halves only load
//!    shared state — the epoch cache they may refill is thread-local;
//!    the outcome partition, automaton and tag invariants are insensitive
//!    to a trip landing between them).
//! 2. **GateCheck** × (≤ `k_retries` + 1) — one load of the current word
//!    per step, mirroring `GuidedHook::gate_with`: an allowed word
//!    resolves Passed (first check) or Waited (later); the check after the
//!    retry budget is the *final re-examination* that resolves Waited or
//!    Released. The real spin/backoff loop between checks is not modeled —
//!    the scheduler choosing when the next check runs covers every
//!    possible wait duration.
//! 3. **AbortStep** (scripted) — push into the thread's abort shard and
//!    notify the breaker, then re-gate.
//! 4. **CommitEntry** — re-resolve the epoch (the commit path does its own
//!    `EpochCell::with`).
//! 5. **CommitApply** — drain all shards into a [`StateKey`], append to
//!    the recorded Tseq, classify under the pinned epoch's model, store
//!    the packed `(epoch, state)` current word, notify the breaker. This
//!    is the mutex-serialized section of the real `StateTracker::commit_with`
//!    plus the adjacent word store; a hot-swap can land between
//!    CommitEntry and CommitApply, which is exactly the race the
//!    `TornEpochTag` monitor watches.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use super::Mutation;
use crate::adapt::{pack_state, unpack_state};
use crate::config::GuidanceConfig;
use crate::ids::{Pair, ThreadId, TxnId};
use crate::tsa::{GuidedModel, StateId, Tsa};
use crate::tss::StateKey;

/// Unknown state id (mirrors `guidance::UNKNOWN`).
pub(crate) const UNKNOWN: u32 = u32::MAX;
/// Current word naming "unknown under epoch 0" (mirrors the hook's
/// fail-open store).
const UNKNOWN_WORD: u64 = UNKNOWN as u64;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Breaker thresholds for the model machine — the integer-scale mirror of
/// [`crate::breaker::BreakerConfig`] (no drift tracker is attached, so the
/// off-model checks are inert, as they are on a hook without drift).
#[derive(Clone, Copy, Debug)]
pub struct MckBreakerConfig {
    /// Gate calls per Closed evaluation window.
    pub(crate) window: u64,
    /// Trip when a window's released share (percent) reaches this.
    pub(crate) max_released_pct: f64,
    /// Trip when a window's abort share (percent) reaches this.
    pub(crate) max_abort_pct: f64,
    /// Trip on this many consecutive releases on one thread.
    pub(crate) starvation_releases: u32,
    /// Trip on this many consecutive aborts without a commit.
    pub(crate) abort_streak: u32,
    /// Gate calls spent Open before probing.
    pub(crate) cooldown: u64,
    /// Gate calls the Half-Open probe observes before judging.
    pub(crate) probe_window: u64,
}

impl Default for MckBreakerConfig {
    /// Small-model thresholds: every state of the automaton is reachable
    /// within a handful of gate calls, so a 3-thread × 2-window run
    /// exercises trips, cooldowns, probes and re-closes.
    fn default() -> Self {
        MckBreakerConfig {
            window: 4,
            max_released_pct: 50.0,
            max_abort_pct: 75.0,
            starvation_releases: 2,
            abort_streak: 3,
            cooldown: 1,
            probe_window: 1,
        }
    }
}

/// A bounded configuration of the protocol to explore exhaustively.
#[derive(Clone, Debug)]
pub struct MckConfig {
    /// Worker (logical) threads. At most 16 (footprint bitmask width).
    pub threads: u16,
    /// Committed windows per worker.
    pub windows: u16,
    /// Transaction-site alphabet size; window `w` commits `(w % txns, t)`.
    pub txns: u16,
    /// Gate retry budget (the final re-examination is one more check).
    pub k_retries: u32,
    /// Bit `t*windows + w` set ⇒ worker `t`'s window `w` aborts once
    /// before committing.
    pub abort_mask: u64,
    /// Model-manager hot-swap ops (0 = adaptive path disabled).
    pub swaps: u32,
    /// Breaker automaton (None = breaker disabled).
    pub breaker: Option<MckBreakerConfig>,
    /// Tfactor for the seed model and every rebuilt epoch.
    pub tfactor: f64,
    /// The flipped protocol decision, if any.
    pub mutation: Option<Mutation>,
}

impl Default for MckConfig {
    fn default() -> Self {
        MckConfig {
            threads: 3,
            windows: 2,
            txns: 1,
            k_retries: 1,
            abort_mask: 0b1,
            swaps: 1,
            breaker: Some(MckBreakerConfig::default()),
            tfactor: 4.0,
            mutation: None,
        }
    }
}

impl MckConfig {
    /// The CI configuration: 3 threads × 2 windows with guidance, breaker
    /// and hot-swap all enabled (the acceptance configuration).
    pub fn ci() -> Self {
        MckConfig::default()
    }

    /// Validate bounds the machine's packing relies on.
    pub fn validate(&self) -> Result<(), String> {
        let ok = self.threads >= 1
            && self.threads <= 16
            && self.windows >= 1
            && self.windows <= 8
            && self.txns >= 1
            && self.k_retries >= 1
            && self.k_retries <= 8
            && self.swaps <= 8;
        if !ok {
            return Err(format!(
                "config out of model bounds (threads 1..=16, windows 1..=8, txns >= 1, \
                 k 1..=8, swaps <= 8): {self:?}"
            ));
        }
        if let Some(b) = &self.breaker {
            if b.window == 0 || b.probe_window == 0 || b.cooldown == 0 {
                return Err("breaker windows/cooldown must be >= 1".into());
            }
            if b.starvation_releases == 0 || b.abort_streak == 0 {
                return Err("breaker streak thresholds must be >= 1".into());
            }
        }
        Ok(())
    }

    /// Total schedulable agents (workers plus the manager when swaps > 0).
    fn agents(&self) -> u16 {
        self.threads + (self.swaps > 0) as u16
    }

    /// The manager's agent id, when the adaptive path is enabled.
    pub fn manager_agent(&self) -> Option<u16> {
        (self.swaps > 0).then_some(self.threads)
    }

    /// The pair worker `t` commits in window `w`.
    pub fn who(&self, t: u16, w: u16) -> Pair {
        Pair::new(TxnId(w % self.txns), ThreadId(t))
    }

    fn wants_abort(&self, t: u16, w: u16) -> bool {
        let bit = t as u32 * self.windows as u32 + w as u32;
        bit < 64 && self.abort_mask >> bit & 1 != 0
    }

    fn guidance(&self) -> GuidanceConfig {
        GuidanceConfig { tfactor: self.tfactor, ..GuidanceConfig::default() }
    }

    /// The deterministic seed model: a strictly cyclic training run over
    /// the worker pair alphabet, so state "after thread t committed"
    /// allows only thread `t+1 (mod threads)` — the gate genuinely
    /// blocks, releases and waits in the explored space.
    pub fn seed_model(&self) -> Arc<GuidedModel> {
        let mut run = Vec::new();
        for round in 0..(2 * self.txns.max(1)) {
            for t in 0..self.threads {
                run.push(StateKey::solo(self.who(t, round)));
            }
        }
        Arc::new(GuidedModel::build(Tsa::from_runs(&[run]), &self.guidance()))
    }
}

// ---------------------------------------------------------------------------
// Violations
// ---------------------------------------------------------------------------

/// What broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// A gate released a pair the current word actually allowed — the
    /// release was not preceded by a final re-examination.
    ReleasedWhileAllowed,
    /// A gate call examined the word more than `k_retries + 1` times —
    /// the k-retry release failed to fire.
    GateUnbounded,
    /// The breaker took an edge outside {C→O, O→H, H→C, H→O}.
    IllegalBreakerTransition,
    /// Half-Open accumulated more than `probe_window` calls without
    /// being judged.
    HalfOpenStuck,
    /// The current word is tagged with a generation that was never
    /// published.
    UnpublishedEpoch,
    /// The current word's state id is not the id the tagged epoch's model
    /// assigns to the committed key — a torn old/new model read.
    TornEpochTag,
    /// Gate outcome counters do not partition the resolved call count.
    OutcomePartition,
}

impl ViolationKind {
    /// Stable name for schedule files and reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::ReleasedWhileAllowed => "released-while-allowed",
            ViolationKind::GateUnbounded => "gate-unbounded",
            ViolationKind::IllegalBreakerTransition => "illegal-breaker-transition",
            ViolationKind::HalfOpenStuck => "half-open-stuck",
            ViolationKind::UnpublishedEpoch => "unpublished-epoch",
            ViolationKind::TornEpochTag => "torn-epoch-tag",
            ViolationKind::OutcomePartition => "outcome-partition",
        }
    }

    /// Inverse of [`ViolationKind::name`].
    pub(crate) fn parse(s: &str) -> Option<ViolationKind> {
        [
            ViolationKind::ReleasedWhileAllowed,
            ViolationKind::GateUnbounded,
            ViolationKind::IllegalBreakerTransition,
            ViolationKind::HalfOpenStuck,
            ViolationKind::UnpublishedEpoch,
            ViolationKind::TornEpochTag,
            ViolationKind::OutcomePartition,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// An invariant breach, attached to the exact step that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant.
    pub kind: ViolationKind,
    /// The agent whose step surfaced it.
    pub agent: u16,
    /// Machine step count at the violating step (1-based).
    pub step: u32,
    /// Human-readable specifics (deterministic, so replays compare equal).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Footprints
// ---------------------------------------------------------------------------

/// Shared-word footprint of one step, as read/write bitmasks. Bits:
/// current word, EpochCell generation, breaker word, recorded Tseq, then
/// one bit per abort shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Words read.
    reads: u32,
    /// Words written.
    writes: u32,
}

/// The packed current-state word.
const W_CUR: u32 = 1 << 0;
/// The EpochCell generation counter (and the published model list).
const W_GEN: u32 = 1 << 1;
/// The breaker's state + window counters (coarsened to one word).
const W_BRK: u32 = 1 << 2;
/// The recorded Tseq / sliding window.
const W_REC: u32 = 1 << 3;

/// The abort shard of worker `t`.
fn w_shard(t: u16) -> u32 {
    1 << (4 + t as u32)
}

impl Footprint {
    fn read(&mut self, w: u32) {
        self.reads |= w;
    }

    fn write(&mut self, w: u32) {
        self.writes |= w;
    }

    /// Two steps conflict (are dependent) iff one writes a word the other
    /// touches. Disjoint footprints commute *and* leave each other's
    /// footprint unchanged, which is the property the sleep-set and
    /// persistent-singleton pruning rely on.
    pub(crate) fn conflicts(&self, other: &Footprint) -> bool {
        (self.writes & (other.reads | other.writes)) != 0
            || (other.writes & (self.reads | self.writes)) != 0
    }

    fn union(&mut self, other: &Footprint) {
        self.reads |= other.reads;
        self.writes |= other.writes;
    }
}

// ---------------------------------------------------------------------------
// Breaker model
// ---------------------------------------------------------------------------

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

fn breaker_state_name(s: u8) -> &'static str {
    match s {
        CLOSED => "Closed",
        OPEN => "Open",
        _ => "HalfOpen",
    }
}

/// Integer mirror of [`crate::breaker::Breaker`] (verdict-less: no drift
/// tracker attached). The conformance suite drives a real `Breaker` in
/// lockstep with this model to pin the mirroring.
#[derive(Clone, PartialEq)]
struct BreakerModel {
    state: u8,
    calls: u64,
    released: u64,
    win_aborts: u64,
    win_commits: u64,
    open_calls: u64,
    consec_released: Vec<u32>,
    abort_streaks: Vec<u32>,
    trips: u32,
    probes: u32,
    recloses: u32,
}

/// A transition the breaker model took: `(from, to, cause)`.
type BreakerEdge = (u8, u8, &'static str);

impl BreakerModel {
    fn new(threads: u16) -> Self {
        BreakerModel {
            state: CLOSED,
            calls: 0,
            released: 0,
            win_aborts: 0,
            win_commits: 0,
            open_calls: 0,
            consec_released: vec![0; threads as usize],
            abort_streaks: vec![0; threads as usize],
            trips: 0,
            probes: 0,
            recloses: 0,
        }
    }

    fn bypass(&self) -> bool {
        self.state == OPEN
    }

    fn transition_to(&mut self, to: u8, cause: &'static str) -> Option<BreakerEdge> {
        let from = self.state;
        if from == to {
            return None;
        }
        self.state = to;
        self.calls = 0;
        self.released = 0;
        self.win_aborts = 0;
        self.win_commits = 0;
        self.open_calls = 0;
        self.consec_released.iter_mut().for_each(|c| *c = 0);
        self.abort_streaks.iter_mut().for_each(|c| *c = 0);
        match to {
            OPEN => self.trips += 1,
            HALF_OPEN => self.probes += 1,
            _ => self.recloses += 1,
        }
        Some((from, to, cause))
    }

    /// Mirror of `Breaker::note_gate`. `mutation` flips the cooldown
    /// target (TwoRungClose) or suppresses the probe judgment
    /// (ProbeNoJudge).
    fn note_gate(
        &mut self,
        thread: u16,
        released: bool,
        cfg: &MckBreakerConfig,
        mutation: Option<Mutation>,
    ) -> Option<BreakerEdge> {
        match self.state {
            OPEN => {
                self.open_calls += 1;
                if self.open_calls >= cfg.cooldown {
                    // MUTATION two-rung-close: jump straight back to
                    // Closed, skipping the Half-Open probe.
                    let to = if mutation == Some(Mutation::TwoRungClose) {
                        CLOSED
                    } else {
                        HALF_OPEN
                    };
                    return self.transition_to(to, "cooldown");
                }
                None
            }
            state => {
                let streak = if released {
                    self.released += 1;
                    self.consec_released[thread as usize] += 1;
                    self.consec_released[thread as usize]
                } else {
                    self.consec_released[thread as usize] = 0;
                    0
                };
                if streak >= cfg.starvation_releases {
                    return self.transition_to(OPEN, "starvation");
                }
                self.calls += 1;
                let win =
                    if state == HALF_OPEN { cfg.probe_window } else { cfg.window };
                if self.calls >= win {
                    // MUTATION probe-no-judge: the Half-Open probe window
                    // fills but the judgment never runs.
                    if state == HALF_OPEN && mutation == Some(Mutation::ProbeNoJudge) {
                        return None;
                    }
                    return self.evaluate_window(cfg);
                }
                None
            }
        }
    }

    /// Mirror of `Breaker::evaluate_window` with no drift report.
    fn evaluate_window(&mut self, cfg: &MckBreakerConfig) -> Option<BreakerEdge> {
        let calls = std::mem::take(&mut self.calls);
        let released = std::mem::take(&mut self.released);
        let aborts = std::mem::take(&mut self.win_aborts);
        let commits = std::mem::take(&mut self.win_commits);
        if calls == 0 {
            return None;
        }
        let released_pct = 100.0 * released as f64 / calls as f64;
        let abort_pct = if aborts + commits > 0 {
            100.0 * aborts as f64 / (aborts + commits) as f64
        } else {
            0.0
        };
        match self.state {
            CLOSED => {
                if abort_pct >= cfg.max_abort_pct {
                    return self.transition_to(OPEN, "abort-storm");
                }
                if released_pct >= cfg.max_released_pct {
                    return self.transition_to(OPEN, "released-rate");
                }
                None
            }
            HALF_OPEN => {
                let healthy =
                    released_pct < cfg.max_released_pct && abort_pct < cfg.max_abort_pct;
                if healthy {
                    self.transition_to(CLOSED, "probe")
                } else {
                    self.transition_to(OPEN, "probe")
                }
            }
            _ => None,
        }
    }

    /// Mirror of `Breaker::note_abort`.
    fn note_abort(&mut self, thread: u16, cfg: &MckBreakerConfig) -> Option<BreakerEdge> {
        if self.state == OPEN {
            return None;
        }
        self.win_aborts += 1;
        self.abort_streaks[thread as usize] += 1;
        if self.abort_streaks[thread as usize] >= cfg.abort_streak {
            return self.transition_to(OPEN, "abort-storm");
        }
        None
    }

    /// Mirror of `Breaker::note_commit`.
    fn note_commit(&mut self, thread: u16) {
        if self.state == OPEN {
            return;
        }
        self.win_commits += 1;
        self.abort_streaks[thread as usize] = 0;
    }

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(
            self.state as u64
                | self.calls << 8
                | self.released << 20
                | self.win_aborts << 32
                | self.win_commits << 44,
        );
        out.push(self.open_calls);
        let mut packed = 0u64;
        for (i, (&c, &a)) in
            self.consec_released.iter().zip(&self.abort_streaks).enumerate()
        {
            packed ^= ((c.min(255) as u64) | (a.min(255) as u64) << 8)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ (i as u64) << 1 | 1);
        }
        out.push(packed);
    }
}

// ---------------------------------------------------------------------------
// Machine state
// ---------------------------------------------------------------------------

/// Where a worker is inside its current window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    GateEntry,
    GateCheck,
    AbortStep,
    CommitEntry,
    CommitApply,
    Done,
}

impl Phase {
    fn code(self) -> u64 {
        match self {
            Phase::GateEntry => 0,
            Phase::GateCheck => 1,
            Phase::AbortStep => 2,
            Phase::CommitEntry => 3,
            Phase::CommitApply => 4,
            Phase::Done => 5,
        }
    }
}

#[derive(Clone, PartialEq)]
struct ThreadCtx {
    window: u16,
    phase: Phase,
    must_abort: bool,
    /// Epoch pinned at GateEntry / CommitEntry.
    pinned: u32,
    /// Current-word examinations this gate call has performed.
    checks: u32,
    gate_waited: bool,
}

/// Rebuilt-model cache shared by every state cloned from one `initial`:
/// the model a swap installs is a pure function of the recorded Tseq, so
/// identical windows across branches reuse one build. Keyed by
/// `(chain-hash, len)` of the window.
type SwapCache = Arc<Mutex<HashMap<(u64, usize), Arc<GuidedModel>>>>;

/// One atomic step's result: the successor state, the violation the step
/// surfaced (if any — the path ends there), and the exact shared-word
/// footprint the step touched (monitors included), which is what the
/// POR dependency relation keys on.
pub struct StepEffect {
    /// Post-state.
    pub state: MachineState,
    /// Invariant breach attached to this step, if any.
    pub violation: Option<Violation>,
    /// Exact words read/written by this step.
    pub(crate) footprint: Footprint,
}

/// A reachable state of the protocol model. Clone is cheap-ish (small
/// vectors + Arc bumps); equality for exploration purposes is via
/// `MachineState::encode`.
#[derive(Clone)]
pub struct MachineState {
    cfg: Arc<MckConfig>,
    threads: Vec<ThreadCtx>,
    swaps_left: u32,
    /// Packed (epoch, state) current word.
    current: u64,
    /// Published generations; index = epoch id.
    epochs: Vec<Arc<GuidedModel>>,
    /// Fingerprint of each epoch's training sequence (for state identity).
    epoch_sigs: Vec<u64>,
    /// Committed Tseq (also the rebuild window — no cap at model scale).
    recorded: Vec<StateKey>,
    /// Per-thread pending-abort shards.
    shards: Vec<Vec<Pair>>,
    breaker: Option<BreakerModel>,
    cache: SwapCache,
    /// Gate outcome counters (bookkeeping; excluded from state identity —
    /// nothing in the protocol reads them back).
    pub passed: u64,
    /// Waited-outcome count.
    pub waited: u64,
    /// Released-outcome count.
    pub released: u64,
    /// Gate calls started.
    pub gate_calls: u64,
    /// Steps taken along the path that produced this state (bookkeeping).
    steps: u32,
}

/// Chain-hash of a key sequence (for epoch signatures and cache keys).
fn seq_sig(keys: &[StateKey]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for k in keys {
        h = (h ^ k.hash64()).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl MachineState {
    /// The initial state: seed model published as epoch 0, every worker
    /// at its first gate, breaker Closed, empty Tseq.
    pub fn initial(cfg: &MckConfig) -> MachineState {
        cfg.validate().expect("invalid mck config");
        let threads = (0..cfg.threads)
            .map(|t| ThreadCtx {
                window: 0,
                phase: Phase::GateEntry,
                must_abort: cfg.wants_abort(t, 0),
                pinned: 0,
                checks: 0,
                gate_waited: false,
            })
            .collect();
        MachineState {
            threads,
            swaps_left: cfg.swaps,
            current: UNKNOWN_WORD,
            epochs: vec![cfg.seed_model()],
            epoch_sigs: vec![0x5eed],
            recorded: Vec::new(),
            shards: vec![Vec::new(); cfg.threads as usize],
            breaker: cfg.breaker.as_ref().map(|_| BreakerModel::new(cfg.threads)),
            cache: Arc::new(Mutex::new(HashMap::new())),
            cfg: Arc::new(cfg.clone()),
            passed: 0,
            waited: 0,
            released: 0,
            gate_calls: 0,
            steps: 0,
        }
    }

    /// The latest published generation id.
    pub fn generation(&self) -> u32 {
        (self.epochs.len() - 1) as u32
    }

    /// The current word's `(epoch, state)` tag.
    pub fn current_tag(&self) -> (u32, u32) {
        unpack_state(self.current)
    }

    /// The recorded Tseq so far.
    pub fn recorded(&self) -> &[StateKey] {
        &self.recorded
    }

    /// Hot-swaps performed so far.
    pub fn swaps_done(&self) -> u32 {
        self.cfg.swaps - self.swaps_left
    }

    /// Whether agent `a`'s next step exists. Workers block on nothing;
    /// the manager is enabled once there is a window to rebuild from.
    pub(crate) fn enabled(&self, agent: u16) -> bool {
        if let Some(t) = self.threads.get(agent as usize) {
            return t.phase != Phase::Done;
        }
        agent == self.cfg.threads && self.swaps_left > 0 && !self.recorded.is_empty()
    }

    /// All enabled agents, ascending.
    pub fn enabled_agents(&self) -> Vec<u16> {
        (0..self.cfg.agents()).filter(|&a| self.enabled(a)).collect()
    }

    /// Agents that may still take steps in the future (enabled now or
    /// temporarily blocked — the manager waiting for a first commit).
    pub(crate) fn live_agents(&self) -> Vec<u16> {
        (0..self.cfg.agents())
            .filter(|&a| {
                if let Some(t) = self.threads.get(a as usize) {
                    t.phase != Phase::Done
                } else {
                    self.swaps_left > 0
                }
            })
            .collect()
    }

    /// A complete (maximal) execution: nothing can move.
    fn is_complete(&self) -> bool {
        self.enabled_agents().is_empty()
    }

    /// Stable identity for exploration: everything behavior-relevant. The
    /// recorded Tseq and epoch lineage are folded into chain-hashes
    /// (hash-compaction, as in SPIN's `-DHC`): a collision would merge two
    /// distinct states, with probability ~|states|²/2⁶⁴ — negligible at
    /// model scale and documented in DESIGN.md §15.
    pub(crate) fn encode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.threads.len() + 6);
        for t in &self.threads {
            out.push(
                (t.window as u64) << 48
                    | t.phase.code() << 44
                    | (t.must_abort as u64) << 43
                    | (t.gate_waited as u64) << 42
                    | (t.checks as u64) << 32
                    | t.pinned as u64,
            );
        }
        out.push(self.swaps_left as u64);
        out.push(self.current);
        out.push(seq_sig(&self.recorded) ^ (self.recorded.len() as u64) << 1);
        let mut esig = 0u64;
        for (i, s) in self.epoch_sigs.iter().enumerate() {
            esig ^= s.wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ (i as u64) << 1 | 1);
        }
        out.push(esig ^ (self.epoch_sigs.len() as u64) << 32);
        let mut shard_sig = 0u64;
        for (i, s) in self.shards.iter().enumerate() {
            shard_sig ^= (seq_sig_pairs(s) ^ (s.len() as u64) << 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ (i as u64) << 1 | 1);
        }
        out.push(shard_sig);
        if let Some(b) = &self.breaker {
            b.encode(&mut out);
        }
        out
    }

    /// 64-bit fingerprint of [`MachineState::encode`] (for trace
    /// fingerprint chains).
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in self.encode() {
            h = (h ^ w).wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    // -- step execution ----------------------------------------------------

    /// Execute agent `a`'s next atomic step. Pure: equal states and equal
    /// agents produce equal effects. Panics if `a` is not enabled (the
    /// explorer and the schedule replayer only dispatch enabled agents).
    pub fn step(&self, agent: u16) -> StepEffect {
        assert!(self.enabled(agent), "agent {agent} is not enabled");
        let mut s = self.clone();
        s.steps += 1;
        let mut fp = Footprint::default();
        let mut violation = if agent < s.cfg.threads {
            s.worker_step(agent, &mut fp)
        } else {
            s.manager_step(&mut fp)
        };
        if violation.is_none() {
            violation = s.check_global(agent);
        }
        StepEffect { state: s, violation, footprint: fp }
    }

    /// Global state invariants, checked after every step.
    ///
    /// These monitor reads are deliberately NOT added to the step's
    /// footprint: a breach of a global invariant is *created* by the step
    /// that writes the monitored word (the commit that stores a bad tag,
    /// the note_gate that pushes the probe counter past its window), and
    /// that step's own footprint already contains the write, so the
    /// monitor fires at the writing step in every interleaving where the
    /// write occurs — including the POR representative. Steps that leave
    /// the monitored words untouched cannot change the verdict (it was
    /// already checked when the word was last written). Keeping the
    /// monitors out of the dependency relation preserves the reduction.
    fn check_global(&self, agent: u16) -> Option<Violation> {
        let (e, st) = unpack_state(self.current);
        if e as usize >= self.epochs.len() {
            return Some(self.violation(
                ViolationKind::UnpublishedEpoch,
                agent,
                format!("current word tagged epoch {e}, only {} published", self.epochs.len()),
            ));
        }
        if st != UNKNOWN && st as usize >= self.epochs[e as usize].num_states() {
            return Some(self.violation(
                ViolationKind::TornEpochTag,
                agent,
                format!(
                    "state id {st} out of range for epoch {e} ({} states)",
                    self.epochs[e as usize].num_states()
                ),
            ));
        }
        if let (Some(b), Some(bc)) = (&self.breaker, &self.cfg.breaker) {
            if b.state == HALF_OPEN && b.calls > bc.probe_window {
                return Some(self.violation(
                    ViolationKind::HalfOpenStuck,
                    agent,
                    format!(
                        "Half-Open holds {} calls, probe window is {}",
                        b.calls, bc.probe_window
                    ),
                ));
            }
        }
        None
    }

    /// End-of-path invariant: outcomes partition resolved gate calls.
    /// (Structural in the unmutated machine; kept as a monitor so counter
    /// bookkeeping bugs in the machine itself get caught.)
    pub(crate) fn check_complete(&self) -> Option<Violation> {
        debug_assert!(self.is_complete());
        let resolved = self.passed + self.waited + self.released;
        if resolved != self.gate_calls {
            return Some(self.violation(
                ViolationKind::OutcomePartition,
                u16::MAX,
                format!(
                    "passed {} + waited {} + released {} != {} gate calls",
                    self.passed, self.waited, self.released, self.gate_calls
                ),
            ));
        }
        None
    }

    fn violation(&self, kind: ViolationKind, agent: u16, detail: String) -> Violation {
        Violation { kind, agent, step: self.steps, detail }
    }

    fn allowed_word(&self, word: u64, pinned: u32, who: Pair) -> bool {
        let (e, s) = unpack_state(word);
        s == UNKNOWN
            || e != pinned
            || self.epochs[pinned as usize].is_allowed(StateId(s), who)
    }

    fn worker_step(&mut self, t: u16, fp: &mut Footprint) -> Option<Violation> {
        let phase = self.threads[t as usize].phase;
        match phase {
            Phase::GateEntry => self.gate_entry(t, fp),
            Phase::GateCheck => self.gate_check(t, fp),
            Phase::AbortStep => self.abort_step(t, fp),
            Phase::CommitEntry => {
                // Mirror of on_commit's own EpochCell::with.
                fp.read(W_GEN);
                let gen = self.generation();
                let ctx = &mut self.threads[t as usize];
                ctx.pinned = gen;
                ctx.phase = Phase::CommitApply;
                None
            }
            Phase::CommitApply => self.commit_apply(t, fp),
            Phase::Done => unreachable!("Done agents are never enabled"),
        }
    }

    /// Bypass check + epoch resolution (one step; see module docs for the
    /// coarsening argument).
    fn gate_entry(&mut self, t: u16, fp: &mut Footprint) -> Option<Violation> {
        self.gate_calls += 1;
        if self.breaker.is_some() {
            fp.read(W_BRK);
            if self.breaker.as_ref().unwrap().bypass() {
                // Fail-open: the gate is this one (counted) load.
                return self.resolve_gate(t, Outcome::Passed, fp);
            }
        }
        fp.read(W_GEN);
        let gen = self.generation();
        let ctx = &mut self.threads[t as usize];
        ctx.pinned = gen;
        ctx.checks = 0;
        ctx.gate_waited = false;
        ctx.phase = Phase::GateCheck;
        None
    }

    /// One examination of the current word — mirror of one trip around
    /// `gate_with`'s loop (or its final re-check).
    fn gate_check(&mut self, t: u16, fp: &mut Footprint) -> Option<Violation> {
        let k = self.cfg.k_retries;
        let ctx = &self.threads[t as usize];
        let (pinned, checks, waited) = (ctx.pinned, ctx.checks, ctx.gate_waited);
        if checks > k {
            // Bounded-liveness monitor: the (k+2)-th examination means the
            // release never fired.
            return Some(self.violation(
                ViolationKind::GateUnbounded,
                t,
                format!("gate examined the word {} times, budget is k+1 = {}", checks + 1, k + 1),
            ));
        }
        fp.read(W_CUR);
        let who = self.cfg.who(t, self.threads[t as usize].window);
        let allowed = self.allowed_word(self.current, pinned, who);
        let is_final = checks == k;
        if !is_final {
            if allowed {
                let outcome = if waited { Outcome::Waited } else { Outcome::Passed };
                return self.resolve_gate(t, outcome, fp);
            }
            let ctx = &mut self.threads[t as usize];
            ctx.checks += 1;
            ctx.gate_waited = true;
            return None;
        }
        // The final re-examination after the retry budget.
        match self.cfg.mutation {
            Some(Mutation::SkipReleaseRecheck) => {
                // MUTATION: release on the *previous* verdict without
                // re-examining. (The monitor inside resolve_gate reads the
                // true word and will object on the right interleavings.)
                self.resolve_gate(t, Outcome::Released, fp)
            }
            Some(Mutation::NoRelease) if !allowed => {
                // MUTATION: ignore the budget and keep examining.
                self.threads[t as usize].checks += 1;
                None
            }
            _ => {
                if allowed {
                    let outcome = if waited { Outcome::Waited } else { Outcome::Passed };
                    self.resolve_gate(t, outcome, fp)
                } else {
                    self.resolve_gate(t, Outcome::Released, fp)
                }
            }
        }
    }

    /// Count one gate resolution — mirror of `count_outcome`, including
    /// the fail-open store when the breaker trips Open.
    fn resolve_gate(
        &mut self,
        t: u16,
        outcome: Outcome,
        fp: &mut Footprint,
    ) -> Option<Violation> {
        let released = outcome == Outcome::Released;
        if released {
            // Safety monitor: a release must follow a final re-examination
            // that found the word disallowed. Reads the true word, so the
            // mutated skip still leaves the dependency in the footprint.
            fp.read(W_CUR);
            let who = self.cfg.who(t, self.threads[t as usize].window);
            let pinned = self.threads[t as usize].pinned;
            if self.allowed_word(self.current, pinned, who) {
                return Some(self.violation(
                    ViolationKind::ReleasedWhileAllowed,
                    t,
                    format!(
                        "released {who:?} but the current word {:#x} allows it under epoch {pinned}",
                        self.current
                    ),
                ));
            }
        }
        match outcome {
            Outcome::Passed => self.passed += 1,
            Outcome::Waited => self.waited += 1,
            Outcome::Released => self.released += 1,
        }
        let mut edge = None;
        if let (Some(b), Some(bc)) = (&mut self.breaker, &self.cfg.breaker) {
            fp.read(W_BRK);
            fp.write(W_BRK);
            edge = b.note_gate(t, released, bc, self.cfg.mutation);
            if let Some((_, to, _)) = edge {
                if to == OPEN {
                    // Fail-open: one store releases every spinner.
                    fp.write(W_CUR);
                    self.current = UNKNOWN_WORD;
                }
            }
        }
        self.threads[t as usize].phase = if self.threads[t as usize].must_abort {
            Phase::AbortStep
        } else {
            Phase::CommitEntry
        };
        self.check_breaker_edge(t, edge)
    }

    /// The breaker automaton monitor: only one-rung edges are legal.
    fn check_breaker_edge(&self, agent: u16, edge: Option<BreakerEdge>) -> Option<Violation> {
        let (from, to, cause) = edge?;
        let legal = matches!(
            (from, to),
            (CLOSED, OPEN) | (OPEN, HALF_OPEN) | (HALF_OPEN, CLOSED) | (HALF_OPEN, OPEN)
        );
        if legal {
            return None;
        }
        Some(self.violation(
            ViolationKind::IllegalBreakerTransition,
            agent,
            format!(
                "{} -> {} ({cause}) is not a legal one-rung edge",
                breaker_state_name(from),
                breaker_state_name(to)
            ),
        ))
    }

    /// Scripted abort: shard push + breaker notification, then re-gate.
    /// (`on_abort` discards the breaker transition — no fail-open store —
    /// and so does the model.)
    fn abort_step(&mut self, t: u16, fp: &mut Footprint) -> Option<Violation> {
        let who = self.cfg.who(t, self.threads[t as usize].window);
        fp.write(w_shard(t));
        self.shards[t as usize].push(who);
        let mut edge = None;
        if let (Some(b), Some(bc)) = (&mut self.breaker, &self.cfg.breaker) {
            fp.read(W_BRK);
            fp.write(W_BRK);
            edge = b.note_abort(t, bc);
        }
        let ctx = &mut self.threads[t as usize];
        ctx.must_abort = false;
        ctx.phase = Phase::GateEntry;
        self.check_breaker_edge(t, edge)
    }

    /// Drain shards, classify, record, tag — the serialized commit body.
    fn commit_apply(&mut self, t: u16, fp: &mut Footprint) -> Option<Violation> {
        let window = self.threads[t as usize].window;
        let who = self.cfg.who(t, window);
        let mut aborts = Vec::new();
        for u in 0..self.cfg.threads {
            // The real tracker reads the occupancy bitmap (a word every
            // committer and aborter shares) and drains the flagged shards;
            // touching every shard keeps the dependency faithful.
            fp.read(w_shard(u));
            if !self.shards[u as usize].is_empty() {
                fp.write(w_shard(u));
                aborts.append(&mut self.shards[u as usize]);
            }
        }
        let key = StateKey::new(aborts, who);
        fp.write(W_REC);
        self.recorded.push(key.clone());
        let pinned = self.threads[t as usize].pinned;
        let next = self.epochs[pinned as usize]
            .id_of_parts(key.aborts(), key.commit())
            .map_or(UNKNOWN, |id| id.0);
        let tag = if self.cfg.mutation == Some(Mutation::TornRetag) {
            // MUTATION: classify under the pinned epoch but tag the word
            // with the *latest* generation — the torn old/new mix the
            // epoch protocol exists to prevent.
            fp.read(W_GEN);
            self.generation()
        } else {
            pinned
        };
        fp.write(W_CUR);
        self.current = pack_state(tag, next);
        // Tag-integrity monitor: the stored id must be the id the *tagged*
        // epoch's model assigns to this key.
        let expected = self.epochs[tag as usize]
            .id_of_parts(key.aborts(), key.commit())
            .map_or(UNKNOWN, |id| id.0);
        if next != expected {
            return Some(self.violation(
                ViolationKind::TornEpochTag,
                t,
                format!(
                    "committed key classified as {next} but epoch {tag}'s model says {expected}"
                ),
            ));
        }
        if let Some(b) = &mut self.breaker {
            fp.read(W_BRK);
            fp.write(W_BRK);
            b.note_commit(t);
        }
        let next_window = window + 1;
        let ctx = &mut self.threads[t as usize];
        if next_window < self.cfg.windows {
            ctx.window = next_window;
            ctx.phase = Phase::GateEntry;
            ctx.must_abort = self.cfg.wants_abort(t, next_window);
        } else {
            ctx.window = next_window;
            ctx.phase = Phase::Done;
        }
        None
    }

    /// One hot-swap: rebuild from the recorded window and publish the next
    /// generation (install-then-bump is a single step — no reader can see
    /// the new id without the new model, exactly as in `ModelManager`).
    fn manager_step(&mut self, fp: &mut Footprint) -> Option<Violation> {
        fp.read(W_REC);
        fp.write(W_GEN);
        let sig = seq_sig(&self.recorded);
        let model = {
            let mut cache = self.cache.lock().unwrap();
            cache
                .entry((sig, self.recorded.len()))
                .or_insert_with(|| {
                    Arc::new(GuidedModel::build(
                        Tsa::from_runs(std::slice::from_ref(&self.recorded)),
                        &self.cfg.guidance(),
                    ))
                })
                .clone()
        };
        self.epochs.push(model);
        self.epoch_sigs.push(sig ^ (self.recorded.len() as u64) << 1 | 1);
        self.swaps_left -= 1;
        None
    }

    // -- POR support -------------------------------------------------------

    /// Over-approximation of every footprint agent `a` may produce from
    /// here to the end of its program — the stubborn-set side condition
    /// for the persistent-singleton rule.
    pub(crate) fn future_footprint(&self, agent: u16) -> Footprint {
        let mut fp = Footprint::default();
        if agent as usize >= self.threads.len() {
            if self.swaps_left > 0 {
                fp.read(W_REC);
                fp.write(W_GEN);
            }
            return fp;
        }
        let t = agent;
        let ctx = &self.threads[t as usize];
        if ctx.phase == Phase::Done {
            return fp;
        }
        let gates_ahead = matches!(ctx.phase, Phase::GateEntry | Phase::GateCheck)
            || ctx.must_abort
            || ctx.phase == Phase::AbortStep
            || ctx.window + 1 < self.cfg.windows;
        let mut aborts_ahead = ctx.must_abort || ctx.phase == Phase::AbortStep;
        for w in ctx.window + 1..self.cfg.windows {
            aborts_ahead |= self.cfg.wants_abort(t, w);
        }
        if gates_ahead {
            fp.read(W_CUR);
            fp.read(W_GEN);
            if self.breaker.is_some() {
                fp.read(W_BRK);
                fp.write(W_BRK);
                fp.write(W_CUR); // fail-open store on trip
            }
        }
        if aborts_ahead {
            fp.write(w_shard(t));
            if self.breaker.is_some() {
                fp.read(W_BRK);
                fp.write(W_BRK);
            }
        }
        // Every live worker commits at least once more.
        let mut commit = Footprint::default();
        commit.read(W_GEN);
        commit.write(W_CUR);
        commit.write(W_REC);
        for u in 0..self.cfg.threads {
            commit.read(w_shard(u));
            commit.write(w_shard(u));
        }
        if self.breaker.is_some() {
            commit.read(W_BRK);
            commit.write(W_BRK);
        }
        fp.union(&commit);
        fp
    }

    // -- op-granularity driver (conformance bridge) ------------------------

    /// Run agent `a` to its next operation boundary (gate resolution,
    /// abort done, commit done, swap done) — at most `limit` steps. Used
    /// by the conformance suite to drive the machine and the real
    /// `GuidedHook` through the *same* op schedule. Returns the violation
    /// that ended the run early, if any.
    pub fn run_op(&mut self, agent: u16, limit: u32) -> Option<Violation> {
        for _ in 0..limit {
            if !self.enabled(agent) {
                return None;
            }
            let start_phase =
                self.threads.get(agent as usize).map(|c| (c.phase, c.window));
            let eff = self.step(agent);
            *self = eff.state;
            if eff.violation.is_some() {
                return eff.violation;
            }
            if agent as usize >= self.threads.len() {
                return None; // a swap is one step
            }
            let ctx = &self.threads[agent as usize];
            let boundary = matches!(
                ctx.phase,
                Phase::GateEntry | Phase::AbortStep | Phase::CommitEntry | Phase::Done
            );
            // A gate op ends when the phase leaves the gate; an abort op
            // and a commit op end when the phase returns to a boundary
            // different from where they started.
            if boundary && start_phase.map(|(p, _)| p) != Some(ctx.phase) {
                return None;
            }
            if boundary && matches!(ctx.phase, Phase::Done) {
                return None;
            }
            if boundary
                && start_phase.is_some_and(|(p, w)| {
                    p == ctx.phase && w != ctx.window
                })
            {
                return None;
            }
        }
        panic!("run_op did not reach an op boundary in {limit} steps");
    }

    /// Whether the worker is at an op boundary about to gate.
    pub fn at_gate(&self, t: u16) -> bool {
        self.threads.get(t as usize).is_some_and(|c| c.phase == Phase::GateEntry)
    }

    /// Whether the worker is at an op boundary about to abort.
    pub fn at_abort(&self, t: u16) -> bool {
        self.threads.get(t as usize).is_some_and(|c| c.phase == Phase::AbortStep)
    }

    /// Whether the worker is at an op boundary about to commit.
    pub fn at_commit(&self, t: u16) -> bool {
        self.threads.get(t as usize).is_some_and(|c| c.phase == Phase::CommitEntry)
    }
}

fn seq_sig_pairs(pairs: &[Pair]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in pairs {
        h = (h ^ p.packed() as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Passed,
    Waited,
    Released,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{Breaker, BreakerConfig, BreakerState};

    /// Deterministic round-robin drain of a configuration.
    fn drain(cfg: &MckConfig) -> MachineState {
        let mut s = MachineState::initial(cfg);
        let mut guard = 0;
        while !s.is_complete() {
            let agents = s.enabled_agents();
            let a = agents[guard % agents.len()];
            let eff = s.step(a);
            assert!(eff.violation.is_none(), "trunk violation: {:?}", eff.violation);
            s = eff.state;
            guard += 1;
            assert!(guard < 100_000, "round-robin drain did not terminate");
        }
        s
    }

    #[test]
    fn step_is_a_pure_function_of_state() {
        let cfg = MckConfig::ci();
        let s = MachineState::initial(&cfg);
        let a = s.step(0);
        let b = s.step(0);
        assert_eq!(a.state.encode(), b.state.encode());
        assert_eq!(a.footprint, b.footprint);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.state.fingerprint(), b.state.fingerprint());
    }

    #[test]
    fn round_robin_drain_completes_clean_and_partitions_outcomes() {
        let s = drain(&MckConfig::ci());
        assert!(s.is_complete());
        assert_eq!(s.check_complete(), None);
        assert_eq!(s.passed + s.waited + s.released, s.gate_calls);
        assert_eq!(s.recorded().len() as u64, 3 * 2); // threads * windows commits
        assert_eq!(s.swaps_done(), 1);
    }

    #[test]
    fn abort_mask_windows_the_abort_into_the_next_commit() {
        let cfg = MckConfig { abort_mask: 0b1, swaps: 0, breaker: None, ..MckConfig::ci() };
        let s = drain(&cfg);
        let with_aborts =
            s.recorded().iter().filter(|k| !k.aborts().is_empty()).count();
        assert_eq!(with_aborts, 1, "exactly one scripted abort must be recorded");
    }

    #[test]
    fn seed_model_actually_gates() {
        let cfg = MckConfig::ci();
        let model = cfg.seed_model();
        // From "thread 0 committed", only thread 1's pair is allowed.
        let id = model.id_of_parts(&[], cfg.who(0, 0)).expect("state exists");
        assert!(model.is_allowed(id, cfg.who(1, 0)));
        assert!(!model.is_allowed(id, cfg.who(0, 0)));
        assert!(!model.is_allowed(id, cfg.who(2, 0)));
    }

    #[test]
    fn enabled_manager_waits_for_a_window() {
        let cfg = MckConfig::ci();
        let s = MachineState::initial(&cfg);
        assert!(!s.enabled(cfg.threads), "no window to rebuild from yet");
        assert!(s.enabled(0) && s.enabled(1) && s.enabled(2));
    }

    #[test]
    fn footprints_mark_the_words_each_step_touches() {
        let cfg = MckConfig::ci();
        let s = MachineState::initial(&cfg);
        let entry = s.step(0);
        assert_eq!(entry.footprint.reads & W_GEN, W_GEN, "gate entry resolves the epoch");
        let check = entry.state.step(0);
        assert_eq!(check.footprint.reads & W_CUR, W_CUR, "gate check loads the word");
        assert_eq!(check.footprint.writes & W_GEN, 0, "gate never writes the generation");
    }

    /// The machine's breaker mirrors the real `Breaker` event-for-event:
    /// drive both through the same deterministic event stream and compare
    /// state and counters after every event. This pins the mirror the
    /// checker's automaton claims rest on.
    #[test]
    fn breaker_model_locksteps_with_the_real_breaker() {
        let mcfg = MckBreakerConfig::default();
        let rcfg = BreakerConfig {
            window: mcfg.window,
            max_released_pct: mcfg.max_released_pct,
            max_off_model_pct: 100.0,
            max_abort_pct: mcfg.max_abort_pct,
            starvation_releases: mcfg.starvation_releases,
            abort_streak: mcfg.abort_streak,
            cooldown: mcfg.cooldown,
            probe_window: mcfg.probe_window,
        };
        let real = Breaker::new(rcfg, None);
        let mut model = BreakerModel::new(4);
        let mut rng = crate::rng::SplitMix64::new(0x5ca1e);
        for i in 0..4000u64 {
            let t = rng.below(4) as u16;
            match rng.below(5) {
                0 => {
                    real.note_abort(t as usize);
                    model.note_abort(t, &mcfg);
                }
                1 => {
                    real.note_commit(t as usize);
                    model.note_commit(t);
                }
                _ => {
                    let released = rng.below(3) == 0;
                    real.note_gate(t as usize, released);
                    model.note_gate(t, released, &mcfg, None);
                }
            }
            let real_state = match real.state() {
                BreakerState::Closed => CLOSED,
                BreakerState::Open => OPEN,
                BreakerState::HalfOpen => HALF_OPEN,
            };
            assert_eq!(model.state, real_state, "event {i}: state diverged");
            assert_eq!(model.trips as u64, real.trips(), "event {i}: trips diverged");
            assert_eq!(model.probes as u64, real.probes(), "event {i}: probes diverged");
            assert_eq!(
                model.recloses as u64,
                real.recloses(),
                "event {i}: recloses diverged"
            );
        }
        assert!(model.trips > 0, "stream never tripped — lockstep test is vacuous");
        assert!(model.recloses > 0, "stream never re-closed — lockstep test is vacuous");
    }

    #[test]
    fn torn_retag_mutation_requires_a_swap_to_matter() {
        // Without a swap between CommitEntry and CommitApply the latest
        // generation IS the pinned one — the mutation is invisible.
        let cfg = MckConfig {
            mutation: Some(Mutation::TornRetag),
            swaps: 0,
            ..MckConfig::ci()
        };
        let s = drain(&cfg);
        assert!(s.is_complete());
    }

    #[test]
    fn torn_retag_is_caught_when_a_swap_splits_the_commit() {
        let cfg = MckConfig { mutation: Some(Mutation::TornRetag), ..MckConfig::ci() };
        let mut s = MachineState::initial(&cfg);
        // Thread 0: gate through to CommitEntry (unknown word passes).
        while !s.at_commit(0) {
            let eff = s.step(0);
            assert!(eff.violation.is_none());
            s = eff.state;
        }
        let eff = s.step(0); // CommitEntry pins the seed epoch
        s = eff.state;
        // Thread 1 commits fully, giving the manager a window; the swap
        // publishes generation 1 whose ids differ from the seed model's.
        while s.threads[1].phase != Phase::Done {
            let eff = s.step(1);
            assert!(eff.violation.is_none());
            s = eff.state;
        }
        let eff = s.step(cfg.threads); // hot-swap
        assert!(eff.violation.is_none());
        s = eff.state;
        // Thread 0's CommitApply now tags generation 1 with a seed-model id.
        let eff = s.step(0);
        let v = eff.violation.expect("torn retag must be caught");
        assert_eq!(v.kind, ViolationKind::TornEpochTag);
    }

    #[test]
    fn config_validation_rejects_out_of_bound_models() {
        assert!(MckConfig { threads: 0, ..MckConfig::ci() }.validate().is_err());
        assert!(MckConfig { threads: 17, ..MckConfig::ci() }.validate().is_err());
        assert!(MckConfig { k_retries: 0, ..MckConfig::ci() }.validate().is_err());
        assert!(MckConfig::ci().validate().is_ok());
    }
}
