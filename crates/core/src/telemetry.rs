//! Runtime telemetry: lock-free counters, log-bucketed latency
//! histograms, and a bounded per-thread transaction tracer.
//!
//! The paper's offline pipeline measures variance from full run logs; this
//! module gives a *live* view of the same execution: how many attempts
//! commit or abort (and why), how long commits and gate waits take, and —
//! via the tracer — the exact interleaving of attempts and TSA state
//! transitions, exportable to JSONL and to chrome://tracing JSON so a
//! run's state-residency timeline opens in Perfetto.
//!
//! ## Overhead discipline
//!
//! The STM runtimes hold an `Option<Arc<Telemetry>>`; when it is `None`
//! (the default) every instrumentation point in the hot path is a single
//! predictable branch and **no timestamp is read**. When enabled:
//!
//! * counters live in a [`PerThread`] table of cells (relaxed atomic
//!   adds on the caller's own line — no contention, no false sharing);
//! * each cell allocates its HDR-style power-of-2 latency histograms on
//!   its first record; a sample is one `ilog2`, a bucket add, a sum add
//!   and a load of the max, and snapshots merge the cells;
//! * timestamps come from the TSC on x86_64 (calibrated once at
//!   construction), not from `Instant`, so a sample is a couple of
//!   instructions (`Clock`);
//! * the tracer writes into a bounded per-thread ring buffer (oldest
//!   events overwritten, never unbounded growth) under an uncontended
//!   per-thread mutex, and can be sized to zero to keep counters only.
use crate::contention::ContentionStats;
use crate::drift::{DriftTracker, ModelDrift};
use crate::events::AbortCause;
use crate::ids::Pair;
use crate::prom::{Kind, Writer};
use crate::sync::{Mutex, PerThread};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Histogram buckets: bucket 0 holds exact zeros; bucket *i* ≥ 1 holds
/// values in `[2^(i-1), 2^i)`; bucket 64 holds `[2^63, u64::MAX]`.
const NUM_BUCKETS: usize = 65;

/// Per-thread tracer ring capacity used by [`Telemetry::new`].
const DEFAULT_TRACE_CAPACITY: usize = 1 << 14;

/// Sentinel state id meaning "not a modeled state" in
/// [`TraceKind::StateTransition`] (mirrors the guidance gate's notion of
/// an unknown current state).
pub(crate) const UNKNOWN_STATE: u32 = u32::MAX;

/// Version of the exported artifact schema (`.prom`, verdict and
/// incident JSON; the JSONL trace has `TRACE_SCHEMA_VERSION`). Bumped
/// whenever a consumer could misparse an artifact from a different
/// build; `gstm-analyze` refuses mismatches
/// instead of silently misreading them. Stamped as the
/// `gstm_build_info{schema="..."}` Prometheus family and as the
/// `"schema"` field of JSON artifacts.
pub const SCHEMA_VERSION: u32 = 1;

/// Version of the JSONL trace schema, stamped into the meta line that
/// [`export_jsonl`] writes and checked by [`parse_jsonl`]. Versioned apart
/// from [`SCHEMA_VERSION`] because the trace's event vocabulary changes
/// independently of the exposition, verdict and incident formats. Schema
/// 2 added [`TraceKind::State`]: a schema-1 trace carries no states, so
/// the analyzer rejects it rather than counting zero of them.
const TRACE_SCHEMA_VERSION: u32 = 2;

/// Build version string stamped into exported artifacts. Falls back to
/// "unversioned" under bare-rustc builds, where cargo's package
/// metadata is absent.
pub(crate) const BUILD_VERSION: &str = match option_env!("CARGO_PKG_VERSION") {
    Some(v) => v,
    None => "unversioned",
};

/// Stable label and index for each [`AbortCause`] variant, in the order
/// used by [`TelemetrySnapshot::aborts`].
pub const ABORT_CAUSE_NAMES: [&str; 6] = [
    "read_locked",
    "read_version",
    "commit_lock_busy",
    "validation",
    "aborted_by_writer",
    "explicit",
];

/// Index of `cause` into [`ABORT_CAUSE_NAMES`] /
/// [`TelemetrySnapshot::aborts`].
fn cause_index(cause: AbortCause) -> usize {
    match cause {
        AbortCause::ReadLocked { .. } => 0,
        AbortCause::ReadVersion => 1,
        AbortCause::CommitLockBusy { .. } => 2,
        AbortCause::Validation => 3,
        AbortCause::AbortedByWriter { .. } => 4,
        AbortCause::Explicit => 5,
    }
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

/// Nanosecond timestamps without `Instant` on the hot path.
///
/// On x86_64 the constructor calibrates the TSC against `Instant` once
/// (a short spin), after which [`Clock::now_ns`] is an `rdtsc` plus a
/// fixed-point multiply. Elsewhere — or if calibration fails — it falls
/// back to `Instant::now()` against a construction-time epoch.
struct Clock {
    epoch: Instant,
    #[cfg(target_arch = "x86_64")]
    base_tsc: u64,
    /// ns-per-tick in 24.24-ish fixed point (`ns << SHIFT / ticks`);
    /// 0 means "use the `Instant` fallback".
    #[cfg(target_arch = "x86_64")]
    mult: u64,
}

#[cfg(target_arch = "x86_64")]
const CLOCK_SHIFT: u32 = 24;

// `_rdtsc` is the one exception to the crate-wide lint: it reads a
// register, touches no memory, and every x86_64 CPU has it.
#[allow(unsafe_code)]
impl Clock {
    /// Construct and (on x86_64) calibrate the clock.
    pub(crate) fn new() -> Self {
        let epoch = Instant::now();
        #[cfg(target_arch = "x86_64")]
        {
            let t0 = Instant::now();
            let c0 = unsafe { std::arch::x86_64::_rdtsc() };
            // Spin ~300µs: long enough for sub-0.1% calibration error,
            // short enough that constructing Telemetry stays cheap.
            while t0.elapsed().as_micros() < 300 {
                std::hint::spin_loop();
            }
            let c1 = unsafe { std::arch::x86_64::_rdtsc() };
            let ns = t0.elapsed().as_nanos() as u64;
            let ticks = c1.wrapping_sub(c0);
            // Zero ticks means a non-monotonic / unusable TSC: fall back
            // to Instant.
            let mult = (((ns as u128) << CLOCK_SHIFT) as u64)
                .checked_div(ticks)
                .unwrap_or(0);
            Clock {
                epoch,
                base_tsc: c0,
                mult,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Clock { epoch }
    }

    /// Nanoseconds since this clock was constructed.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if self.mult != 0 {
            let ticks = unsafe { std::arch::x86_64::_rdtsc() }.wrapping_sub(self.base_tsc);
            return ((ticks as u128 * self.mult as u128) >> CLOCK_SHIFT) as u64;
        }
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A lock-free power-of-2 latency histogram (HDR-style): 65 buckets plus
/// a running `sum` and `max`. The sample count is the bucket sum, taken
/// at snapshot time.
struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index of `v`: 0 for v == 0, else `ilog2(v) + 1`, so bucket
    /// *i* ≥ 1 covers `[2^(i-1), 2^i)` and `u64::MAX` saturates into the
    /// last bucket (index 64) without overflow.
    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            v.ilog2() as usize + 1
        }
    }

    /// Inclusive value range `[lo, hi]` of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < NUM_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else if i == NUM_BUCKETS - 1 {
            (1u64 << (i - 1), u64::MAX)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Record one sample: two relaxed adds and a load of `max`, which is
    /// raised only by a sample above it.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Wrapping on astronomically large totals is acceptable for a
        // diagnostic sum; the buckets stay exact.
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram; its `count` is the sum of
    /// the copied buckets.
    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Plain-data copy of a `LatencyHistogram`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub(crate) buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps at `u64::MAX`).
    pub(crate) sum: u64,
    /// Largest sample seen.
    max: u64,
}

impl HistogramSnapshot {
    /// A histogram of no samples, with every bucket present.
    fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            ..Default::default()
        }
    }

    /// Mean sample value (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `q` (0 < q ≤ 1) of the samples; 0 when empty. A coarse quantile —
    /// exact only up to bucket resolution. The count is the bucket sum
    /// (for a window's difference too), so the scan always ends inside
    /// the buckets.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return LatencyHistogram::bucket_range(i).1;
            }
        }
        LatencyHistogram::bucket_range(NUM_BUCKETS - 1).1
    }

    /// Fold `other` into `self` bucket-wise (exact: counts and sums add;
    /// `max` takes the larger). An empty (default) snapshot grows the
    /// bucket vector to match `other`'s.
    pub(crate) fn absorb(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded after `older` was taken: `self - older`
    /// bucket-wise, so `older.absorb(&d)` gives `self` back. `None` when a
    /// bucket or the count went down, i.e. `self` is not a later snapshot
    /// of the same histogram. The sum wraps as in `absorb`; `max` is not
    /// a count, so the difference keeps `self`'s.
    pub(crate) fn since(&self, older: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        let mut d = self.clone();
        if d.buckets.len() < older.buckets.len() {
            d.buckets.resize(older.buckets.len(), 0);
        }
        for (a, &b) in d.buckets.iter_mut().zip(&older.buckets) {
            *a = a.checked_sub(b)?;
        }
        d.count = d.count.checked_sub(older.count)?;
        d.sum = d.sum.wrapping_sub(older.sum);
        Some(d)
    }
}

/// `*a -= b`, or `None` where that would go below zero: the step
/// [`TelemetrySnapshot::since`] takes on each counter.
fn checked_sub(a: &mut u64, b: u64) -> Option<()> {
    *a = a.checked_sub(b)?;
    Some(())
}

/// `*a += b`: the step [`TelemetrySnapshot::absorb`] takes on each
/// counter.
fn add(a: &mut u64, b: u64) -> Option<()> {
    *a += b;
    Some(())
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// One thread's counter cell. All adds are relaxed: each thread writes
/// (almost always) only its own cell, and the snapshot only needs
/// eventually-consistent totals. The cell's commits are its commit
/// histogram's count.
#[derive(Default)]
struct CounterCell {
    aborts: [AtomicU64; 6],
    gate_passed: AtomicU64,
    gate_waited: AtomicU64,
    gate_released: AtomicU64,
    /// Allocated by the cell's first latency record, so a table of
    /// [`crate::sync::SLOTS`] cells costs histogram memory only for the
    /// threads that record.
    latency: OnceLock<Box<CellLatency>>,
}

/// A cell's latency histograms (ns).
#[derive(Default)]
struct CellLatency {
    commit: LatencyHistogram,
    backoff: LatencyHistogram,
    gate_wait: LatencyHistogram,
}

impl CounterCell {
    #[inline]
    fn latency(&self) -> &CellLatency {
        self.latency.get_or_init(Box::default)
    }

    /// The cell's counts as a snapshot of one thread: its totals, its
    /// histograms once allocated, and its per-thread row when it
    /// recorded anything.
    fn snapshot(&self, cell: usize) -> TelemetrySnapshot {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut snap = TelemetrySnapshot {
            aborts: std::array::from_fn(|i| load(&self.aborts[i])),
            gate_passed: load(&self.gate_passed),
            gate_waited: load(&self.gate_waited),
            gate_released: load(&self.gate_released),
            ..Default::default()
        };
        if let Some(latency) = self.latency.get() {
            snap.commit_ns = latency.commit.snapshot();
            snap.commits = snap.commit_ns.count;
            snap.backoff_ns = latency.backoff.snapshot();
            snap.gate_wait_ns = latency.gate_wait.snapshot();
        }
        let row = ThreadCounters {
            cell,
            commits: snap.commits,
            aborts: snap.aborts,
            gate_passed: snap.gate_passed,
            gate_waited: snap.gate_waited,
            gate_released: snap.gate_released,
        };
        if !row.is_empty() {
            snap.per_thread.push(row);
        }
        snap
    }
}

/// How a gate call resolved (mirrors [`crate::guidance::GateStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GateOutcome {
    /// Passed immediately (allowed or unknown state).
    Passed,
    /// Waited at least one retry before passing.
    Waited,
    /// Released by the k-retry progress escape.
    Released,
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// What a trace event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A transaction attempt began (gate passed).
    Begin,
    /// The guidance gate held the thread for `wait_ns` before this
    /// attempt.
    GateWait {
        /// Nanoseconds spent inside the gate.
        wait_ns: u64,
    },
    /// An attempt rolled back.
    Abort {
        /// Why it rolled back.
        cause: AbortCause,
        /// The conflicting location's key
        /// (`crate::events::ConflictSite::raw`; 0 = unknown).
        addr: usize,
    },
    /// An attempt committed.
    Commit {
        /// Nanoseconds spent inside the STM commit protocol.
        commit_ns: u64,
        /// Transactional writes the attempt performed.
        writes: u32,
    },
    /// The TSA current state changed (recorded by the guided hook on
    /// commit). `UNKNOWN_STATE` means "outside the model".
    StateTransition {
        /// State id before the commit.
        from: u32,
        /// State id after the commit.
        to: u32,
    },
    /// The thread transactional state a guided commit formed, recorded
    /// by the guided hook's own tracker (one per commit). The analyzer
    /// counts non-determinism from these records.
    State {
        /// [`crate::tss::hash_parts`] of the state's aborts and commit.
        key: u64,
    },
    /// The guided model was regenerated and hot-swapped (adaptive mode).
    /// Attributed to the synthetic pair `<0,0>`: the swap is performed by
    /// the model manager, not a worker transaction.
    ModelSwap {
        /// Epoch id of the newly installed model.
        epoch: u32,
        /// [`crate::drift::DriftVerdict::code`] of the verdict that
        /// triggered the regeneration.
        verdict: u8,
    },
    /// The guidance circuit breaker changed state. Attributed to the
    /// synthetic pair `<0,0>` like [`TraceKind::ModelSwap`].
    Breaker {
        /// [`crate::breaker::BreakerState::code`] left.
        from: u8,
        /// [`crate::breaker::BreakerState::code`] entered.
        to: u8,
        /// [`crate::breaker::BreakerCause::code`] of the transition.
        cause: u8,
    },
}

/// One tracer entry: globally sequenced, timestamped, attributed to a
/// `<txn,thread>` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Globally unique, monotonically assigned sequence number.
    pub seq: u64,
    /// Nanoseconds since the owning [`Telemetry`]'s construction.
    pub ts_ns: u64,
    /// The attempt this event concerns.
    pub pair: Pair,
    /// Payload.
    pub kind: TraceKind,
}

/// Bounded ring of trace events; `next` is the overwrite cursor once the
/// ring is full, and `dropped` counts the events it overwrote.
#[derive(Default)]
struct TraceRing {
    buf: Vec<TraceEvent>,
    next: usize,
    dropped: u64,
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// The telemetry subsystem: counters + histograms + tracer + clock.
///
/// Constructed once per instrumented run and shared (`Arc`) between the
/// STM runtime, the guidance hook, and whoever reads the snapshot.
pub struct Telemetry {
    /// Per-thread counters and latency histograms, merged at snapshot.
    cells: PerThread<CounterCell>,
    clock: Clock,
    trace_cap: usize,
    /// The one shared write of a trace event: a global order that the
    /// analyzer's segmentation and incident dumps read.
    trace_seq: AtomicU64,
    /// Per-thread tracer rings, padded like the counter cells so tracing
    /// threads never false-share.
    trace: PerThread<Mutex<TraceRing>>,
    /// Guided-model hot-swaps performed by the adaptive model manager.
    model_swaps: AtomicU64,
    /// Circuit-breaker trips (Closed/Half-Open → Open).
    breaker_trips: AtomicU64,
    /// Circuit-breaker re-closes (Half-Open → Closed).
    breaker_recloses: AtomicU64,
    /// Circuit-breaker half-open probes (Open → Half-Open).
    breaker_probes: AtomicU64,
    /// Model files rejected by integrity checks at load.
    breaker_model_rejected: AtomicU64,
    /// Breaker position after the latest transition
    /// ([`crate::breaker::BreakerState::code`]).
    breaker_state: AtomicU64,
    /// Adapt guardian panics caught and restarted.
    guardian_restarts: AtomicU64,
    /// Registered model-drift tracker (cold: touched only at
    /// registration and snapshot time, never on the hot path). In
    /// adaptive mode the manager re-attaches the new epoch's tracker on
    /// every swap, so the snapshot always reports the live generation.
    drift: Mutex<Option<Arc<DriftTracker>>>,
    /// Merged conflict-provenance stats, set by the harness after the
    /// run quiesces (cold; the hot record path lives in
    /// [`crate::contention::ContentionTracker`], not here).
    contention: Mutex<Option<ContentionStats>>,
}

impl Telemetry {
    /// Telemetry with the default per-thread trace capacity
    /// (`DEFAULT_TRACE_CAPACITY` events per cell).
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Telemetry with `cap` trace events per thread cell (oldest events
    /// are overwritten beyond that). `cap == 0` disables tracing: only
    /// counters and histograms are kept.
    pub fn with_trace_capacity(cap: usize) -> Self {
        Telemetry {
            cells: PerThread::default(),
            clock: Clock::new(),
            trace_cap: cap,
            trace_seq: AtomicU64::new(0),
            trace: PerThread::default(),
            model_swaps: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            breaker_recloses: AtomicU64::new(0),
            breaker_probes: AtomicU64::new(0),
            breaker_model_rejected: AtomicU64::new(0),
            breaker_state: AtomicU64::new(0),
            guardian_restarts: AtomicU64::new(0),
            drift: Mutex::new(None),
            contention: Mutex::new(None),
        }
    }

    /// Attach the run's merged conflict-provenance stats (set by the
    /// harness from [`crate::contention::ContentionTracker::snapshot`]
    /// after the run joins; snapshots expose them as
    /// `gstm_contention_*`).
    pub fn set_contention(&self, stats: ContentionStats) {
        *self.contention.lock() = Some(stats);
    }

    /// Register a model-drift tracker so snapshots (and their Prometheus
    /// exposition, via the `gstm_model_*` families) carry its
    /// [`ModelDrift`] report. Pass the same `Arc` to
    /// [`crate::guidance::GuidedHook::with_robustness`] so the hook
    /// feeds what the snapshot reads.
    pub fn attach_drift(&self, tracker: Arc<DriftTracker>) {
        *self.drift.lock() = Some(tracker);
    }

    /// Counters and histograms only — no event tracing.
    pub fn counters_only() -> Self {
        Self::with_trace_capacity(0)
    }

    /// Whether the tracer is active.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.trace_cap != 0
    }

    /// Nanoseconds since construction (TSC-based on x86_64).
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    #[inline]
    fn cell(&self, who: Pair) -> &CounterCell {
        self.cells.get(who.thread.index())
    }

    /// Record a committed attempt and its commit-protocol latency.
    #[inline]
    pub fn record_commit(&self, who: Pair, commit_ns: u64) {
        self.cell(who).latency().commit.record(commit_ns);
    }

    /// Record an aborted attempt.
    #[inline]
    pub fn record_abort(&self, who: Pair, cause: AbortCause) {
        self.cell(who).aborts[cause_index(cause)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record the abort-to-retry backoff latency preceding an attempt.
    #[inline]
    pub(crate) fn record_backoff(&self, who: Pair, ns: u64) {
        self.cell(who).latency().backoff.record(ns);
    }

    /// Record the time an attempt spent inside the guidance gate.
    #[inline]
    pub(crate) fn record_gate_wait(&self, who: Pair, ns: u64) {
        self.cell(who).latency().gate_wait.record(ns);
    }

    /// Record how a gate call resolved (invoked by the guided hook).
    #[inline]
    pub(crate) fn record_gate_outcome(&self, who: Pair, outcome: GateOutcome) {
        let cell = self.cell(who);
        let counter = match outcome {
            GateOutcome::Passed => &cell.gate_passed,
            GateOutcome::Waited => &cell.gate_waited,
            GateOutcome::Released => &cell.gate_released,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Append a trace event to the calling thread's ring (no-op when
    /// tracing is disabled), stamped now. The sequence number is assigned
    /// here.
    pub fn trace(&self, who: Pair, kind: TraceKind) {
        self.trace_at(who, kind, None);
    }

    /// [`Telemetry::trace`] with a timestamp the caller already read
    /// (`None` reads the clock, and only when tracing is enabled).
    #[inline]
    pub(crate) fn trace_at(&self, who: Pair, kind: TraceKind, ts_ns: Option<u64>) {
        if self.trace_cap == 0 {
            return;
        }
        let ev = TraceEvent {
            seq: self.trace_seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: ts_ns.unwrap_or_else(|| self.now_ns()),
            pair: who,
            kind,
        };
        let mut ring = self.trace.get(who.thread.index()).lock();
        if ring.buf.len() < self.trace_cap {
            ring.buf.push(ev);
        } else {
            let i = ring.next;
            ring.buf[i] = ev;
            ring.next = (i + 1) % self.trace_cap;
            ring.dropped += 1;
        }
    }

    /// All retained trace events, ordered by sequence number. Each
    /// shard's ring is copied under its own (uncontended) lock; sorting
    /// happens outside every lock.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for ring in self.trace.iter() {
            out.extend_from_slice(&ring.lock().buf);
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Trace events overwritten because a ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace.iter().map(|ring| ring.lock().dropped).sum()
    }

    /// Record a guided-model hot-swap (invoked by the adaptive model
    /// manager, off the hot path): bumps `gstm_model_swaps_total` and —
    /// when tracing is on — emits a [`TraceKind::ModelSwap`] event
    /// attributed to the synthetic pair `<0,0>`.
    pub(crate) fn record_model_swap(&self, epoch: u32, verdict: crate::drift::DriftVerdict) {
        use crate::ids::{ThreadId, TxnId};
        self.model_swaps.fetch_add(1, Ordering::Relaxed);
        self.trace(
            Pair::new(TxnId(0), ThreadId(0)),
            TraceKind::ModelSwap { epoch, verdict: verdict.code() },
        );
    }

    /// Guided-model hot-swaps recorded so far.
    fn model_swaps(&self) -> u64 {
        self.model_swaps.load(Ordering::Relaxed)
    }

    /// Record a circuit-breaker state change (invoked by
    /// [`crate::breaker::Breaker`], off the hot path): bumps the
    /// matching `gstm_breaker_*` counter, tracks the position gauge, and
    /// — when tracing is on — emits a [`TraceKind::Breaker`] event
    /// attributed to the synthetic pair `<0,0>`.
    pub(crate) fn record_breaker_transition(&self, from: u8, to: u8, cause: u8) {
        use crate::ids::{ThreadId, TxnId};
        match to {
            1 => self.breaker_trips.fetch_add(1, Ordering::Relaxed),
            2 => self.breaker_probes.fetch_add(1, Ordering::Relaxed),
            _ => self.breaker_recloses.fetch_add(1, Ordering::Relaxed),
        };
        self.breaker_state.store(to as u64, Ordering::Relaxed);
        self.trace(
            Pair::new(TxnId(0), ThreadId(0)),
            TraceKind::Breaker { from, to, cause },
        );
    }

    /// Record a model file rejected by the integrity checks at load.
    pub(crate) fn record_model_rejected(&self) {
        self.breaker_model_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an adapt-guardian panic that was caught and restarted.
    pub(crate) fn record_guardian_restart(&self) {
        self.guardian_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregate the per-thread cells and histograms into a snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut cells = TelemetrySnapshot {
            commit_ns: HistogramSnapshot::empty(),
            backoff_ns: HistogramSnapshot::empty(),
            gate_wait_ns: HistogramSnapshot::empty(),
            ..Default::default()
        };
        for (i, cell) in self.cells.iter().enumerate() {
            cells.absorb(&cell.snapshot(i));
        }
        // The collector-wide fields go in after the merge, which would
        // overwrite the breaker position with a cell's.
        TelemetrySnapshot {
            trace_dropped: self.trace_dropped(),
            model_swaps: self.model_swaps(),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_recloses: self.breaker_recloses.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            breaker_model_rejected: self.breaker_model_rejected.load(Ordering::Relaxed),
            breaker_state: self.breaker_state.load(Ordering::Relaxed) as u8,
            guardian_restarts: self.guardian_restarts.load(Ordering::Relaxed),
            model_drift: self.drift.lock().as_ref().map(|d| d.report()),
            contention: self.contention.lock().clone(),
            ..cells
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters of one (nonempty) per-thread cell, as captured by
/// [`Telemetry::snapshot`]. `cell` is the cell index — equal to the
/// thread id for the first [`crate::sync::SLOTS`] threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Cell index (`crate::sync::slot_of` the thread id).
    pub cell: usize,
    /// Committed attempts.
    pub commits: u64,
    /// Aborted attempts by cause (indexed per [`ABORT_CAUSE_NAMES`]).
    aborts: [u64; 6],
    /// Gate calls that passed immediately.
    gate_passed: u64,
    /// Gate calls that waited before passing.
    gate_waited: u64,
    /// Gate calls released by the progress escape.
    gate_released: u64,
}

impl ThreadCounters {
    /// Total aborted attempts in this cell.
    pub fn aborts_total(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Total gate calls in this cell.
    pub fn gate_total(&self) -> u64 {
        self.gate_passed + self.gate_waited + self.gate_released
    }

    /// Apply `f` to each counter of `self` and the same counter of
    /// `other`, stopping at the first `None`: the one list of a cell's
    /// counters.
    fn zip_counts(
        &mut self,
        other: &ThreadCounters,
        mut f: impl FnMut(&mut u64, u64) -> Option<()>,
    ) -> Option<()> {
        f(&mut self.commits, other.commits)?;
        for (a, &b) in self.aborts.iter_mut().zip(&other.aborts) {
            f(a, b)?;
        }
        f(&mut self.gate_passed, other.gate_passed)?;
        f(&mut self.gate_waited, other.gate_waited)?;
        f(&mut self.gate_released, other.gate_released)
    }

    /// Whether every counter is zero.
    fn is_empty(&self) -> bool {
        ThreadCounters::default()
            .zip_counts(self, |_, v| (v == 0).then_some(()))
            .is_some()
    }
}

/// A point-in-time aggregate of everything the telemetry recorded.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Committed attempts across all threads.
    pub commits: u64,
    /// Aborted attempts by cause (indexed per [`ABORT_CAUSE_NAMES`]).
    pub aborts: [u64; 6],
    /// Gate calls that passed immediately.
    pub gate_passed: u64,
    /// Gate calls that waited before passing.
    pub gate_waited: u64,
    /// Gate calls released by the progress escape.
    pub gate_released: u64,
    /// Commit-protocol latency histogram (ns).
    pub commit_ns: HistogramSnapshot,
    /// Abort-to-retry backoff histogram (ns).
    pub backoff_ns: HistogramSnapshot,
    /// Gate wait-time histogram (ns).
    pub gate_wait_ns: HistogramSnapshot,
    /// Nonempty per-thread cells.
    pub per_thread: Vec<ThreadCounters>,
    /// Trace events lost to ring overwrites.
    pub(crate) trace_dropped: u64,
    /// Guided-model hot-swaps (adaptive mode; 0 with a fixed model).
    pub model_swaps: u64,
    /// Circuit-breaker trips (Closed/Half-Open → Open).
    pub(crate) breaker_trips: u64,
    /// Circuit-breaker re-closes (Half-Open → Closed).
    pub(crate) breaker_recloses: u64,
    /// Circuit-breaker half-open probes (Open → Half-Open).
    pub(crate) breaker_probes: u64,
    /// Model files rejected by integrity checks at load.
    pub(crate) breaker_model_rejected: u64,
    /// Breaker position after the latest transition (0 closed, 1 open,
    /// 2 half-open).
    pub(crate) breaker_state: u8,
    /// Adapt-guardian panics caught and restarted.
    pub(crate) guardian_restarts: u64,
    /// Model-drift report, when a [`DriftTracker`] is attached.
    pub model_drift: Option<ModelDrift>,
    /// Conflict-provenance stats, when the harness attached a
    /// [`crate::contention::ContentionTracker`] to the run.
    pub contention: Option<ContentionStats>,
}

impl TelemetrySnapshot {
    /// Total aborted attempts.
    pub fn aborts_total(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Explicit user retries (the `explicit` abort cause).
    pub fn explicit_retries(&self) -> u64 {
        self.aborts[5]
    }

    /// Total gate calls (`passed + waited + released`).
    pub fn gate_total(&self) -> u64 {
        self.gate_passed + self.gate_waited + self.gate_released
    }

    /// Apply `f` to each event counter of `self` and the same counter of
    /// `other`, stopping at the first `None`. This is the one list of the
    /// snapshot's monotone event counters, which `absorb` adds, `since`
    /// subtracts and `has_events` reads; the histograms, the per-thread
    /// rows and the point-in-time fields are not on it.
    fn zip_events(
        &mut self,
        other: &TelemetrySnapshot,
        mut f: impl FnMut(&mut u64, u64) -> Option<()>,
    ) -> Option<()> {
        f(&mut self.commits, other.commits)?;
        for (a, &b) in self.aborts.iter_mut().zip(&other.aborts) {
            f(a, b)?;
        }
        f(&mut self.gate_passed, other.gate_passed)?;
        f(&mut self.gate_waited, other.gate_waited)?;
        f(&mut self.gate_released, other.gate_released)?;
        f(&mut self.trace_dropped, other.trace_dropped)?;
        f(&mut self.model_swaps, other.model_swaps)?;
        f(&mut self.breaker_trips, other.breaker_trips)?;
        f(&mut self.breaker_recloses, other.breaker_recloses)?;
        f(&mut self.breaker_probes, other.breaker_probes)?;
        f(
            &mut self.breaker_model_rejected,
            other.breaker_model_rejected,
        )?;
        f(&mut self.guardian_restarts, other.guardian_restarts)
    }

    /// Fold `other` into `self`, treating the pair as one logical run:
    /// counters and histograms add exactly; per-thread cells merge by
    /// cell index; point-in-time fields (breaker position, drift,
    /// contention) take `other`'s when present, since `other`
    /// is the newer snapshot. This is how the ops plane maintains one
    /// cumulative view across the harness's per-run collectors, and how
    /// [`Telemetry::snapshot`] merges its cells.
    pub(crate) fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.zip_events(other, add);
        self.commit_ns.absorb(&other.commit_ns);
        self.backoff_ns.absorb(&other.backoff_ns);
        self.gate_wait_ns.absorb(&other.gate_wait_ns);
        for tc in &other.per_thread {
            match self.per_thread.iter_mut().find(|m| m.cell == tc.cell) {
                Some(m) => {
                    m.zip_counts(tc, add);
                }
                None => self.per_thread.push(*tc),
            }
        }
        self.per_thread.sort_by_key(|t| t.cell);
        self.breaker_state = other.breaker_state;
        if other.model_drift.is_some() {
            self.model_drift = other.model_drift.clone();
        }
        if other.contention.is_some() {
            self.contention = other.contention.clone();
        }
    }

    /// What was recorded after `older` was taken: `self - older` on every
    /// event counter, histogram and per-thread row, so `older.absorb(&d)`
    /// gives `self` back. `None` when some counter, bucket or cell went
    /// down, i.e. `self` is not a later snapshot of the same counters.
    /// Rows of cells that did not move are left out; the point-in-time
    /// fields and each histogram's `max` are `self`'s.
    pub(crate) fn since(&self, older: &TelemetrySnapshot) -> Option<TelemetrySnapshot> {
        let mut d = self.clone();
        d.zip_events(older, checked_sub)?;
        d.commit_ns = self.commit_ns.since(&older.commit_ns)?;
        d.backoff_ns = self.backoff_ns.since(&older.backoff_ns)?;
        d.gate_wait_ns = self.gate_wait_ns.since(&older.gate_wait_ns)?;
        for old in &older.per_thread {
            // A cell `self` lacks is a zero row, below any counts `older`
            // holds for it.
            let mut none = ThreadCounters::default();
            let row = d.per_thread.iter_mut().find(|r| r.cell == old.cell);
            row.unwrap_or(&mut none).zip_counts(old, checked_sub)?;
        }
        d.per_thread.retain(|row| !row.is_empty());
        Some(d)
    }

    /// Whether any event counter (see `zip_events`) is nonzero. On a
    /// difference taken by `since`, whether anything happened beyond
    /// latency samples: a backoff or gate-wait sample alone is no event.
    pub(crate) fn has_events(&self) -> bool {
        TelemetrySnapshot::default()
            .zip_events(self, |_, v| (v == 0).then_some(()))
            .is_none()
    }

    /// Whether `self` and `other` hold the same counts: every event
    /// counter, histogram bucket, sample count and sum, and per-thread
    /// row. A histogram's `max` is not a count and is not compared.
    pub(crate) fn same_counts(&self, other: &TelemetrySnapshot) -> bool {
        // Each difference exists only where its minuend is at least the
        // subtrahend everywhere, so both existing means every count is
        // equal; the sums wrap, so theirs must differ by zero.
        match (self.since(other), other.since(self)) {
            (Some(d), Some(_)) => [d.commit_ns, d.backoff_ns, d.gate_wait_ns]
                .iter()
                .all(|h| h.sum == 0),
            _ => false,
        }
    }

    /// Render the snapshot in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut w = Writer::new();
        self.write_prometheus(&mut w);
        w.finish()
    }

    /// Write the snapshot's families to `w`.
    pub(crate) fn write_prometheus(&self, w: &mut Writer) {
        // Build-info stamp first: consumers check the schema label before
        // trusting any family below it.
        w.family("gstm_build_info", Kind::Gauge).sample(
            &[("schema", &SCHEMA_VERSION), ("version", &BUILD_VERSION)],
            1,
        );
        w.counter("gstm_commits_total", self.commits);
        let mut f = w.family("gstm_aborts_total", Kind::Counter);
        for (name, v) in ABORT_CAUSE_NAMES.iter().zip(&self.aborts) {
            f.sample(&[("cause", name)], v);
        }
        let mut f = w.family("gstm_gate_outcomes_total", Kind::Counter);
        for (name, v) in [
            ("passed", self.gate_passed),
            ("waited", self.gate_waited),
            ("released", self.gate_released),
        ] {
            f.sample(&[("outcome", &name)], v);
        }
        w.counter("gstm_trace_dropped_total", self.trace_dropped);
        // Emitted unconditionally (0 for fixed-model runs) so dashboards
        // and the analyzer can rely on the family existing.
        w.counter("gstm_model_swaps_total", self.model_swaps);
        // Breaker/degradation families are likewise unconditional: a
        // clean run exports explicit zeros, so "no degradation" is
        // distinguishable from "artifacts predate the breaker".
        w.counter("gstm_breaker_tripped_total", self.breaker_trips);
        w.counter("gstm_breaker_reclosed_total", self.breaker_recloses);
        w.counter("gstm_breaker_half_open_total", self.breaker_probes);
        w.counter(
            "gstm_breaker_model_rejected_total",
            self.breaker_model_rejected,
        );
        // 0 closed, 1 open, 2 half-open.
        w.gauge("gstm_breaker_state", self.breaker_state);
        w.counter("gstm_guardian_restarts_total", self.guardian_restarts);
        // Contention families are emitted only when the harness attached
        // a tracker — absence means "artifacts predate conflict
        // provenance" (or the run disabled it), which the analyzer
        // treats as "checks not applicable".
        if let Some(ct) = &self.contention {
            w.counter("gstm_contention_attributed_total", ct.attributed);
            w.counter("gstm_contention_unattributed_total", ct.unattributed);
            w.counter("gstm_contention_residual_total", ct.residual);
            w.counter("gstm_contention_owner_unknown_total", ct.owner_unknown);
            w.counter("gstm_contention_sketch_replacements_total", ct.replacements);
            let mut f = w.family("gstm_contention_sketch_slots", Kind::Gauge);
            f.sample(&[("state", &"occupied")], ct.occupied);
            f.sample(&[("state", &"capacity")], ct.capacity);
            if !ct.top.is_empty() {
                let mut f = w.family("gstm_contention_addr_aborts_total", Kind::Counter);
                for (rank, h) in ct.top.iter().enumerate() {
                    f.sample(
                        &[("rank", &rank), ("addr", &format_args!("{:#x}", h.addr))],
                        h.count,
                    );
                }
                let mut f = w.family("gstm_contention_addr_error", Kind::Gauge);
                for (rank, h) in ct.top.iter().enumerate() {
                    f.sample(
                        &[("rank", &rank), ("addr", &format_args!("{:#x}", h.addr))],
                        h.err,
                    );
                }
            }
            if !ct.pairs.is_empty() {
                let mut f = w.family("gstm_contention_pair_aborts_total", Kind::Counter);
                for p in &ct.pairs {
                    f.sample(&[("victim", &p.victim), ("owner", &p.owner)], p.count);
                }
            }
        }
        let mut f = w.family("gstm_thread_commits_total", Kind::Counter);
        for t in &self.per_thread {
            f.sample(&[("thread", &t.cell)], t.commits);
        }
        let mut f = w.family("gstm_thread_aborts_total", Kind::Counter);
        for t in &self.per_thread {
            f.sample(&[("thread", &t.cell)], t.aborts_total());
        }
        // Per-thread cause/outcome breakdowns: the inputs for per-thread
        // variance analysis, scrapeable rather than aggregate-only. Only
        // populated series are emitted to keep the exposition compact.
        let mut f = w.family("gstm_thread_abort_causes_total", Kind::Counter);
        for t in &self.per_thread {
            for (name, &v) in ABORT_CAUSE_NAMES.iter().zip(&t.aborts) {
                if v != 0 {
                    f.sample(&[("thread", &t.cell), ("cause", name)], v);
                }
            }
        }
        let mut f = w.family("gstm_thread_gate_outcomes_total", Kind::Counter);
        for t in &self.per_thread {
            for (name, v) in [
                ("passed", t.gate_passed),
                ("waited", t.gate_waited),
                ("released", t.gate_released),
            ] {
                if v != 0 {
                    f.sample(&[("thread", &t.cell), ("outcome", &name)], v);
                }
            }
        }
        if let Some(d) = &self.model_drift {
            let mut f = w.family("gstm_model_transitions_total", Kind::Counter);
            for (edge, v) in [
                ("modeled", d.on_edge),
                ("unmodeled", d.off_edge),
                ("to_unknown", d.to_unknown),
                ("from_unknown", d.from_unknown),
            ] {
                f.sample(&[("edge", &edge)], v);
            }
            w.gauge("gstm_model_off_model_pct", d.off_model_pct);
            let mut f = w.family("gstm_model_kl_divergence_nats", Kind::Gauge);
            f.sample(&[("stat", &"mean")], d.mean_kl_nats);
            f.sample(&[("stat", &"max")], d.max_kl_nats);
            let mut f = w.family("gstm_model_guidance_metric_pct", Kind::Gauge);
            f.sample(&[("source", &"profiled")], d.profiled_metric_pct);
            if let Some(obs) = d.observed_metric_pct {
                f.sample(&[("source", &"observed")], obs);
            }
            let mut f = w.family("gstm_model_states", Kind::Gauge);
            f.sample(&[("kind", &"modeled")], d.modeled_states);
            f.sample(&[("kind", &"observed")], d.observed_states);
            // 0 insufficient, 1 fresh, 2 drifting, 3 stale.
            w.gauge("gstm_model_staleness", d.verdict.code());
        }
        for (name, h) in [
            ("gstm_commit_duration_ns", &self.commit_ns),
            ("gstm_abort_backoff_ns", &self.backoff_ns),
            ("gstm_gate_wait_ns", &self.gate_wait_ns),
        ] {
            w.histogram(
                name,
                &h.buckets,
                |i| LatencyHistogram::bucket_range(i).1,
                h.sum,
                h.count,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL export / import
// ---------------------------------------------------------------------------

fn cause_name(cause: AbortCause) -> &'static str {
    ABORT_CAUSE_NAMES[cause_index(cause)]
}

/// Serialize trace events as JSONL: a schema-stamped meta line followed
/// by one self-contained JSON object per event, in input order.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"kind\":\"meta\",\"schema\":{TRACE_SCHEMA_VERSION},\"version\":\"{BUILD_VERSION}\"}}"
    );
    for ev in events {
        out.push_str(&event_json(ev, true));
        out.push('\n');
    }
    out
}

/// One trace event as a flat JSON object: the one serializer behind
/// [`export_jsonl`] (`with_ts`) and the incident dump, which omits
/// `ts_ns` so a chaos-seeded dump replays bit-identically (`seq` order
/// is the causal record).
pub(crate) fn event_json(ev: &TraceEvent, with_ts: bool) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\"seq\":{}", ev.seq);
    if with_ts {
        let _ = write!(out, ",\"ts_ns\":{}", ev.ts_ns);
    }
    let _ = write!(
        out,
        ",\"txn\":{},\"thread\":{}",
        ev.pair.txn.0, ev.pair.thread.0
    );
    match ev.kind {
        TraceKind::Begin => out.push_str(",\"kind\":\"begin\""),
        TraceKind::GateWait { wait_ns } => {
            let _ = write!(out, ",\"kind\":\"gate_wait\",\"wait_ns\":{wait_ns}");
        }
        TraceKind::Abort { cause, addr } => {
            let _ = write!(
                out,
                ",\"kind\":\"abort\",\"cause\":\"{}\"",
                cause_name(cause)
            );
            if let Some(t) = cause.conflicting_thread() {
                let _ = write!(out, ",\"conflict\":{}", t.0);
            }
            // Optional field (like "conflict"): artifacts written before
            // conflict provenance lack it and parse_jsonl defaults it to 0.
            if addr != 0 {
                let _ = write!(out, ",\"addr\":{addr}");
            }
        }
        TraceKind::Commit { commit_ns, writes } => {
            let _ = write!(out, ",\"kind\":\"commit\",\"commit_ns\":{commit_ns}");
            let _ = write!(out, ",\"writes\":{writes}");
        }
        TraceKind::StateTransition { from, to } => {
            let _ = write!(
                out,
                ",\"kind\":\"state_transition\",\"from\":{from},\"to\":{to}"
            );
        }
        TraceKind::State { key } => {
            let _ = write!(out, ",\"kind\":\"state\",\"key\":{key}");
        }
        TraceKind::ModelSwap { epoch, verdict } => {
            let _ = write!(out, ",\"kind\":\"model_swap\",\"epoch\":{epoch}");
            let _ = write!(out, ",\"verdict\":{verdict}");
        }
        TraceKind::Breaker { from, to, cause } => {
            let _ = write!(out, ",\"kind\":\"breaker\",\"from\":{from},\"to\":{to}");
            let _ = write!(out, ",\"cause\":{cause}");
        }
    }
    out.push('}');
    out
}

/// Parse JSONL produced by [`export_jsonl`] back into events, preserving
/// order. Every non-blank line must be a complete JSON object; the
/// first malformed line is returned as a line-numbered error.
pub fn parse_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    use crate::ids::{ThreadId, TxnId};
    use crate::json::Value;
    use TraceKind as K;
    let mut out = Vec::new();
    for (n, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", n + 1);
        let obj = crate::json::parse(line).map_err(|e| err(&format!("invalid JSON ({e})")))?;
        let num = |key: &str| obj.get(key).and_then(Value::as_u64);
        let req = |key: &str| num(key).ok_or_else(|| err(&format!("missing {key}")));
        let text = |key: &str| obj.get(key).and_then(Value::as_str);
        // Schema-stamped meta line (absent in artifacts that predate the
        // stamp, which is tolerated; a *mismatched* stamp is a hard error
        // so a newer or older exporter is never silently misparsed).
        if text("kind") == Some("meta") {
            match num("schema") {
                Some(s) if s == u64::from(TRACE_SCHEMA_VERSION) => continue,
                Some(s) => {
                    return Err(format!(
                        "line {}: artifact schema {s} but this build reads schema \
                         {TRACE_SCHEMA_VERSION}; re-export with a matching gstm version",
                        n + 1
                    ))
                }
                None => return Err(err("meta line missing schema")),
            }
        }
        let (seq, ts_ns) = (req("seq")?, req("ts_ns")?);
        let pair = Pair::new(TxnId(req("txn")? as u16), ThreadId(req("thread")? as u16));
        let conflict = num("conflict").map(|t| ThreadId(t as u16));
        let kind = match text("kind").ok_or_else(|| err("missing kind"))? {
            "begin" => K::Begin,
            "gate_wait" => K::GateWait {
                wait_ns: req("wait_ns")?,
            },
            "abort" => {
                let cause = match text("cause").ok_or_else(|| err("missing cause"))? {
                    "read_locked" => AbortCause::ReadLocked { owner: conflict },
                    "read_version" => AbortCause::ReadVersion,
                    "commit_lock_busy" => AbortCause::CommitLockBusy { owner: conflict },
                    "validation" => AbortCause::Validation,
                    "aborted_by_writer" => AbortCause::AbortedByWriter { writer: conflict },
                    "explicit" => AbortCause::Explicit,
                    _ => return Err(err("unknown cause")),
                };
                // Tolerant: artifacts older than conflict provenance have
                // no "addr" field.
                K::Abort {
                    cause,
                    addr: num("addr").unwrap_or(0) as usize,
                }
            }
            "commit" => K::Commit {
                commit_ns: req("commit_ns")?,
                writes: req("writes")? as u32,
            },
            "state_transition" => K::StateTransition {
                from: req("from")? as u32,
                to: req("to")? as u32,
            },
            "state" => K::State { key: req("key")? },
            "model_swap" => K::ModelSwap {
                epoch: req("epoch")? as u32,
                verdict: req("verdict")? as u8,
            },
            "breaker" => {
                let (from, to) = (req("from")? as u8, req("to")? as u8);
                K::Breaker {
                    from,
                    to,
                    cause: req("cause")? as u8,
                }
            }
            _ => return Err(err("unknown kind")),
        };
        out.push(TraceEvent {
            seq,
            ts_ns,
            pair,
            kind,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// chrome://tracing export
// ---------------------------------------------------------------------------

/// Synthetic `tid` carrying the TSA state-residency timeline in the
/// chrome trace (distinct from any real thread id, which are u16).
const TSA_TRACK_TID: u32 = 0x1_0000;

fn fmt_us(ns: u64) -> String {
    // chrome trace `ts`/`dur` are microseconds; keep ns resolution with
    // three decimals.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn state_name(id: u32) -> String {
    if id == UNKNOWN_STATE {
        "unknown".to_string()
    } else {
        format!("S{id}")
    }
}

/// One `traceEvents` entry: a duration slice (`"ph":"X"`) from
/// `start_ns` when `dur_ns` is set, else an instant (`"ph":"i"`) whose
/// scope (`t`hread, `p`rocess or `g`lobal) is `scope`; slices pass `""`.
fn chrome_entry(
    name: &str,
    cat: &str,
    start_ns: u64,
    dur_ns: Option<u64>,
    tid: u32,
    scope: &str,
    args: &str,
) -> String {
    let (ph, dur, scope) = match dur_ns {
        Some(d) => ("X", format!(",\"dur\":{}", fmt_us(d)), String::new()),
        None => ("i", String::new(), format!(",\"s\":\"{scope}\"")),
    };
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{}{dur},\"pid\":0,\
         \"tid\":{tid}{scope},\"args\":{{{args}}}}}",
        fmt_us(start_ns)
    )
}

/// Serialize trace events as a chrome://tracing `trace_event` JSON
/// document (openable in Perfetto / chrome://tracing).
///
/// Mapping: commits and gate waits become duration (`"X"`) slices ending
/// at their record timestamp; begins and aborts become instants (`"i"`);
/// [`TraceKind::State`] records are omitted;
/// [`TraceKind::StateTransition`] events additionally synthesize a
/// state-residency timeline of `"X"` slices on the dedicated
/// `TSA_TRACK_TID` track — each slice spans from one transition to the
/// next and is named after the state the system resided in.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::new();
    entries.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{TSA_TRACK_TID},\
         \"args\":{{\"name\":\"TSA state\"}}}}"
    ));
    let mut transitions: Vec<(u64, u32, u32)> = Vec::new();
    let mut max_ts = 0u64;
    for ev in events {
        max_ts = max_ts.max(ev.ts_ns);
        let tid = u32::from(ev.pair.thread.0);
        let txn = ev.pair.txn.0;
        let (ts, seq) = (ev.ts_ns, format!("\"seq\":{}", ev.seq));
        let entry = match ev.kind {
            TraceKind::Begin => {
                chrome_entry(&format!("begin:t{txn}"), "tx", ts, None, tid, "t", &seq)
            }
            TraceKind::GateWait { wait_ns } => {
                let start = ts.saturating_sub(wait_ns);
                chrome_entry("gate", "gate", start, Some(wait_ns), tid, "", &seq)
            }
            TraceKind::Abort { cause, addr } => {
                let culprit = match addr {
                    0 => String::new(),
                    a => format!(",\"addr\":\"{a:#x}\""),
                };
                let (name, args) = (format!("abort:{}", cause_name(cause)), seq + &culprit);
                chrome_entry(&name, "abort", ts, None, tid, "t", &args)
            }
            TraceKind::Commit { commit_ns, writes } => {
                let (start, name) = (ts.saturating_sub(commit_ns), format!("commit:t{txn}"));
                let args = format!("{seq},\"writes\":{writes}");
                chrome_entry(&name, "tx", start, Some(commit_ns), tid, "", &args)
            }
            TraceKind::StateTransition { from, to } => {
                transitions.push((ts, from, to));
                let args = format!("{seq},\"from\":\"{}\"", state_name(from));
                chrome_entry(&state_name(to), "tsa", ts, None, tid, "p", &args)
            }
            // Swaps and breaker flips go on the TSA track: a swap
            // punctuates the state-residency timeline it invalidates, a
            // flip changes how that timeline is enforced.
            TraceKind::ModelSwap { epoch, verdict } => {
                let name = format!("model_swap:e{epoch}");
                let args = format!("{seq},\"verdict\":{verdict}");
                chrome_entry(&name, "tsa", ts, None, TSA_TRACK_TID, "g", &args)
            }
            TraceKind::Breaker { from, to, cause } => {
                let name = format!(
                    "breaker:{}->{}",
                    crate::breaker::BreakerState::from_code(from).label(),
                    crate::breaker::BreakerState::from_code(to).label()
                );
                let args = format!("{seq},\"from\":{from},\"cause\":{cause}");
                chrome_entry(&name, "tsa", ts, None, TSA_TRACK_TID, "g", &args)
            }
            // The TSA track already shows the transitions states cause.
            TraceKind::State { .. } => continue,
        };
        entries.push(entry);
    }
    // Residency slices: state `to` holds from its transition until the
    // next one (or the end of the trace).
    transitions.sort_by_key(|&(ts, _, _)| ts);
    for (i, &(ts, from, to)) in transitions.iter().enumerate() {
        let end = transitions.get(i + 1).map_or(max_ts, |n| n.0).max(ts + 1);
        let (dur, args) = (end - ts, format!("\"from\":\"{}\"", state_name(from)));
        let name = state_name(to);
        entries.push(chrome_entry(
            &name,
            "tsa",
            ts,
            Some(dur),
            TSA_TRACK_TID,
            "",
            &args,
        ));
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ThreadId, TxnId};

    fn p(t: u16, th: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(th))
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        // Exact power-of-2 boundaries start a new bucket; their
        // predecessors close the previous one.
        for k in 1..=62u32 {
            let v = 1u64 << k;
            assert_eq!(LatencyHistogram::bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(LatencyHistogram::bucket_index(v - 1), k as usize, "2^{k}-1");
        }
        assert_eq!(LatencyHistogram::bucket_index(1u64 << 63), 64);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 64, "saturates");
    }

    #[test]
    fn bucket_ranges_partition_u64() {
        assert_eq!(LatencyHistogram::bucket_range(0), (0, 0));
        for i in 1..NUM_BUCKETS {
            let (lo, hi) = LatencyHistogram::bucket_range(i);
            let (_, prev_hi) = LatencyHistogram::bucket_range(i - 1);
            assert_eq!(lo, prev_hi + 1, "bucket {i} starts after bucket {}", i - 1);
            assert_eq!(LatencyHistogram::bucket_index(lo), i);
            assert_eq!(LatencyHistogram::bucket_index(hi), i);
        }
        assert_eq!(LatencyHistogram::bucket_range(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[10], 1); // 1000 in [512, 1023]
        assert_eq!(s.buckets[64], 1); // u64::MAX
        assert!(s.mean() > 0.0);
        assert_eq!(s.quantile_upper_bound(0.5), 3);
    }

    #[test]
    fn counters_aggregate_across_cells() {
        let tel = Telemetry::counters_only();
        tel.record_commit(p(0, 0), 10);
        tel.record_commit(p(0, 1), 20);
        tel.record_abort(p(0, 1), AbortCause::Validation);
        tel.record_abort(p(0, 1), AbortCause::Explicit);
        tel.record_gate_outcome(p(0, 0), GateOutcome::Passed);
        tel.record_gate_outcome(p(0, 1), GateOutcome::Waited);
        tel.record_gate_outcome(p(0, 1), GateOutcome::Released);
        let s = tel.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.aborts_total(), 2);
        assert_eq!(s.aborts[cause_index(AbortCause::Validation)], 1);
        assert_eq!(s.explicit_retries(), 1);
        assert_eq!((s.gate_passed, s.gate_waited, s.gate_released), (1, 1, 1));
        assert_eq!(s.gate_total(), 3);
        assert_eq!(s.commit_ns.count, 2);
        assert_eq!(s.per_thread.len(), 2);
        assert_eq!(s.per_thread[1].aborts_total(), 2);
        assert_eq!(s.per_thread[1].gate_total(), 2);
    }

    #[test]
    fn aliased_threads_share_a_cell() {
        let tel = Telemetry::counters_only();
        tel.record_commit(p(0, 1), 5);
        tel.record_commit(p(0, 1 + crate::sync::SLOTS as u16), 5);
        let s = tel.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.per_thread.len(), 1, "aliases share cell 1");
        assert_eq!(s.per_thread[0].commits, 2);
    }

    #[test]
    fn clock_is_monotonic_nondecreasing() {
        let c = Clock::new();
        let mut prev = 0u64;
        for _ in 0..10_000 {
            let now = c.now_ns();
            assert!(now >= prev);
            prev = now;
        }
        assert!(prev > 0, "time advanced");
    }

    #[test]
    fn trace_ring_bounds_memory_and_keeps_newest() {
        let tel = Telemetry::with_trace_capacity(4);
        for i in 0..10u64 {
            tel.trace(p(0, 0), TraceKind::GateWait { wait_ns: i });
        }
        let events = tel.trace_events();
        assert_eq!(events.len(), 4, "ring capped");
        assert_eq!(tel.trace_dropped(), 6);
        // The newest four survive, in sequence order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn tracing_disabled_records_nothing() {
        let tel = Telemetry::counters_only();
        assert!(!tel.trace_enabled());
        tel.trace(p(0, 0), TraceKind::Begin);
        assert!(tel.trace_events().is_empty());
        assert_eq!(tel.trace_dropped(), 0);
    }

    #[test]
    fn trace_events_merge_shards_in_sequence_order() {
        let tel = std::sync::Arc::new(Telemetry::new());
        let mut handles = Vec::new();
        for th in 0..4u16 {
            let tel = std::sync::Arc::clone(&tel);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    tel.trace(p((i % 3) as u16, th), TraceKind::Begin);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = tel.trace_events();
        assert_eq!(events.len(), 200);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn per_thread_histograms_merge_to_a_one_thread_reference() {
        // Thread `th` records samples `th, th + 2, th + 4, ...` spread
        // over many buckets; the reference records all of them from one
        // thread.
        const N: u64 = 20_000;
        let sample = |i: u64| (i * 7919) % 1_000_003;
        let tel = std::sync::Arc::new(Telemetry::counters_only());
        let writers: Vec<_> = (0..2u16)
            .map(|th| {
                let tel = std::sync::Arc::clone(&tel);
                std::thread::spawn(move || {
                    for i in (u64::from(th)..N).step_by(2) {
                        let who = p(0, th);
                        tel.record_commit(who, sample(i));
                        tel.record_backoff(who, sample(i) / 3);
                        tel.record_gate_wait(who, sample(i) / 5);
                    }
                })
            })
            .collect();
        // Snapshots taken while the writers run are self-consistent: each
        // count is its bucket sum and the commits are the commit count.
        while !writers.iter().all(|w| w.is_finished()) {
            let s = tel.snapshot();
            for h in [&s.commit_ns, &s.backoff_ns, &s.gate_wait_ns] {
                assert_eq!(h.count, h.buckets.iter().sum::<u64>());
            }
            assert_eq!(s.commits, s.commit_ns.count);
            assert_eq!(
                s.per_thread.iter().map(|t| t.commits).sum::<u64>(),
                s.commits
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        let reference = Telemetry::counters_only();
        for i in 0..N {
            reference.record_commit(p(0, 0), sample(i));
            reference.record_backoff(p(0, 0), sample(i) / 3);
            reference.record_gate_wait(p(0, 0), sample(i) / 5);
        }
        let (s, r) = (tel.snapshot(), reference.snapshot());
        assert_eq!(s.commit_ns, r.commit_ns);
        assert_eq!(s.backoff_ns, r.backoff_ns);
        assert_eq!(s.gate_wait_ns, r.gate_wait_ns);
        assert_eq!((s.commit_ns.count, s.commits), (N, N));
        assert_eq!(s.commit_ns.max, (0..N).map(sample).max().unwrap());
        assert_eq!(s.per_thread.len(), 2);
        for (th, t) in s.per_thread.iter().enumerate() {
            let own = tel.cells.get(th).latency.get().expect("recorded");
            assert_eq!(t.commits, own.commit.snapshot().count);
            assert_eq!(t.commits, N / 2);
        }
    }

    #[test]
    fn dropped_events_are_the_sum_of_each_rings_overwrites() {
        let tel = Telemetry::with_trace_capacity(4);
        for (th, n) in [(0u16, 10u64), (1, 7), (2, 3)] {
            for i in 0..n {
                tel.trace(p(0, th), TraceKind::GateWait { wait_ns: i });
            }
        }
        let rings: Vec<u64> = tel.trace.iter().map(|r| r.lock().dropped).collect();
        assert_eq!(rings[..3], [6, 3, 0]);
        assert_eq!(tel.trace_dropped(), rings.iter().sum::<u64>());
        assert_eq!(tel.snapshot().trace_dropped, 9);
        assert_eq!(tel.trace_events().len(), 4 + 4 + 3);
    }

    /// Raise every event counter, histogram bucket, sum and maximum of
    /// `s` and every counter of cells `0..cells` (adding the rows that
    /// are missing) by a random step from `min..min + 4`. Each count
    /// stays its bucket sum.
    fn grow(s: &mut TelemetrySnapshot, rng: &mut crate::rng::SplitMix64, min: u64, cells: usize) {
        let mut step = || min + rng.below(4);
        let zero = TelemetrySnapshot::default();
        s.zip_events(&zero, |a, _| add(a, step()));
        for h in [&mut s.commit_ns, &mut s.backoff_ns, &mut s.gate_wait_ns] {
            h.buckets.resize(NUM_BUCKETS, 0);
            for b in &mut h.buckets {
                *b += step();
            }
            h.count = h.buckets.iter().sum();
            h.sum = h.sum.wrapping_add(step() << 40);
            h.max += step();
        }
        for cell in 0..cells {
            if s.per_thread.iter().all(|r| r.cell != cell) {
                s.per_thread.push(ThreadCounters {
                    cell,
                    ..Default::default()
                });
            }
        }
        for row in &mut s.per_thread {
            row.zip_counts(&ThreadCounters::default(), |a, _| add(a, step()));
        }
        s.per_thread.sort_by_key(|r| r.cell);
    }

    /// A snapshot whose every counter, bucket and row counter is at
    /// least 1, with one to three cells.
    fn random_snapshot(rng: &mut crate::rng::SplitMix64) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        let cells = 1 + rng.below(3) as usize;
        grow(&mut s, rng, 1, cells);
        s
    }

    #[test]
    fn absorbing_the_difference_gives_the_newer_snapshot_back() {
        for seed in 0..300 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let older = random_snapshot(&mut rng);
            let mut newer = older.clone();
            let cells = 1 + rng.below(4) as usize;
            grow(&mut newer, &mut rng, 0, cells);
            newer.breaker_state = 2;
            let d = newer.since(&older).expect("a grown snapshot is later");
            assert!(d.per_thread.iter().all(|r| !r.is_empty()), "seed {seed}");
            let mut back = older.clone();
            back.absorb(&d);
            // The exposition renders every counter, bucket, count, sum,
            // per-thread row and the breaker position; the maxima are
            // checked apart.
            assert_eq!(
                back.render_prometheus(),
                newer.render_prometheus(),
                "seed {seed}"
            );
            assert!(
                back.same_counts(&newer) && newer.same_counts(&back),
                "seed {seed}"
            );
            for (h, n) in [
                (&back.commit_ns, &newer.commit_ns),
                (&back.backoff_ns, &newer.backoff_ns),
                (&back.gate_wait_ns, &newer.gate_wait_ns),
            ] {
                assert_eq!(h.max, n.max, "seed {seed}: a maximum is not subtracted");
            }
            let nothing = newer.since(&newer).expect("a snapshot is not below itself");
            assert!(
                !nothing.has_events() && nothing.per_thread.is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn a_counter_that_went_down_has_no_difference() {
        for seed in 0..300 {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let older = random_snapshot(&mut rng);
            let mut newer = older.clone();
            grow(&mut newer, &mut rng, 0, 4);
            let what = match rng.below(5) {
                0 => {
                    // One of the 16 event counters.
                    let mut k = rng.below(16);
                    newer.zip_events(&older, |a, b| {
                        if k == 0 {
                            *a = b - 1;
                        }
                        k = k.wrapping_sub(1);
                        Some(())
                    });
                    "event counter"
                }
                1 => {
                    let i = rng.below(NUM_BUCKETS as u64) as usize;
                    newer.backoff_ns.buckets[i] = older.backoff_ns.buckets[i] - 1;
                    "bucket"
                }
                2 => {
                    newer.gate_wait_ns.count = older.gate_wait_ns.count - 1;
                    "count"
                }
                3 => {
                    let row = &mut newer.per_thread[0];
                    let mut k = rng.below(10);
                    row.zip_counts(&older.per_thread[0], |a, b| {
                        if k == 0 {
                            *a = b - 1;
                        }
                        k = k.wrapping_sub(1);
                        Some(())
                    });
                    "row counter"
                }
                _ => {
                    let gone =
                        older.per_thread[rng.below(older.per_thread.len() as u64) as usize].cell;
                    newer.per_thread.retain(|r| r.cell != gone);
                    "row"
                }
            };
            assert!(newer.since(&older).is_none(), "seed {seed}: lowered {what}");
            assert!(!newer.same_counts(&older), "seed {seed}: lowered {what}");
        }
    }

    #[test]
    fn cell_snapshots_merge_to_the_totals() {
        let tel = Telemetry::counters_only();
        tel.record_commit(p(0, 1), 40);
        tel.record_abort(p(0, 1), AbortCause::Validation);
        tel.record_gate_outcome(p(0, 3), GateOutcome::Released);
        tel.record_backoff(p(0, 5), 9);
        tel.record_breaker_transition(0, 1, 7);
        let s = tel.snapshot();
        assert_eq!(
            s.breaker_state, 1,
            "no cell overwrites the breaker position"
        );
        assert_eq!((s.commits, s.aborts_total(), s.gate_released), (1, 1, 1));
        assert_eq!(s.backoff_ns.count, 1);
        // A cell with only latency samples records no counted event.
        let cells: Vec<usize> = s.per_thread.iter().map(|t| t.cell).collect();
        assert_eq!(cells, [1, 3]);
        assert_eq!(s.commit_ns.buckets.len(), NUM_BUCKETS);
        assert_eq!(s.gate_wait_ns.buckets.len(), NUM_BUCKETS);
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent { seq: 0, ts_ns: 100, pair: p(1, 2), kind: TraceKind::Begin },
            TraceEvent {
                seq: 1,
                ts_ns: 220,
                pair: p(1, 2),
                kind: TraceKind::GateWait { wait_ns: 120 },
            },
            TraceEvent {
                seq: 2,
                ts_ns: 300,
                pair: p(1, 2),
                kind: TraceKind::Abort {
                    cause: AbortCause::ReadLocked { owner: Some(ThreadId(7)) },
                    addr: 0xdead_b000,
                },
            },
            TraceEvent {
                seq: 3,
                ts_ns: 340,
                pair: p(0, 3),
                kind: TraceKind::Abort {
                    cause: AbortCause::CommitLockBusy { owner: None },
                    addr: 0,
                },
            },
            TraceEvent {
                seq: 4,
                ts_ns: 400,
                pair: p(1, 2),
                kind: TraceKind::Commit { commit_ns: 55, writes: 3 },
            },
            TraceEvent {
                seq: 5,
                ts_ns: 401,
                pair: p(1, 2),
                kind: TraceKind::StateTransition { from: UNKNOWN_STATE, to: 4 },
            },
            TraceEvent {
                seq: 6,
                ts_ns: 500,
                pair: p(0, 3),
                kind: TraceKind::StateTransition { from: 4, to: 9 },
            },
            TraceEvent {
                seq: 7,
                ts_ns: 550,
                pair: p(0, 0),
                kind: TraceKind::ModelSwap { epoch: 1, verdict: 3 },
            },
            TraceEvent {
                seq: 8,
                ts_ns: 560,
                pair: p(0, 3),
                kind: TraceKind::State { key: u64::MAX },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events = sample_events();
        let jsonl = export_jsonl(&events);
        // One schema-stamped meta line, then one line per event.
        assert_eq!(jsonl.lines().count(), events.len() + 1);
        assert!(jsonl.starts_with(&format!(
            "{{\"kind\":\"meta\",\"schema\":{TRACE_SCHEMA_VERSION}"
        )));
        let parsed = parse_jsonl(&jsonl).expect("parses");
        assert_eq!(parsed, events, "count, ordering, and payloads survive");
    }

    #[test]
    fn trace_event_serializer_golden_bytes() {
        use TraceKind as K;
        let ev = |seq, kind| TraceEvent {
            seq,
            ts_ns: 1_000 + seq,
            pair: p(seq as u16, 2),
            kind,
        };
        let read_locked = AbortCause::ReadLocked {
            owner: Some(ThreadId(7)),
        };
        let golden = [
            (ev(0, K::Begin), r#""kind":"begin""#),
            (
                ev(1, K::GateWait { wait_ns: 120 }),
                r#""kind":"gate_wait","wait_ns":120"#,
            ),
            (
                ev(
                    2,
                    K::Abort {
                        cause: read_locked,
                        addr: usize::MAX,
                    },
                ),
                r#""kind":"abort","cause":"read_locked","conflict":7,"addr":18446744073709551615"#,
            ),
            (
                ev(
                    3,
                    K::Abort {
                        cause: AbortCause::Validation,
                        addr: 0,
                    },
                ),
                r#""kind":"abort","cause":"validation""#,
            ),
            (
                ev(
                    4,
                    K::Commit {
                        commit_ns: 55,
                        writes: 3,
                    },
                ),
                r#""kind":"commit","commit_ns":55,"writes":3"#,
            ),
            (
                ev(
                    5,
                    K::StateTransition {
                        from: UNKNOWN_STATE,
                        to: 4,
                    },
                ),
                r#""kind":"state_transition","from":4294967295,"to":4"#,
            ),
            (
                ev(
                    6,
                    K::ModelSwap {
                        epoch: 1,
                        verdict: 3,
                    },
                ),
                r#""kind":"model_swap","epoch":1,"verdict":3"#,
            ),
            (
                ev(
                    7,
                    K::Breaker {
                        from: 0,
                        to: 1,
                        cause: 2,
                    },
                ),
                r#""kind":"breaker","from":0,"to":1,"cause":2"#,
            ),
            (
                ev(8, K::State { key: u64::MAX }),
                r#""kind":"state","key":18446744073709551615"#,
            ),
        ];
        let mut jsonl = String::new();
        for (e, tail) in &golden {
            // `ev` puts txn = seq on thread 2.
            for with_ts in [false, true] {
                let out = event_json(e, with_ts);
                let ts = if with_ts {
                    format!(",\"ts_ns\":{}", e.ts_ns)
                } else {
                    String::new()
                };
                let want = format!("{{\"seq\":{0}{ts},\"txn\":{0},\"thread\":2,{tail}}}", e.seq);
                assert_eq!(out, want);
                crate::json::parse(&out).expect("serializer output is JSON");
            }
            jsonl.push_str(&event_json(e, true));
            jsonl.push('\n');
        }
        let events: Vec<TraceEvent> = golden.iter().map(|(e, _)| *e).collect();
        assert!(export_jsonl(&events).ends_with(&jsonl));
        assert_eq!(parse_jsonl(&jsonl).unwrap(), events);
    }

    #[test]
    fn jsonl_schema_stamp_is_enforced() {
        // A mismatched stamp is a hard, descriptive error...
        let err = parse_jsonl("{\"kind\":\"meta\",\"schema\":999}\n").unwrap_err();
        assert!(err.contains("schema 999"), "got: {err}");
        assert!(err.contains("re-export"), "got: {err}");
        // A schema-1 trace predates State events: rejected, not misread.
        let err = parse_jsonl("{\"kind\":\"meta\",\"schema\":1}\n").unwrap_err();
        assert!(err.contains("schema 1 but"), "got: {err}");
        // ...a matching stamp is skipped; a missing stamp (pre-PR8
        // artifact) is tolerated.
        let line = "{\"seq\":0,\"ts_ns\":1,\"txn\":0,\"thread\":0,\"kind\":\"begin\"}";
        let stamped = format!("{{\"kind\":\"meta\",\"schema\":{TRACE_SCHEMA_VERSION}}}\n{line}");
        assert_eq!(parse_jsonl(&stamped).unwrap().len(), 1);
        assert_eq!(parse_jsonl(line).unwrap().len(), 1);
        assert!(parse_jsonl("{\"kind\":\"meta\"}").is_err());
    }

    #[test]
    fn jsonl_parses_pre_pr7_abort_lines_without_addr() {
        // Artifacts written before conflict provenance carry no "addr"
        // field; they must still parse, with addr defaulting to 0.
        let legacy = "{\"seq\":9,\"ts_ns\":77,\"txn\":1,\"thread\":2,\
                      \"kind\":\"abort\",\"cause\":\"read_locked\",\"conflict\":7}";
        let parsed = parse_jsonl(legacy).expect("legacy line parses");
        assert_eq!(
            parsed[0].kind,
            TraceKind::Abort {
                cause: AbortCause::ReadLocked { owner: Some(ThreadId(7)) },
                addr: 0,
            }
        );
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"seq\":0}").is_err());
        assert!(parse_jsonl("{\"seq\":0,\"ts_ns\":1,\"txn\":0,\"thread\":0,\"kind\":\"nope\"}").is_err());
        assert!(parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn chrome_trace_is_structurally_valid() {
        let events = sample_events();
        let json = export_chrome_trace(&events);
        // metadata + one entry per event but the JSONL-only State record
        // + one residency slice per transition.
        let expected = 1 + (events.len() - 1) + 2;
        assert_eq!(chrome_trace_events(&json).len(), expected);
        assert!(json.contains("TSA state"));
        assert!(json.contains("\"name\":\"S4\""));
        assert!(json.contains("\"name\":\"unknown\"") || json.contains("\"from\":\"unknown\""));
    }

    /// The `traceEvents` array of a chrome trace, which must parse as
    /// one strict JSON document.
    fn chrome_trace_events(json: &str) -> Vec<crate::json::Value> {
        let doc = crate::json::parse(json).expect("chrome trace is valid JSON");
        doc.get("traceEvents")
            .and_then(crate::json::Value::as_array)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn chrome_trace_of_empty_input_is_valid() {
        let json = export_chrome_trace(&[]);
        assert_eq!(chrome_trace_events(&json).len(), 1, "metadata only");
    }

    #[test]
    fn snapshot_prometheus_exposition_contains_totals() {
        let tel = Telemetry::counters_only();
        tel.record_commit(p(0, 0), 128);
        tel.record_abort(p(0, 0), AbortCause::Validation);
        tel.record_gate_wait(p(0, 0), 64);
        tel.record_backoff(p(0, 0), 32);
        let prom = tel.snapshot().render_prometheus();
        assert!(prom.contains("gstm_commits_total 1"));
        assert!(prom.contains("gstm_aborts_total{cause=\"validation\"} 1"));
        assert!(prom.contains("gstm_commit_duration_ns_count 1"));
        assert!(prom.contains("gstm_commit_duration_ns_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("gstm_gate_wait_ns_sum 64"));
        assert!(prom.contains("gstm_abort_backoff_ns_count 1"));
        assert!(prom.contains("gstm_thread_commits_total{thread=\"0\"} 1"));
        // The swap family is always present, 0 without an adaptive hook.
        assert!(prom.contains("gstm_model_swaps_total 0"));
    }

    #[test]
    fn model_swaps_flow_into_counter_trace_and_prometheus() {
        let tel = Telemetry::with_trace_capacity(16);
        tel.record_model_swap(1, crate::drift::DriftVerdict::Stale);
        tel.record_model_swap(2, crate::drift::DriftVerdict::Drifting);
        assert_eq!(tel.model_swaps(), 2);
        let snap = tel.snapshot();
        assert_eq!(snap.model_swaps, 2);
        assert!(snap.render_prometheus().contains("gstm_model_swaps_total 2"));
        let swaps: Vec<_> = tel
            .trace_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceKind::ModelSwap { epoch, verdict } => Some((epoch, verdict)),
                _ => None,
            })
            .collect();
        assert_eq!(swaps, vec![(1, 3), (2, 2)]);
        // Counters-only telemetry still counts swaps, just without events.
        let quiet = Telemetry::counters_only();
        quiet.record_model_swap(1, crate::drift::DriftVerdict::Stale);
        assert_eq!(quiet.model_swaps(), 1);
        assert!(quiet.trace_events().is_empty());
    }

    #[test]
    fn prometheus_exposes_per_thread_breakdowns() {
        let tel = Telemetry::counters_only();
        tel.record_commit(p(0, 2), 10);
        tel.record_abort(p(0, 2), AbortCause::Validation);
        tel.record_abort(p(0, 5), AbortCause::Explicit);
        tel.record_gate_outcome(p(0, 2), GateOutcome::Waited);
        tel.record_gate_outcome(p(0, 5), GateOutcome::Passed);
        let prom = tel.snapshot().render_prometheus();
        assert!(prom.contains("gstm_thread_abort_causes_total{thread=\"2\",cause=\"validation\"} 1"));
        assert!(prom.contains("gstm_thread_abort_causes_total{thread=\"5\",cause=\"explicit\"} 1"));
        assert!(prom.contains("gstm_thread_gate_outcomes_total{thread=\"2\",outcome=\"waited\"} 1"));
        assert!(prom.contains("gstm_thread_gate_outcomes_total{thread=\"5\",outcome=\"passed\"} 1"));
        // Zero series are suppressed.
        assert!(!prom.contains("thread=\"2\",cause=\"explicit\""));
        assert!(!prom.contains("thread=\"2\",outcome=\"released\""));
    }

    #[test]
    fn attached_drift_tracker_flows_into_snapshot_and_prometheus() {
        use crate::config::GuidanceConfig;
        use crate::tsa::{GuidedModel, Tsa};
        use crate::tss::StateKey;
        let a = StateKey::solo(p(0, 0));
        let b = StateKey::solo(p(0, 1));
        let run: Vec<StateKey> = (0..60).map(|i| if i % 2 == 0 { a.clone() } else { b.clone() }).collect();
        let model = GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::default());
        let tracker = Arc::new(DriftTracker::new(&model));
        let tel = Telemetry::counters_only();
        assert!(tel.snapshot().model_drift.is_none(), "no tracker yet");
        tel.attach_drift(tracker.clone());
        for _ in 0..200 {
            tracker.record(0, 1);
            tracker.record(1, 0);
        }
        let snap = tel.snapshot();
        let d = snap.model_drift.as_ref().expect("drift attached");
        assert_eq!(d.on_edge, 400);
        assert_eq!(d.verdict, crate::drift::DriftVerdict::Fresh, "{}", d.reason);
        let prom = snap.render_prometheus();
        assert!(prom.contains("gstm_model_transitions_total{edge=\"modeled\"} 400"));
        assert!(prom.contains("gstm_model_off_model_pct 0"));
        assert!(prom.contains("gstm_model_kl_divergence_nats{stat=\"mean\"} 0"));
        assert!(prom.contains("gstm_model_guidance_metric_pct{source=\"profiled\"}"));
        assert!(prom.contains("gstm_model_guidance_metric_pct{source=\"observed\"}"));
        assert!(prom.contains("gstm_model_states{kind=\"modeled\"} 2"));
        assert!(prom.contains("gstm_model_staleness 1"));
    }

    #[test]
    fn contention_stats_flow_into_snapshot_and_prometheus() {
        use crate::contention::ContentionTracker;
        use crate::events::ConflictSite;
        let tel = Telemetry::counters_only();
        assert!(tel.snapshot().contention.is_none(), "absent until attached");
        assert!(
            !tel.snapshot()
                .render_prometheus()
                .contains("gstm_contention_"),
            "no contention families without a tracker"
        );
        let ct = ContentionTracker::new();
        for _ in 0..4 {
            ct.record(
                ThreadId(1),
                AbortCause::ReadLocked { owner: Some(ThreadId(2)) },
                ConflictSite::at(0xab00),
            );
        }
        ct.record(ThreadId(1), AbortCause::ReadVersion, ConflictSite::UNKNOWN);
        tel.set_contention(ct.snapshot());
        let snap = tel.snapshot();
        let c = snap.contention.as_ref().expect("attached");
        assert_eq!((c.attributed, c.unattributed), (4, 1));
        let prom = snap.render_prometheus();
        assert!(prom.contains("gstm_contention_attributed_total 4"));
        assert!(prom.contains("gstm_contention_unattributed_total 1"));
        assert!(prom.contains(
            "gstm_contention_addr_aborts_total{rank=\"0\",addr=\"0xab00\"} 4"
        ));
        assert!(prom.contains(
            "gstm_contention_pair_aborts_total{victim=\"1\",owner=\"2\"} 4"
        ));
        assert!(prom.contains("gstm_contention_sketch_slots{state=\"occupied\"} 1"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::new();
        h.record(1);
        h.record(2);
        h.record(3);
        let snap = h.snapshot();
        let mut w = Writer::new();
        w.histogram(
            "x",
            &snap.buckets,
            |i| LatencyHistogram::bucket_range(i).1,
            snap.sum,
            snap.count,
        );
        let out = w.finish();
        assert!(out.contains("x_bucket{le=\"1\"} 1"));
        assert!(out.contains("x_bucket{le=\"3\"} 3"));
        assert!(out.contains("x_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("x_count 3"));
        assert!(out.contains("x_sum 6"));
    }
}
