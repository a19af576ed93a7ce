//! Live operations plane: windowed telemetry, an SLO watchdog, a flight
//! recorder, and a dependency-free HTTP exporter.
//!
//! Everything the batch pipeline measures after a run — abort ratio,
//! gate released-rate, commit latency quantiles, drift/breaker verdicts,
//! hot addresses — this module re-derives *while the run executes*, as
//! per-window deltas over the existing [`Telemetry`] counters:
//!
//! * `WindowedTelemetry` snapshots the cumulative counters on a fixed
//!   cadence and keeps a bounded ring of per-window deltas plus a rollup
//!   of evicted windows, with the hard invariant that
//!   `Σ retained windows + evicted rollup == cumulative counters` exactly
//!   (a window is the exact difference of successive snapshots,
//!   `TelemetrySnapshot::since`, and the sums are
//!   `TelemetrySnapshot::absorb`, so the partition holds by
//!   construction — `WindowedTelemetry::check_partition` re-verifies it
//!   and `gstm-analyze` cross-checks the exported form).
//! * `SloWatchdog` is an Ok→Warn→Incident state machine with
//!   hysteresis (consecutive breaching windows to escalate, consecutive
//!   clean windows to step back down) over windowed rates plus the
//!   breaker position and drift verdict.
//! * Entering Incident trips the **flight recorder**: the last N
//!   windows, a trace-ring drain, the contention snapshot, and the drift
//!   verdict are serialized as a stamped incident artifact
//!   (`render_incident_json`) that `gstm-analyze` ingests. Trace
//!   events in the dump deliberately omit `ts_ns`: `seq` order is the
//!   causal truth, and dropping wall-clock noise is what makes a
//!   chaos-seeded incident replay bit-identically.
//! * [`serve`] runs a hand-rolled HTTP/1.1 exporter on one
//!   `std::net::TcpListener` service thread — no dependencies — serving
//!   `/metrics` (Prometheus text, live), `/health` (SLO verdict JSON,
//!   503 while in Incident), `/vars` (full snapshot JSON), and
//!   `/incidents`.
//!
//! ## Why this never touches the hot path
//!
//! The aggregator only ever calls [`Telemetry::snapshot`], which reads
//! the same relaxed atomics the backends already write; no
//! instrumentation point gains a branch, a fence, or a timestamp. The
//! exporter thread reads the aggregator under its own mutex. The only
//! coupling to a running STM is the `Arc<Telemetry>` it already
//! publishes to.

use crate::drift::DriftVerdict;
use crate::json::{array_lines, escape};
use crate::prom::{Kind, Writer};
use crate::sync::Mutex;
use crate::telemetry::{
    event_json, Telemetry, TelemetrySnapshot, TraceEvent, ABORT_CAUSE_NAMES, BUILD_VERSION,
    SCHEMA_VERSION,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound on retained windows (older windows fold into the
/// evicted rollup).
const DEFAULT_WINDOW_RING: usize = 64;

/// Hot addresses carried per window (from the contention sketch's
/// merged top-K at window close).
const WINDOW_HOT_ADDRS: usize = 4;

// ---------------------------------------------------------------------------
// Window deltas
// ---------------------------------------------------------------------------

/// One closed window: the exact counts recorded in it plus point-in-time
/// gauges sampled at close.
#[derive(Clone, Debug)]
struct WindowDelta {
    /// Zero-based index among non-idle windows.
    index: u64,
    /// The cumulative snapshot at close [`since`] the one at the previous
    /// close; its drift report and contention stats are taken out into
    /// the gauges below, so a window does not retain them.
    ///
    /// [`since`]: TelemetrySnapshot::since
    delta: TelemetrySnapshot,
    /// Median commit latency within the window (bucket upper bound; ns).
    commit_p50_ns: u64,
    /// p99 commit latency within the window (bucket upper bound; ns).
    commit_p99_ns: u64,
    /// `aborts / (commits + aborts)` within the window, percent.
    abort_ratio_pct: f64,
    /// `released / gate_total` within the window, percent.
    released_pct: f64,
    /// Off-model transition fraction at close (live drift gauge), when a
    /// drift tracker is attached.
    off_model_pct: Option<f64>,
    /// Drift verdict code at close ([`DriftVerdict::code`]; 0 when no
    /// tracker is attached).
    staleness: u8,
    /// Top hot addresses `(addr, count)` from the contention sketch at
    /// close (cumulative counts; empty without a tracker).
    hot_addrs: Vec<(usize, u64)>,
    /// Window-scoped network-server stats, when a [`ServerSource`] is
    /// registered on the plane (`None` otherwise — the plane predates
    /// the server or none is attached).
    server: Option<ServerWindow>,
}

impl WindowDelta {
    fn new(index: u64, mut delta: TelemetrySnapshot) -> Self {
        let attempts = delta.commits + delta.aborts_total();
        let abort_ratio_pct = if attempts == 0 {
            0.0
        } else {
            delta.aborts_total() as f64 / attempts as f64 * 100.0
        };
        let gate = delta.gate_total();
        let released_pct = if gate == 0 {
            0.0
        } else {
            delta.gate_released as f64 / gate as f64 * 100.0
        };
        let (off_model_pct, staleness) = match delta.model_drift.take() {
            Some(d) => (Some(d.off_model_pct), d.verdict.code()),
            None => (None, 0),
        };
        let hot_addrs = delta
            .contention
            .take()
            .map(|c| {
                c.top
                    .iter()
                    .take(WINDOW_HOT_ADDRS)
                    .map(|h| (h.addr, h.count))
                    .collect()
            })
            .unwrap_or_default();
        WindowDelta {
            index,
            commit_p50_ns: delta.commit_ns.quantile_upper_bound(0.50),
            commit_p99_ns: delta.commit_ns.quantile_upper_bound(0.99),
            delta,
            abort_ratio_pct,
            released_pct,
            off_model_pct,
            staleness,
            hot_addrs,
            server: None,
        }
    }
}

/// One window of network-server activity: frame/action deltas since the
/// previous close plus point-in-time gauges, drained from a
/// [`ServerSource`] when the plane rolls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerWindow {
    /// Complete frames decoded from clients this window.
    pub frames_in: u64,
    /// Frames queued to clients this window.
    pub frames_out: u64,
    /// Player actions executed against the world this window.
    pub actions_executed: u64,
    /// Actions shed by admission control this window.
    pub actions_shed: u64,
    /// New sessions rejected with `Overloaded` this window.
    pub sessions_rejected: u64,
    /// Frames the decoder rejected as malformed this window.
    pub malformed_frames: u64,
    /// Sessions closed (any reason) this window.
    pub disconnects: u64,
    /// Median engine frame time within the window (ns).
    pub frame_p50_ns: u64,
    /// p99 engine frame time within the window (ns).
    pub frame_p99_ns: u64,
    /// Degradation-ladder rung at close (0 full tick … 3 load shed).
    pub ladder: u8,
    /// Live sessions at close.
    pub sessions: u64,
}

/// A network server the ops plane can poll at each window roll: the
/// plane drains one [`ServerWindow`] per close (annotating the window
/// for SLO judging) and has the source write its cumulative
/// `gstm_server_*` families into `/metrics`. Registered via
/// [`OpsPlane::set_server_source`]; kept as a trait so `gstm_core`
/// needs no dependency on the server crate.
pub trait ServerSource: Send + Sync {
    /// Drain window-scoped stats: deltas since the previous call plus
    /// point-in-time gauges.
    fn window(&self) -> ServerWindow;
    /// Write the cumulative Prometheus families (`gstm_server_*`).
    fn write_metrics(&self, w: &mut Writer);
}

// ---------------------------------------------------------------------------
// Windowed aggregator
// ---------------------------------------------------------------------------

/// Rolls the cumulative [`Telemetry`] counters into a bounded ring of
/// per-window deltas.
///
/// The harness creates one collector per repetition; `attach` absorbs
/// the outgoing collector's final snapshot into a base before switching,
/// so the cumulative view (and therefore every live `/metrics` scrape)
/// is monotone across the whole campaign.
struct WindowedTelemetry {
    cap: usize,
    base: TelemetrySnapshot,
    current: Option<Arc<Telemetry>>,
    /// The cumulative snapshot at the last close.
    last: TelemetrySnapshot,
    ring: VecDeque<WindowDelta>,
    /// Σ of the windows evicted from the ring.
    evicted: TelemetrySnapshot,
    evicted_windows: u64,
    closed: u64,
    rolls: u64,
}

impl WindowedTelemetry {
    /// An empty aggregator retaining at most `cap` windows (≥ 1).
    pub(crate) fn new(cap: usize) -> Self {
        WindowedTelemetry {
            cap: cap.max(1),
            base: TelemetrySnapshot::default(),
            current: None,
            last: TelemetrySnapshot::default(),
            ring: VecDeque::new(),
            evicted: TelemetrySnapshot::default(),
            evicted_windows: 0,
            closed: 0,
            rolls: 0,
        }
    }

    /// Switch the live collector: the outgoing collector's final
    /// snapshot folds into the base so the cumulative view never
    /// regresses.
    fn attach(&mut self, tel: Arc<Telemetry>) {
        if let Some(old) = self.current.take() {
            if !Arc::ptr_eq(&old, &tel) {
                self.base.absorb(&old.snapshot());
            }
        }
        self.current = Some(tel);
    }

    /// The cumulative snapshot: base (completed collectors) plus the
    /// live collector.
    fn cumulative(&self) -> TelemetrySnapshot {
        let mut s = self.base.clone();
        if let Some(cur) = &self.current {
            s.absorb(&cur.snapshot());
        }
        s
    }

    /// Trace events currently held by the live collector (copied, not
    /// drained).
    fn current_trace(&self) -> Vec<TraceEvent> {
        self.current.as_ref().map(|t| t.trace_events()).unwrap_or_default()
    }

    /// Close a window now: take the exact difference since the previous
    /// close and append it to the ring (evicting the oldest into the
    /// rollup when full). Idle ticks — no event counter moved — close no
    /// window and return `None`, so the ring holds activity, not
    /// silence; latency samples of an idle tick count in the next
    /// window.
    fn roll(&mut self) -> Option<WindowDelta> {
        self.rolls += 1;
        let cum = self.cumulative();
        let delta = cum
            .since(&self.last)
            .expect("cumulative telemetry counters are monotone");
        if !delta.has_events() {
            return None;
        }
        self.last = cum;
        let w = WindowDelta::new(self.closed, delta);
        self.closed += 1;
        if self.ring.len() == self.cap {
            let old = self.ring.pop_front().expect("ring is non-empty at capacity");
            self.evicted.absorb(&old.delta);
            self.evicted_windows += 1;
        }
        self.ring.push_back(w.clone());
        Some(w)
    }

    /// The retained windows, oldest first.
    fn windows(&self) -> &VecDeque<WindowDelta> {
        &self.ring
    }

    /// Attach server stats to the most recently closed window (the one
    /// the current roll just pushed). No-op on an empty ring.
    fn annotate_server(&mut self, sw: ServerWindow) {
        if let Some(last) = self.ring.back_mut() {
            last.server = Some(sw);
        }
    }

    /// Rollup of evicted windows and how many were folded into it.
    fn evicted(&self) -> (&TelemetrySnapshot, u64) {
        (&self.evicted, self.evicted_windows)
    }

    /// Non-idle windows closed so far.
    fn closed(&self) -> u64 {
        self.closed
    }

    /// Roll attempts (including idle ticks).
    fn rolls(&self) -> u64 {
        self.rolls
    }

    /// Σ retained + evicted rollup (the partition's left-hand side).
    fn retained_sum(&self) -> TelemetrySnapshot {
        let mut sum = self.evicted.clone();
        for w in &self.ring {
            sum.absorb(&w.delta);
        }
        sum
    }

    /// Verify the hard invariant: Σ retained windows + evicted rollup ==
    /// cumulative counts as of the last close, exactly.
    fn check_partition(&self) -> Result<(), String> {
        let sum = self.retained_sum();
        if sum.same_counts(&self.last) {
            Ok(())
        } else {
            Err(format!(
                "window partition violated: Σ windows commits={} aborts={} gate={} \
                 vs cumulative commits={} aborts={} gate={}",
                sum.commits,
                sum.aborts_total(),
                sum.gate_total(),
                self.last.commits,
                self.last.aborts_total(),
                self.last.gate_total(),
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// SLO spec
// ---------------------------------------------------------------------------

/// Thresholds and hysteresis for the `SloWatchdog`, parsed from the
/// harness `--slo=SPEC` flag.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Breach when a window's abort ratio exceeds this (percent).
    max_abort_ratio_pct: Option<f64>,
    /// Breach when a window's gate released-rate exceeds this (percent).
    pub(crate) max_released_pct: Option<f64>,
    /// Breach when a window's commit p99 exceeds this (ns).
    max_commit_p99_ns: Option<u64>,
    /// Breach when the live off-model fraction exceeds this (percent).
    max_off_model_pct: Option<f64>,
    /// Breach when a window's server frame p99 exceeds this (ns).
    /// Judged only on windows annotated with a [`ServerWindow`].
    max_frame_p99_ns: Option<u64>,
    /// Breach when the degradation-ladder rung at close is at or above
    /// this (0 full tick … 3 load shed). Judged only on annotated
    /// windows.
    max_ladder: Option<u8>,
    /// Treat an open breaker at window close as a breach.
    breaker_open_breaches: bool,
    /// Treat a stale drift verdict at window close as a breach.
    stale_breaches: bool,
    /// Consecutive breaching windows to go Ok→Warn.
    warn_after: u32,
    /// Consecutive breaching windows (after Warn) to go Warn→Incident.
    incident_after: u32,
    /// Consecutive clean windows to step down one level.
    clear_after: u32,
    /// Windows with fewer than this many events (commits + aborts +
    /// gate calls) are too quiet to judge and do not move the machine.
    min_events: u64,
    /// Roll cadence for the timer-driven driver (ms).
    pub window_ms: u64,
    /// Windows included in a flight-recorder dump.
    dump_windows: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            max_abort_ratio_pct: Some(50.0),
            max_released_pct: Some(25.0),
            max_commit_p99_ns: None,
            max_off_model_pct: None,
            max_frame_p99_ns: None,
            max_ladder: None,
            breaker_open_breaches: true,
            stale_breaches: true,
            warn_after: 1,
            incident_after: 3,
            clear_after: 3,
            min_events: 1,
            window_ms: 200,
            dump_windows: 32,
        }
    }
}

impl SloSpec {
    /// Parse a comma-separated `key=value` spec, e.g.
    /// `abort-ratio=30,released=5,p99-ms=2,warn=1,incident=3,clear=3,window-ms=100`.
    ///
    /// Rate keys accept `none` to disable the rule; `breaker`/`stale`
    /// take `on`/`off`. Unknown keys are an error that lists the
    /// vocabulary.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut out = SloSpec::default();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once("<=")
                .or_else(|| tok.split_once('='))
                .ok_or_else(|| format!("SLO token '{tok}' is not key=value"))?;
            let (key, val) = (key.trim(), val.trim());
            let f = |what: &str| -> Result<Option<f64>, String> {
                if what.eq_ignore_ascii_case("none") {
                    return Ok(None);
                }
                what.parse::<f64>()
                    .map(Some)
                    .map_err(|_| format!("SLO key '{key}': '{what}' is not a number"))
            };
            let u = |what: &str| -> Result<u64, String> {
                what.parse::<u64>()
                    .map_err(|_| format!("SLO key '{key}': '{what}' is not an integer"))
            };
            let b = |what: &str| -> Result<bool, String> {
                match what {
                    "on" | "true" | "1" => Ok(true),
                    "off" | "false" | "0" => Ok(false),
                    _ => Err(format!("SLO key '{key}': '{what}' is not on/off")),
                }
            };
            match key {
                "abort-ratio" => out.max_abort_ratio_pct = f(val)?,
                "released" => out.max_released_pct = f(val)?,
                "p99-ns" => out.max_commit_p99_ns = f(val)?.map(|v| v as u64),
                "p99-us" => out.max_commit_p99_ns = f(val)?.map(|v| (v * 1e3) as u64),
                "p99-ms" => out.max_commit_p99_ns = f(val)?.map(|v| (v * 1e6) as u64),
                "off-model" => out.max_off_model_pct = f(val)?,
                "frame-p99-ns" => out.max_frame_p99_ns = f(val)?.map(|v| v as u64),
                "frame-p99-us" => out.max_frame_p99_ns = f(val)?.map(|v| (v * 1e3) as u64),
                "frame-p99-ms" => out.max_frame_p99_ns = f(val)?.map(|v| (v * 1e6) as u64),
                "ladder" => out.max_ladder = Some(u(val)?.min(u8::MAX as u64) as u8),
                "breaker" => out.breaker_open_breaches = b(val)?,
                "stale" => out.stale_breaches = b(val)?,
                "warn" => out.warn_after = u(val)?.max(1) as u32,
                "incident" => out.incident_after = u(val)?.max(1) as u32,
                "clear" => out.clear_after = u(val)?.max(1) as u32,
                "min-events" => out.min_events = u(val)?,
                "window-ms" => out.window_ms = u(val)?.max(1),
                "dump-windows" => out.dump_windows = u(val)?.max(1) as usize,
                _ => {
                    return Err(format!(
                        "unknown SLO key '{key}' (valid: abort-ratio, released, p99-ns, \
                         p99-us, p99-ms, off-model, frame-p99-ns, frame-p99-us, \
                         frame-p99-ms, ladder, breaker, stale, warn, incident, clear, \
                         min-events, window-ms, dump-windows)"
                    ))
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// SLO watchdog
// ---------------------------------------------------------------------------

/// Watchdog position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloState {
    /// Within objectives.
    Ok,
    /// Breaching; not yet sustained long enough to page.
    Warn,
    /// Sustained breach: `/health` turns non-200 and the flight
    /// recorder has fired.
    Incident,
}

impl SloState {
    /// Stable numeric code (0 ok, 1 warn, 2 incident).
    pub fn code(self) -> u8 {
        match self {
            SloState::Ok => 0,
            SloState::Warn => 1,
            SloState::Incident => 2,
        }
    }

    /// Inverse of [`SloState::code`]; an out-of-range code reads as the
    /// most severe state, [`SloState::Incident`].
    pub fn from_code(code: u8) -> SloState {
        match code {
            0 => SloState::Ok,
            1 => SloState::Warn,
            _ => SloState::Incident,
        }
    }

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            SloState::Ok => "ok",
            SloState::Warn => "warn",
            SloState::Incident => "incident",
        }
    }
}

/// One state change, with the breaches that drove it (empty on
/// recovery steps).
#[derive(Clone, Debug, PartialEq)]
pub struct SloTransition {
    /// Index of the window that completed the transition.
    pub window: u64,
    /// Previous state.
    pub from: SloState,
    /// New state.
    pub to: SloState,
    /// Breach descriptions from the tripping window.
    pub breaches: Vec<String>,
}

/// Ok→Warn→Incident state machine with hysteresis over window deltas.
///
/// Escalation requires `warn_after` consecutive breaching windows to
/// reach Warn and `incident_after` more to reach Incident; recovery
/// requires `clear_after` consecutive clean windows per step down, so a
/// single noisy or quiet window never flaps the verdict.
struct SloWatchdog {
    spec: SloSpec,
    state: SloState,
    breach_streak: u32,
    clean_streak: u32,
    windows_seen: u64,
    breached_windows: u64,
    last_breaches: Vec<String>,
    timeline: Vec<SloTransition>,
}

impl SloWatchdog {
    /// A watchdog in `Ok` with the given spec.
    pub(crate) fn new(spec: SloSpec) -> Self {
        SloWatchdog {
            spec,
            state: SloState::Ok,
            breach_streak: 0,
            clean_streak: 0,
            windows_seen: 0,
            breached_windows: 0,
            last_breaches: Vec::new(),
            timeline: Vec::new(),
        }
    }

    /// The active spec.
    fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Current state.
    fn state(&self) -> SloState {
        self.state
    }

    /// All transitions so far, oldest first.
    fn timeline(&self) -> &[SloTransition] {
        &self.timeline
    }

    /// Windows judged (quiet windows excluded).
    fn windows_seen(&self) -> u64 {
        self.windows_seen
    }

    /// Judged windows that breached at least one rule.
    fn breached_windows(&self) -> u64 {
        self.breached_windows
    }

    /// Breaches from the most recent breaching window.
    fn last_breaches(&self) -> &[String] {
        &self.last_breaches
    }

    /// Evaluate every rule against one window; returns human-readable
    /// breach descriptions (empty when clean).
    fn breaches_of(&self, w: &WindowDelta) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(max) = self.spec.max_abort_ratio_pct {
            if w.abort_ratio_pct > max {
                out.push(format!("abort_ratio {:.1}% > {max}%", w.abort_ratio_pct));
            }
        }
        if let Some(max) = self.spec.max_released_pct {
            if w.released_pct > max {
                out.push(format!("gate_released {:.1}% > {max}%", w.released_pct));
            }
        }
        if let Some(max) = self.spec.max_commit_p99_ns {
            if w.commit_p99_ns > max {
                out.push(format!("commit_p99 {}ns > {max}ns", w.commit_p99_ns));
            }
        }
        if let (Some(max), Some(off)) = (self.spec.max_off_model_pct, w.off_model_pct) {
            if off > max {
                out.push(format!("off_model {off:.1}% > {max}%"));
            }
        }
        if let Some(sw) = &w.server {
            if let Some(max) = self.spec.max_frame_p99_ns {
                if sw.frame_p99_ns > max {
                    out.push(format!("frame_p99 {}ns > {max}ns", sw.frame_p99_ns));
                }
            }
            if let Some(max) = self.spec.max_ladder {
                if sw.ladder >= max {
                    out.push(format!("ladder rung {} >= {max}", sw.ladder));
                }
            }
        }
        if self.spec.breaker_open_breaches && w.delta.breaker_state == 1 {
            out.push("breaker open".to_string());
        }
        if self.spec.stale_breaches && w.staleness == DriftVerdict::Stale.code() {
            out.push("model stale".to_string());
        }
        out
    }

    /// Feed one closed window through the machine. Returns the
    /// transition if the state changed.
    fn observe(&mut self, w: &WindowDelta) -> Option<SloTransition> {
        let events = w.delta.commits + w.delta.aborts_total() + w.delta.gate_total();
        if events < self.spec.min_events {
            return None;
        }
        self.windows_seen += 1;
        let breaches = self.breaches_of(w);
        let next = if breaches.is_empty() {
            self.breach_streak = 0;
            self.clean_streak += 1;
            if self.clean_streak >= self.spec.clear_after {
                match self.state {
                    SloState::Incident => SloState::Warn,
                    SloState::Warn => SloState::Ok,
                    SloState::Ok => SloState::Ok,
                }
            } else {
                self.state
            }
        } else {
            self.breached_windows += 1;
            self.last_breaches = breaches.clone();
            self.clean_streak = 0;
            self.breach_streak += 1;
            match self.state {
                SloState::Ok if self.breach_streak >= self.spec.warn_after => SloState::Warn,
                SloState::Warn if self.breach_streak >= self.spec.incident_after => {
                    SloState::Incident
                }
                s => s,
            }
        };
        if next == self.state {
            return None;
        }
        // Each transition restarts both streaks: escalating further (or
        // stepping down again) requires a fresh run of evidence.
        self.breach_streak = 0;
        self.clean_streak = 0;
        let tr = SloTransition {
            window: w.index,
            from: self.state,
            to: next,
            breaches,
        };
        self.state = next;
        self.timeline.push(tr.clone());
        Some(tr)
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// A recorded incident: the flight-recorder dump plus its identity.
#[derive(Clone, Debug)]
pub struct IncidentDump {
    /// Incident ordinal within the process (0-based).
    pub seq: u64,
    /// Window index that tripped it.
    pub window: u64,
    /// Caller-supplied stamp (wall clock in the harness; a fixed token
    /// in deterministic replays).
    pub stamp: String,
    /// The serialized artifact.
    pub json: String,
}

/// `{"<cause>":<count>,...}` in [`ABORT_CAUSE_NAMES`] order.
fn cause_counts_json(aborts: &[u64]) -> String {
    let fields: Vec<String> = ABORT_CAUSE_NAMES
        .iter()
        .zip(aborts)
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|b| format!("\"{}\"", escape(b))).collect();
    format!("[{}]", quoted.join(", "))
}

fn window_json(w: &WindowDelta) -> String {
    let mut out = format!(
        "{{\"index\":{},\"commits\":{},\"aborts\":{}",
        w.index,
        w.delta.commits,
        w.delta.aborts_total()
    );
    let _ = write!(
        out,
        ",\"aborts_by_cause\":{}",
        cause_counts_json(&w.delta.aborts)
    );
    let _ = write!(
        out,
        ",\"gate_passed\":{},\"gate_waited\":{},\"gate_released\":{}",
        w.delta.gate_passed, w.delta.gate_waited, w.delta.gate_released
    );
    let _ = write!(
        out,
        ",\"trace_dropped\":{},\"commit_count\":{},\"commit_p50_ns\":{},\"commit_p99_ns\":{}",
        w.delta.trace_dropped, w.delta.commit_ns.count, w.commit_p50_ns, w.commit_p99_ns
    );
    let _ = write!(
        out,
        ",\"abort_ratio_pct\":{:.3},\"released_pct\":{:.3}",
        w.abort_ratio_pct, w.released_pct
    );
    match w.off_model_pct {
        Some(v) => {
            let _ = write!(out, ",\"off_model_pct\":{v:.3}");
        }
        None => out.push_str(",\"off_model_pct\":null"),
    }
    let _ = write!(
        out,
        ",\"staleness\":{},\"breaker_state\":{}",
        w.staleness, w.delta.breaker_state
    );
    out.push_str(",\"hot_addrs\":[");
    for (i, (addr, count)) in w.hot_addrs.iter().enumerate() {
        let _ = write!(out, "{}{{\"addr\":{addr},\"count\":{count}}}", if i == 0 { "" } else { "," });
    }
    out.push_str("]}");
    out
}

fn transition_json(t: &SloTransition) -> String {
    format!(
        "{{\"window\":{},\"from\":\"{}\",\"to\":\"{}\",\"breaches\":{}}}",
        t.window,
        t.from.label(),
        t.to.label(),
        json_strings(&t.breaches)
    )
}

/// Serialize a flight-recorder dump: the tripping transition, the full
/// transition timeline, the last `windows`, the evicted rollup, the
/// cumulative counters, breaker/drift/contention verdicts, and a
/// trace-ring drain (without `ts_ns` — see `event_json`).
#[allow(clippy::too_many_arguments)]
fn render_incident_json(
    seq: u64,
    stamp: &str,
    trip: &SloTransition,
    timeline: &[SloTransition],
    windows: &[&WindowDelta],
    evicted: (&TelemetrySnapshot, u64),
    snap: &TelemetrySnapshot,
    trace: &[TraceEvent],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"kind\": \"gstm_incident\",");
    let _ = writeln!(out, "  \"version\": \"{}\",", escape(BUILD_VERSION));
    let _ = writeln!(out, "  \"stamp\": \"{}\",", escape(stamp));
    let _ = writeln!(out, "  \"seq\": {seq},");
    let _ = writeln!(out, "  \"tripped_window\": {},", trip.window);
    let _ = writeln!(out, "  \"state\": \"{}\",", trip.to.label());
    let _ = writeln!(out, "  \"breaches\": {},", json_strings(&trip.breaches));
    let rows = array_lines("    ", timeline.iter().map(transition_json));
    let _ = writeln!(out, "  \"timeline\": [\n{rows}  ],");
    let rows = array_lines("    ", windows.iter().map(|w| window_json(w)));
    let _ = writeln!(out, "  \"windows\": [\n{rows}  ],");
    let (ev, ev_n) = evicted;
    let _ = writeln!(
        out,
        "  \"evicted\": {{\"windows\": {ev_n}, \"commits\": {}, \"aborts\": {}, \"gate\": {}}},",
        ev.commits,
        ev.aborts_total(),
        ev.gate_total()
    );
    let _ = writeln!(
        out,
        "  \"cumulative\": {{\"commits\": {}, \"aborts\": {}, \"gate_passed\": {}, \
         \"gate_waited\": {}, \"gate_released\": {}, \"trace_dropped\": {}, \
         \"model_swaps\": {}, \"guardian_restarts\": {}}},",
        snap.commits,
        snap.aborts_total(),
        snap.gate_passed,
        snap.gate_waited,
        snap.gate_released,
        snap.trace_dropped,
        snap.model_swaps,
        snap.guardian_restarts
    );
    let _ = writeln!(
        out,
        "  \"breaker\": {{\"state\": {}, \"trips\": {}, \"recloses\": {}, \"probes\": {}, \
         \"model_rejected\": {}}},",
        snap.breaker_state,
        snap.breaker_trips,
        snap.breaker_recloses,
        snap.breaker_probes,
        snap.breaker_model_rejected
    );
    match &snap.model_drift {
        Some(d) => {
            let _ = writeln!(
                out,
                "  \"drift\": {{\"verdict\": \"{}\", \"off_model_pct\": {:.3}, \
                 \"mean_kl_nats\": {:.6}, \"max_kl_nats\": {:.6}}},",
                d.verdict.label(),
                d.off_model_pct,
                d.mean_kl_nats,
                d.max_kl_nats
            );
        }
        None => {
            let _ = writeln!(out, "  \"drift\": null,");
        }
    }
    match &snap.contention {
        Some(c) => {
            let mut top = String::new();
            for (i, h) in c.top.iter().take(WINDOW_HOT_ADDRS).enumerate() {
                let _ = write!(
                    top,
                    "{}{{\"addr\": {}, \"count\": {}, \"err\": {}}}",
                    if i == 0 { "" } else { ", " },
                    h.addr,
                    h.count,
                    h.err
                );
            }
            let _ = writeln!(
                out,
                "  \"contention\": {{\"attributed\": {}, \"unattributed\": {}, \
                 \"residual\": {}, \"top\": [{top}]}},",
                c.attributed, c.unattributed, c.residual
            );
        }
        None => {
            let _ = writeln!(out, "  \"contention\": null,");
        }
    }
    let rows = array_lines("    ", trace.iter().map(|ev| event_json(ev, false)));
    let _ = writeln!(out, "  \"trace\": [\n{rows}  ]");
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// Ops plane
// ---------------------------------------------------------------------------

struct OpsInner {
    windows: WindowedTelemetry,
    watchdog: SloWatchdog,
    incidents: Vec<IncidentDump>,
    frozen: Option<String>,
    server: Option<Arc<dyn ServerSource>>,
}

/// The shared live-ops state: aggregator + watchdog + incident store,
/// behind one mutex, exported by the HTTP service thread.
///
/// [`freeze`] closes the final window and pins the `/metrics` body, so
/// a scrape after campaign end is byte-identical to the exported
/// `ops.prom` artifact.
///
/// [`freeze`]: OpsPlane::freeze
pub struct OpsPlane {
    inner: Mutex<OpsInner>,
}

impl OpsPlane {
    /// A plane with the given spec and the default window ring.
    pub fn new(spec: SloSpec) -> Self {
        Self::with_ring(spec, DEFAULT_WINDOW_RING)
    }

    /// A plane retaining at most `ring` windows.
    pub fn with_ring(spec: SloSpec, ring: usize) -> Self {
        OpsPlane {
            inner: Mutex::new(OpsInner {
                windows: WindowedTelemetry::new(ring),
                watchdog: SloWatchdog::new(spec),
                incidents: Vec::new(),
                frozen: None,
                server: None,
            }),
        }
    }

    /// Switch the live collector (see `WindowedTelemetry::attach`).
    pub fn attach(&self, tel: &Arc<Telemetry>) {
        self.inner.lock().windows.attach(Arc::clone(tel));
    }

    /// Register a network server: every roll drains one
    /// [`ServerWindow`] from it (annotating the closed window for SLO
    /// judging) and `/metrics` gains its `gstm_server_*` families.
    pub fn set_server_source(&self, src: Arc<dyn ServerSource>) {
        self.inner.lock().server = Some(src);
    }

    /// Close a window with a wall-clock stamp (the timer driver's
    /// entry point).
    fn roll(&self) -> Option<SloTransition> {
        self.roll_stamped(&wall_stamp())
    }

    /// Close a window, feed it to the watchdog, and — when the
    /// transition enters Incident — trip the flight recorder, stamping
    /// the dump with `stamp`. Deterministic replays pass a fixed stamp;
    /// the harness passes wall time.
    pub fn roll_stamped(&self, stamp: &str) -> Option<SloTransition> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let mut w = inner.windows.roll()?;
        if let Some(src) = &inner.server {
            let sw = src.window();
            inner.windows.annotate_server(sw.clone());
            w.server = Some(sw);
        }
        let tr = inner.watchdog.observe(&w)?;
        if tr.to == SloState::Incident {
            let snap = inner.windows.cumulative();
            let trace = inner.windows.current_trace();
            let n = inner.watchdog.spec().dump_windows;
            let ring = inner.windows.windows();
            let windows: Vec<&WindowDelta> =
                ring.iter().skip(ring.len().saturating_sub(n)).collect();
            let seq = inner.incidents.len() as u64;
            let json = render_incident_json(
                seq,
                stamp,
                &tr,
                inner.watchdog.timeline(),
                &windows,
                inner.windows.evicted(),
                &snap,
                &trace,
            );
            inner.incidents.push(IncidentDump {
                seq,
                window: tr.window,
                stamp: stamp.to_string(),
                json,
            });
        }
        Some(tr)
    }

    /// Close the final (possibly partial) window, render the exposition
    /// one last time, and pin it: every later `/metrics` scrape returns
    /// this exact body. Returns the pinned body.
    pub fn freeze(&self) -> String {
        self.freeze_stamped(&wall_stamp())
    }

    /// [`freeze`](OpsPlane::freeze) with an explicit stamp for the final
    /// roll (deterministic replays).
    pub fn freeze_stamped(&self, stamp: &str) -> String {
        drop(self.roll_stamped(stamp));
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let body = render_metrics(
            &inner.windows,
            &inner.watchdog,
            inner.incidents.len(),
            inner.server.as_deref(),
        );
        inner.frozen = Some(body.clone());
        body
    }

    /// The `/metrics` body: the cumulative Prometheus exposition plus
    /// the window/SLO families (or the frozen body after
    /// [`freeze`](OpsPlane::freeze)).
    fn metrics(&self) -> String {
        let g = self.inner.lock();
        if let Some(f) = &g.frozen {
            return f.clone();
        }
        render_metrics(&g.windows, &g.watchdog, g.incidents.len(), g.server.as_deref())
    }

    /// The `/health` body and whether the plane is healthy (false only
    /// in Incident, which maps to HTTP 503).
    pub fn health_json(&self) -> (bool, String) {
        let g = self.inner.lock();
        let snap = g.windows.cumulative();
        let state = g.watchdog.state();
        let drift = snap
            .model_drift
            .as_ref()
            .map(|d| d.verdict.label())
            .unwrap_or("none");
        let body = format!(
            "{{\"schema\":{SCHEMA_VERSION},\"state\":\"{}\",\"windows_closed\":{},\
             \"windows_judged\":{},\"breached_windows\":{},\"incidents\":{},\
             \"trace_dropped\":{},\"guardian_restarts\":{},\"breaker_state\":{},\
             \"drift\":\"{}\",\"last_breaches\":{}}}",
            state.label(),
            g.windows.closed(),
            g.watchdog.windows_seen(),
            g.watchdog.breached_windows(),
            g.incidents.len(),
            snap.trace_dropped,
            snap.guardian_restarts,
            snap.breaker_state,
            drift,
            json_strings(g.watchdog.last_breaches()),
        );
        (state != SloState::Incident, body)
    }

    /// The `/vars` body: a full cumulative snapshot as JSON.
    pub fn vars_json(&self) -> String {
        let g = self.inner.lock();
        let snap = g.windows.cumulative();
        let aborts = cause_counts_json(&snap.aborts);
        let drift = match &snap.model_drift {
            Some(d) => format!(
                "{{\"verdict\":\"{}\",\"off_model_pct\":{:.3}}}",
                d.verdict.label(),
                d.off_model_pct
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"schema\":{SCHEMA_VERSION},\"version\":\"{}\",\"commits\":{},\
             \"aborts\":{aborts},\"gate_passed\":{},\"gate_waited\":{},\
             \"gate_released\":{},\"commit_p50_ns\":{},\"commit_p99_ns\":{},\
             \"commit_mean_ns\":{:.1},\"trace_dropped\":{},\"model_swaps\":{},\
             \"breaker\":{{\"state\":{},\"trips\":{},\"recloses\":{},\"probes\":{}}},\
             \"guardian_restarts\":{},\"drift\":{drift},\
             \"slo\":{{\"state\":\"{}\",\"windows_closed\":{},\"retained\":{},\
             \"evicted_windows\":{},\"incidents\":{}}}}}",
            escape(BUILD_VERSION),
            snap.commits,
            snap.gate_passed,
            snap.gate_waited,
            snap.gate_released,
            snap.commit_ns.quantile_upper_bound(0.50),
            snap.commit_ns.quantile_upper_bound(0.99),
            snap.commit_ns.mean(),
            snap.trace_dropped,
            snap.model_swaps,
            snap.breaker_state,
            snap.breaker_trips,
            snap.breaker_recloses,
            snap.breaker_probes,
            snap.guardian_restarts,
            g.watchdog.state().label(),
            g.windows.closed(),
            g.windows.windows().len(),
            g.windows.evicted().1,
            g.incidents.len(),
        )
    }

    /// The `/incidents` body: a JSON array of flight-recorder dumps.
    pub fn incidents_json(&self) -> String {
        let g = self.inner.lock();
        let dumps = g
            .incidents
            .iter()
            .map(|inc| inc.json.trim_end().to_string());
        format!("[\n{}]\n", array_lines("", dumps))
    }

    /// Copies of all recorded incidents.
    pub fn incidents(&self) -> Vec<IncidentDump> {
        self.inner.lock().incidents.clone()
    }

    /// Current watchdog state.
    pub fn state(&self) -> SloState {
        self.inner.lock().watchdog.state()
    }

    /// The watchdog's transition timeline.
    pub fn timeline(&self) -> Vec<SloTransition> {
        self.inner.lock().watchdog.timeline().to_vec()
    }

    /// Non-idle windows closed so far.
    pub fn windows_closed(&self) -> u64 {
        self.inner.lock().windows.closed()
    }

    /// Judged windows that breached at least one SLO rule.
    pub fn breached_windows(&self) -> u64 {
        self.inner.lock().watchdog.breached_windows()
    }

    /// Re-verify Σ retained + evicted == cumulative-at-last-close.
    pub fn check_partition(&self) -> Result<(), String> {
        self.inner.lock().windows.check_partition()
    }
}

/// Seconds.millis since the Unix epoch, as an artifact stamp.
fn wall_stamp() -> String {
    match std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => format!("{}.{:03}", d.as_secs(), d.subsec_millis()),
        Err(_) => "0.000".to_string(),
    }
}

/// Render the full `/metrics` exposition: the cumulative snapshot's
/// families followed by the window partition and SLO families.
fn render_metrics(
    w: &WindowedTelemetry,
    dog: &SloWatchdog,
    incidents: usize,
    server: Option<&dyn ServerSource>,
) -> String {
    let mut out = Writer::new();
    w.cumulative().write_prometheus(&mut out);
    out.counter("gstm_windows_closed_total", w.closed());
    out.counter("gstm_window_rolls_total", w.rolls());
    let (ev, ev_n) = w.evicted();
    out.counter("gstm_window_evicted_windows_total", ev_n);
    let mut f = out.family("gstm_window_evicted_total", Kind::Counter);
    for (name, v) in [
        ("commits", ev.commits),
        ("aborts", ev.aborts_total()),
        ("gate_passed", ev.gate_passed),
        ("gate_waited", ev.gate_waited),
        ("gate_released", ev.gate_released),
    ] {
        f.sample(&[("counter", &name)], v);
    }
    let ring = w.windows();
    let mut f = out.family("gstm_window_commits", Kind::Gauge);
    for win in ring {
        f.sample(&[("window", &win.index)], win.delta.commits);
    }
    let mut f = out.family("gstm_window_aborts", Kind::Gauge);
    for win in ring {
        f.sample(&[("window", &win.index)], win.delta.aborts_total());
    }
    let mut f = out.family("gstm_window_gate", Kind::Gauge);
    for win in ring {
        for (name, v) in [
            ("passed", win.delta.gate_passed),
            ("waited", win.delta.gate_waited),
            ("released", win.delta.gate_released),
        ] {
            f.sample(&[("window", &win.index), ("outcome", &name)], v);
        }
    }
    let mut f = out.family("gstm_window_commit_p50_ns", Kind::Gauge);
    for win in ring {
        f.sample(&[("window", &win.index)], win.commit_p50_ns);
    }
    let mut f = out.family("gstm_window_commit_p99_ns", Kind::Gauge);
    for win in ring {
        f.sample(&[("window", &win.index)], win.commit_p99_ns);
    }
    let mut f = out.family("gstm_window_abort_ratio_pct", Kind::Gauge);
    for win in ring {
        f.sample(
            &[("window", &win.index)],
            format_args!("{:.3}", win.abort_ratio_pct),
        );
    }
    if ring.iter().any(|win| win.server.is_some()) {
        let mut f = out.family("gstm_window_frame_p99_ns", Kind::Gauge);
        for win in ring {
            if let Some(sw) = &win.server {
                f.sample(&[("window", &win.index)], sw.frame_p99_ns);
            }
        }
        let mut f = out.family("gstm_window_server_ladder", Kind::Gauge);
        for win in ring {
            if let Some(sw) = &win.server {
                f.sample(&[("window", &win.index)], sw.ladder);
            }
        }
    }
    if let Some(src) = server {
        src.write_metrics(&mut out);
    }
    out.gauge("gstm_slo_state", dog.state().code());
    out.counter("gstm_slo_windows_total", dog.windows_seen());
    out.counter("gstm_slo_breached_windows_total", dog.breached_windows());
    out.counter("gstm_slo_incidents_total", incidents);
    out.finish()
}

// ---------------------------------------------------------------------------
// Timer driver
// ---------------------------------------------------------------------------

/// Background thread rolling an [`OpsPlane`] on the spec's cadence.
/// Stops (and joins) on [`stop`](OpsRoller::stop) or drop.
pub struct OpsRoller {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Start a timer thread calling `plane.roll()` every `every`.
pub fn start_roller(plane: Arc<OpsPlane>, every: Duration) -> OpsRoller {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("gstm-ops-roll".to_string())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                drop(plane.roll());
            }
        })
        .expect("spawn ops roller thread");
    OpsRoller {
        stop,
        handle: Some(handle),
    }
}

impl OpsRoller {
    /// Stop the timer and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsRoller {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// HTTP exporter
// ---------------------------------------------------------------------------

/// Cap on a buffered request head; anything larger is rejected rather
/// than buffered without bound.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Result of parsing a (possibly still incomplete) HTTP/1.x request
/// head.
#[derive(Clone, Debug, PartialEq, Eq)]
enum HttpParse {
    /// A full request head was present.
    Complete {
        /// Request method, verbatim (e.g. `GET`).
        method: String,
        /// Request path with any query string stripped.
        path: String,
    },
    /// The head is not complete yet — read more bytes.
    Partial,
    /// The bytes cannot become a valid request.
    Invalid(&'static str),
}

/// Parse an HTTP/1.x request head from `buf`. Incremental: callers
/// re-invoke with a longer buffer after [`HttpParse::Partial`], which
/// is how the service loop survives requests arriving in fragments.
fn parse_http_request(buf: &[u8]) -> HttpParse {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n");
    let Some(head_end) = head_end else {
        return if buf.len() > MAX_REQUEST_BYTES {
            HttpParse::Invalid("request head too large")
        } else {
            HttpParse::Partial
        };
    };
    let head = &buf[..head_end];
    let line_end = head.windows(2).position(|w| w == b"\r\n").unwrap_or(head.len());
    let Ok(line) = std::str::from_utf8(&head[..line_end]) else {
        return HttpParse::Invalid("request line is not UTF-8");
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return HttpParse::Invalid("malformed request line");
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return HttpParse::Invalid("malformed request line");
    }
    let path = target.split('?').next().unwrap_or(target);
    HttpParse::Complete {
        method: method.to_string(),
        path: path.to_string(),
    }
}

const CT_JSON: &str = "application/json";
const CT_PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Route one request against the plane: `(status, content-type, body)`.
/// Unknown paths are 404, non-GET methods 405.
fn route(plane: &OpsPlane, method: &str, path: &str) -> (u16, &'static str, String) {
    if method != "GET" {
        return (405, CT_JSON, "{\"error\":\"method not allowed\"}".to_string());
    }
    match path {
        "/metrics" => (200, CT_PROM, plane.metrics()),
        "/health" => {
            let (ok, body) = plane.health_json();
            (if ok { 200 } else { 503 }, CT_JSON, body)
        }
        "/vars" => (200, CT_JSON, plane.vars_json()),
        "/incidents" => (200, CT_JSON, plane.incidents_json()),
        _ => (404, CT_JSON, "{\"error\":\"not found\"}".to_string()),
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "OK",
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn handle_conn(mut stream: TcpStream, plane: &OpsPlane) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match parse_http_request(&buf) {
            HttpParse::Partial => {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    // Peer closed before completing a request.
                    return Ok(());
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            HttpParse::Invalid(why) => {
                return write_response(
                    &mut stream,
                    400,
                    CT_JSON,
                    &format!("{{\"error\":\"{}\"}}", escape(why)),
                );
            }
            HttpParse::Complete { method, path } => {
                let (status, ctype, body) = route(plane, &method, &path);
                return write_response(&mut stream, status, ctype, &body);
            }
        }
    }
}

/// Handle to the exporter service thread; stops (and joins) on
/// [`stop`](OpsServer::stop) or drop.
pub struct OpsServer {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Bind `addr` and serve the plane from one background thread. The
/// accept loop polls a nonblocking listener so the stop flag is honored
/// within a few milliseconds; each connection is then handled
/// synchronously (blocking reads with a timeout) — one service thread,
/// no dependencies, which is all a scrape endpoint needs.
pub fn serve(plane: Arc<OpsPlane>, addr: &str) -> std::io::Result<OpsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("gstm-ops-http".to_string())
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = handle_conn(stream, &plane);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;
    Ok(OpsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

impl OpsServer {
    /// Stop the service thread and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AbortCause;
    use crate::ids::{Pair, ThreadId, TxnId};
    use crate::telemetry::TraceKind;

    fn pair(t: u16) -> Pair {
        Pair::new(TxnId(t), ThreadId(t))
    }

    #[test]
    fn slo_state_codes_round_trip() {
        for code in 0..3 {
            assert_eq!(SloState::from_code(code).code(), code);
        }
        assert_eq!(SloState::from_code(7), SloState::Incident);
    }

    fn window(commits: u64, aborts: u64) -> WindowDelta {
        let mut delta = TelemetrySnapshot {
            commits,
            ..TelemetrySnapshot::default()
        };
        delta.aborts[3] = aborts; // validation
        WindowDelta::new(0, delta)
    }

    #[test]
    fn sigma_windows_equals_cumulative_under_concurrent_load() {
        let tel = Arc::new(Telemetry::counters_only());
        let mut wt = WindowedTelemetry::new(8); // small ring: forces evictions
        wt.attach(Arc::clone(&tel));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..4u16)
            .map(|t| {
                let tel = Arc::clone(&tel);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let who = pair(t);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        tel.record_commit(who, i % 512);
                        if i.is_multiple_of(3) {
                            tel.record_abort(who, AbortCause::Validation);
                        }
                        if i.is_multiple_of(5) {
                            tel.record_gate_outcome(
                                who,
                                crate::telemetry::GateOutcome::Passed,
                            );
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(1));
            drop(wt.roll());
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().unwrap();
        }
        drop(wt.roll()); // close the tail
        assert!(wt.evicted().1 > 0, "small ring must have evicted windows");
        wt.check_partition().expect("Σ windows + evicted == cumulative");
        // And the partition target really is the final cumulative state.
        let snap = tel.snapshot();
        let sum = wt.retained_sum();
        assert_eq!(sum.commits, snap.commits);
        assert_eq!(sum.aborts_total(), snap.aborts_total());
        assert_eq!(sum.gate_total(), snap.gate_total());
        assert_eq!(sum.commit_ns.count, snap.commit_ns.count);
        assert_eq!(sum.commit_ns.sum, snap.commit_ns.sum);
    }

    #[test]
    fn partition_survives_collector_switches() {
        let mut wt = WindowedTelemetry::new(4);
        for run in 0..5u16 {
            let tel = Arc::new(Telemetry::counters_only());
            wt.attach(Arc::clone(&tel));
            for i in 0..30u64 {
                tel.record_commit(pair(run), i);
                if i % 4 == 0 {
                    tel.record_abort(pair(run), AbortCause::ReadVersion);
                }
            }
            drop(wt.roll());
        }
        wt.check_partition().expect("partition across collectors");
        let sum = wt.retained_sum();
        assert_eq!(sum.commits, 150);
        assert_eq!(sum.aborts_total(), 40);
        // Cumulative view is monotone: the merged snapshot matches too.
        assert_eq!(wt.cumulative().commits, 150);
    }

    #[test]
    fn idle_ticks_close_no_window() {
        let tel = Arc::new(Telemetry::counters_only());
        let mut wt = WindowedTelemetry::new(4);
        wt.attach(Arc::clone(&tel));
        assert!(wt.roll().is_none());
        assert!(wt.roll().is_none());
        assert_eq!(wt.closed(), 0);
        assert_eq!(wt.rolls(), 2);
        tel.record_commit(pair(0), 7);
        let w = wt.roll().expect("activity closes a window");
        assert_eq!(w.delta.commits, 1);
        assert_eq!(wt.closed(), 1);
        wt.check_partition().unwrap();
    }

    #[test]
    fn latency_samples_alone_close_no_window() {
        let tel = Arc::new(Telemetry::counters_only());
        let mut wt = WindowedTelemetry::new(4);
        wt.attach(Arc::clone(&tel));
        tel.record_backoff(pair(0), 300);
        tel.record_gate_wait(pair(1), 40);
        assert!(wt.roll().is_none(), "backoff and gate-wait samples are no events");
        tel.record_guardian_restart();
        let w = wt.roll().expect("a guardian restart is an event");
        assert_eq!(w.delta.commits, 0);
        // The idle tick's samples count in the next window.
        assert_eq!((w.delta.backoff_ns.count, w.delta.gate_wait_ns.count), (1, 1));
        assert!(w.delta.per_thread.is_empty(), "no cell counted an event");
        wt.check_partition().unwrap();
    }

    #[test]
    fn window_latency_quantiles_are_per_window() {
        let tel = Arc::new(Telemetry::counters_only());
        let mut wt = WindowedTelemetry::new(8);
        wt.attach(Arc::clone(&tel));
        for _ in 0..100 {
            tel.record_commit(pair(0), 10); // bucket [8,15]
        }
        let w1 = wt.roll().unwrap();
        for _ in 0..100 {
            tel.record_commit(pair(0), 10_000); // bucket [8192,16383]
        }
        let w2 = wt.roll().unwrap();
        assert!(w1.commit_p99_ns <= 15, "first window is all-fast");
        assert!(
            w2.commit_p50_ns >= 8192,
            "second window's median reflects only its own samples, got {}",
            w2.commit_p50_ns
        );
    }

    #[test]
    fn slo_spec_parses_and_rejects() {
        let s = SloSpec::parse("abort-ratio=30,released<=5,p99-ms=2,warn=2,incident=4,clear=6,window-ms=100")
            .unwrap();
        assert_eq!(s.max_abort_ratio_pct, Some(30.0));
        assert_eq!(s.max_released_pct, Some(5.0));
        assert_eq!(s.max_commit_p99_ns, Some(2_000_000));
        assert_eq!(s.warn_after, 2);
        assert_eq!(s.incident_after, 4);
        assert_eq!(s.clear_after, 6);
        assert_eq!(s.window_ms, 100);
        let s = SloSpec::parse("abort-ratio=none,breaker=off").unwrap();
        assert_eq!(s.max_abort_ratio_pct, None);
        assert!(!s.breaker_open_breaches);
        assert!(SloSpec::parse("nope=1").unwrap_err().contains("unknown SLO key"));
        assert!(SloSpec::parse("abort-ratio=x").is_err());
        assert!(SloSpec::parse("justaword").is_err());
    }

    #[test]
    fn watchdog_hysteresis_escalates_and_recovers() {
        let spec = SloSpec {
            max_abort_ratio_pct: Some(30.0),
            warn_after: 2,
            incident_after: 2,
            clear_after: 2,
            ..SloSpec::default()
        };
        let mut dog = SloWatchdog::new(spec);
        let bad = window(10, 90); // 90% abort ratio
        let good = window(100, 1);
        assert!(dog.observe(&bad).is_none(), "one breach is not enough");
        let tr = dog.observe(&bad).expect("second breach warns");
        assert_eq!((tr.from, tr.to), (SloState::Ok, SloState::Warn));
        assert!(!tr.breaches.is_empty());
        assert!(dog.observe(&bad).is_none(), "streak restarts after Warn");
        let tr = dog.observe(&bad).expect("two more breaches trip Incident");
        assert_eq!((tr.from, tr.to), (SloState::Warn, SloState::Incident));
        assert!(dog.observe(&good).is_none());
        let tr = dog.observe(&good).expect("two clean windows step down");
        assert_eq!((tr.from, tr.to), (SloState::Incident, SloState::Warn));
        assert!(dog.observe(&good).is_none());
        let tr = dog.observe(&good).expect("two more clean windows clear");
        assert_eq!((tr.from, tr.to), (SloState::Warn, SloState::Ok));
        assert_eq!(dog.timeline().len(), 4);
        assert_eq!(dog.breached_windows(), 4);
    }

    #[test]
    fn quiet_windows_do_not_move_the_machine() {
        let mut dog = SloWatchdog::new(SloSpec {
            max_abort_ratio_pct: Some(30.0),
            warn_after: 1,
            ..SloSpec::default()
        });
        let quiet = window(0, 0);
        assert!(dog.observe(&quiet).is_none());
        assert_eq!(dog.windows_seen(), 0);
        assert_eq!(dog.state(), SloState::Ok);
    }

    #[test]
    fn incident_trips_flight_recorder_with_schema_stamp() {
        let spec = SloSpec {
            max_abort_ratio_pct: Some(10.0),
            warn_after: 1,
            incident_after: 1,
            min_events: 1,
            ..SloSpec::default()
        };
        let plane = OpsPlane::with_ring(spec, 16);
        let tel = Arc::new(Telemetry::with_trace_capacity(64));
        plane.attach(&tel);
        for round in 0..2u64 {
            for i in 0..20u64 {
                tel.record_abort(pair(0), AbortCause::Validation);
                tel.trace(
                    pair(0),
                    TraceKind::Abort {
                        cause: AbortCause::Validation,
                        addr: (round * 100 + i) as usize,
                    },
                );
            }
            tel.record_commit(pair(0), 50);
            drop(plane.roll_stamped("test-stamp"));
        }
        assert_eq!(plane.state(), SloState::Incident);
        let incidents = plane.incidents();
        assert_eq!(incidents.len(), 1);
        let dump = &incidents[0].json;
        assert!(dump.contains("\"schema\": 1"));
        assert!(dump.contains("\"kind\": \"gstm_incident\""));
        assert!(dump.contains("\"stamp\": \"test-stamp\""));
        assert!(dump.contains("\"state\": \"incident\""));
        assert!(dump.contains("\"kind\":\"abort\""));
        assert!(!dump.contains("ts_ns"), "dump omits wall-clock noise");
        // The /incidents endpoint returns a JSON array holding the dump.
        let arr = plane.incidents_json();
        assert!(arr.starts_with('['));
        assert!(arr.contains("gstm_incident"));
    }

    #[test]
    fn frozen_metrics_are_stable_and_partitioned() {
        let plane = OpsPlane::with_ring(SloSpec::default(), 4);
        let tel = Arc::new(Telemetry::counters_only());
        plane.attach(&tel);
        for i in 0..10u64 {
            tel.record_commit(pair(0), i);
            drop(plane.roll_stamped("s"));
        }
        let frozen = plane.freeze_stamped("s");
        assert_eq!(plane.metrics(), frozen, "scrapes after freeze are pinned");
        tel.record_commit(pair(0), 1);
        assert_eq!(plane.metrics(), frozen, "even if counters move afterwards");
        assert!(frozen.contains("gstm_build_info{schema=\"1\""));
        assert!(frozen.contains("gstm_windows_closed_total 10"));
        assert!(frozen.contains("gstm_window_evicted_windows_total 6"));
        plane.check_partition().unwrap();
        // The exported partition adds up: evicted + retained == total.
        let evicted: u64 = frozen
            .lines()
            .find(|l| l.starts_with("gstm_window_evicted_total{counter=\"commits\"}"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        let retained: u64 = frozen
            .lines()
            .filter(|l| l.starts_with("gstm_window_commits{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert_eq!(evicted + retained, 10);
    }

    #[test]
    fn http_parser_handles_fragments_and_garbage() {
        assert_eq!(parse_http_request(b""), HttpParse::Partial);
        assert_eq!(parse_http_request(b"GET /met"), HttpParse::Partial);
        assert_eq!(
            parse_http_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n"),
            HttpParse::Partial
        );
        assert_eq!(
            parse_http_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpParse::Complete {
                method: "GET".to_string(),
                path: "/metrics".to_string()
            }
        );
        assert_eq!(
            parse_http_request(b"GET /vars?pretty=1 HTTP/1.0\r\n\r\n"),
            HttpParse::Complete {
                method: "GET".to_string(),
                path: "/vars".to_string()
            }
        );
        assert!(matches!(
            parse_http_request(b"nonsense\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
        assert!(matches!(
            parse_http_request(b"GET /x SPDY/9\r\n\r\n"),
            HttpParse::Invalid(_)
        ));
        let huge = vec![b'a'; MAX_REQUEST_BYTES + 1];
        assert!(matches!(parse_http_request(&huge), HttpParse::Invalid(_)));
    }

    #[test]
    fn routes_serve_and_unknown_paths_404() {
        let plane = OpsPlane::new(SloSpec::default());
        let tel = Arc::new(Telemetry::counters_only());
        plane.attach(&tel);
        tel.record_commit(pair(0), 5);
        let (status, _, body) = route(&plane, "GET", "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("gstm_commits_total 1"));
        let (status, _, body) = route(&plane, "GET", "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"state\":\"ok\""));
        assert!(body.contains("\"trace_dropped\":0"));
        assert!(body.contains("\"guardian_restarts\":0"));
        let (status, _, _) = route(&plane, "GET", "/vars");
        assert_eq!(status, 200);
        let (status, _, _) = route(&plane, "GET", "/incidents");
        assert_eq!(status, 200);
        let (status, _, body) = route(&plane, "GET", "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("not found"));
        let (status, _, _) = route(&plane, "POST", "/metrics");
        assert_eq!(status, 405);
    }

    #[test]
    fn health_is_503_in_incident() {
        let spec = SloSpec {
            max_abort_ratio_pct: Some(10.0),
            warn_after: 1,
            incident_after: 1,
            ..SloSpec::default()
        };
        let plane = OpsPlane::new(spec);
        let tel = Arc::new(Telemetry::counters_only());
        plane.attach(&tel);
        for _ in 0..2 {
            for _ in 0..20 {
                tel.record_abort(pair(0), AbortCause::Validation);
            }
            tel.record_commit(pair(0), 1);
            drop(plane.roll_stamped("s"));
        }
        let (status, _, body) = route(&plane, "GET", "/health");
        assert_eq!(status, 503);
        assert!(body.contains("\"state\":\"incident\""));
        assert!(body.contains("abort_ratio"));
    }

    #[test]
    fn server_round_trips_over_a_real_socket_with_partial_writes() {
        let plane = Arc::new(OpsPlane::new(SloSpec::default()));
        let tel = Arc::new(Telemetry::counters_only());
        plane.attach(&tel);
        tel.record_commit(pair(0), 9);
        let server = serve(Arc::clone(&plane), "127.0.0.1:0").expect("bind");
        let addr = server.addr;

        let fetch = |req_parts: &[&str]| -> String {
            let mut s = TcpStream::connect(addr).expect("connect");
            for part in req_parts {
                s.write_all(part.as_bytes()).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };

        // Request split across writes exercises the Partial path.
        let resp = fetch(&["GET /met", "rics HTTP/1.1\r\nHost: t\r\n\r\n"]);
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp}");
        assert!(resp.contains("gstm_commits_total 1"));
        let resp = fetch(&["GET /unknown HTTP/1.1\r\n\r\n"]);
        assert!(resp.starts_with("HTTP/1.1 404"));
        let resp = fetch(&["GET /health HTTP/1.1\r\n\r\n"]);
        assert!(resp.starts_with("HTTP/1.1 200"));
        server.stop();
    }

    #[test]
    fn deterministic_rolls_produce_identical_dumps() {
        let run = || {
            let spec = SloSpec {
                max_abort_ratio_pct: Some(25.0),
                warn_after: 1,
                incident_after: 2,
                ..SloSpec::default()
            };
            let plane = OpsPlane::with_ring(spec, 8);
            let tel = Arc::new(Telemetry::with_trace_capacity(256));
            plane.attach(&tel);
            for step in 0..6u64 {
                for i in 0..10u64 {
                    if step < 4 {
                        tel.record_abort(pair((i % 2) as u16), AbortCause::Validation);
                        tel.trace(
                            pair((i % 2) as u16),
                            TraceKind::Abort {
                                cause: AbortCause::Validation,
                                addr: (step * 10 + i) as usize,
                            },
                        );
                    }
                    tel.record_commit(pair((i % 2) as u16), 100 + step);
                    tel.trace(
                        pair((i % 2) as u16),
                        TraceKind::Commit {
                            commit_ns: 100 + step,
                            writes: 1,
                        },
                    );
                }
                drop(plane.roll_stamped("fixed"));
            }
            let frozen = plane.freeze_stamped("fixed");
            (
                plane
                    .incidents()
                    .into_iter()
                    .map(|i| i.json)
                    .collect::<Vec<_>>(),
                frozen,
            )
        };
        let (a_dumps, a_frozen) = run();
        let (b_dumps, b_frozen) = run();
        assert!(!a_dumps.is_empty(), "scenario must trip an incident");
        assert_eq!(a_dumps, b_dumps, "flight dumps replay bit-identically");
        assert_eq!(a_frozen, b_frozen, "frozen exposition replays bit-identically");
    }
}
