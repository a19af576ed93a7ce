//! # gstm-analyze — cross-run variance analysis over telemetry artifacts
//!
//! The harness (`gstm-repro --telemetry=DIR`) exports one artifact set per
//! guided repetition (`<bench>_<threads>t_run<r>_telemetry.{prom,jsonl,trace.json}`)
//! plus two CSVs with its own accounting (`<bench>_<threads>t_runs.csv`,
//! `<bench>_<threads>t_guided_summary.csv`). This crate re-derives the
//! paper's variance metrics *from the exported telemetry alone* and
//! cross-checks them against the harness numbers:
//!
//! * per-thread execution-time standard deviation (recomputed from
//!   `runs.csv`, checked against `guided_summary.csv` at float tolerance),
//! * non-determinism: distinct TSS across the runs' traced states, exact.
//!   The guided hook's own tracker writes each state it forms into the
//!   trace ([`TraceKind::State`]), so the analyzer reads the recorded Tseq
//!   instead of re-deriving it, and requires one state per traced commit,
//! * the abort-tail metric Σj² per thread (exact),
//! * per-thread/gate-outcome partitions of the global counters (exact),
//! * commit-latency quantiles per run (exact nearest-rank over raw
//!   `commit_ns` samples) and their spread across runs,
//! * per-epoch segmentation of adaptive runs: the trace is split at
//!   [`TraceKind::ModelSwap`] events and the swap counter, epoch-id
//!   ordering, and per-epoch commit partition are cross-checked
//!   (`epoch_segmentation`).
//!
//! The result is a [`CampaignReport`]: a list of named pass/fail
//! [`Check`]s, the recomputed metrics, and the model-drift summary read
//! from the final run's Prometheus exposition. [`render_verdict_json`]
//! and [`render_markdown`] serialize it for CI (`verdict.json`) and for
//! humans.
//!
//! Counters are trusted unconditionally; trace-derived quantities (states,
//! histograms) are only cross-checked exactly when the run's
//! `gstm_trace_dropped_total` is zero — a saturated ring makes the trace
//! a *sample*, and the affected checks degrade to "skipped" rather than
//! reporting false mismatches.

#![forbid(unsafe_code)]

use gstm_core::json::{self, array_lines, escape, Value};
use gstm_core::metrics::{self, quantile, AbortHistogram};
use gstm_core::telemetry::{parse_jsonl, TraceEvent, TraceKind};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

// ---------------------------------------------------------------------------
// Prometheus text exposition parsing
// ---------------------------------------------------------------------------

/// One sample from a Prometheus text exposition.
#[derive(Clone, Debug, PartialEq)]
struct PromSample {
    /// Metric family name.
    name: String,
    /// Label pairs, in exposition order.
    labels: Vec<(String, String)>,
    /// Sample value.
    value: f64,
}

/// A parsed `.prom` file.
#[derive(Clone, Debug, Default)]
struct PromSnapshot {
    samples: Vec<PromSample>,
}

impl PromSnapshot {
    /// Parse the text exposition format emitted by
    /// `TelemetrySnapshot::render_prometheus` (and any conforming subset
    /// of the Prometheus format: `name{k="v",...} value` lines, `#`
    /// comments).
    pub(crate) fn parse(text: &str) -> Result<PromSnapshot, String> {
        let mut samples = Vec::new();
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("prom line {}: {what}: {raw}", n + 1);
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| err("missing value"))?;
            let value: f64 = value.parse().map_err(|_| err("bad value"))?;
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| err("unterminated labels"))?;
                    let mut labels = Vec::new();
                    for pair in body.split(',').filter(|p| !p.is_empty()) {
                        let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label"))?;
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .ok_or_else(|| err("unquoted label value"))?;
                        labels.push((k.to_string(), v.to_string()));
                    }
                    (name.to_string(), labels)
                }
            };
            samples.push(PromSample { name, labels, value });
        }
        Ok(PromSnapshot { samples })
    }

    /// First sample of `name` carrying every label in `labels`.
    fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }

    /// Sum of every sample of `name` carrying every label in `labels`.
    pub(crate) fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// All samples of `name`.
    fn family(&self, name: &str) -> impl Iterator<Item = &PromSample> + '_ {
        let name = name.to_string();
        self.samples.iter().filter(move |s| s.name == name)
    }
}

// ---------------------------------------------------------------------------
// Harness CSV parsing
// ---------------------------------------------------------------------------

/// One row of `<stem>_runs.csv`: what the harness measured for one
/// thread in one guided repetition.
#[derive(Clone, Copy, Debug, PartialEq)]
struct CsvRunRow {
    /// Repetition index.
    run: usize,
    /// Thread index.
    thread: usize,
    /// Execution time of that thread, seconds.
    secs: f64,
    /// Commits that thread performed.
    commits: u64,
    /// Aborts that thread suffered.
    aborts: u64,
}

/// Parse `<stem>_runs.csv` (`run,thread,secs,commits,aborts`).
fn parse_runs_csv(text: &str) -> Result<Vec<CsvRunRow>, String> {
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("runs.csv line {}: {what}: {line}", n + 1);
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 5 {
            return Err(err("expected 5 fields"));
        }
        rows.push(CsvRunRow {
            run: f[0].parse().map_err(|_| err("bad run"))?,
            thread: f[1].parse().map_err(|_| err("bad thread"))?,
            secs: f[2].parse().map_err(|_| err("bad secs"))?,
            commits: f[3].parse().map_err(|_| err("bad commits"))?,
            aborts: f[4].parse().map_err(|_| err("bad aborts"))?,
        });
    }
    if rows.is_empty() {
        return Err("runs.csv has no data rows".into());
    }
    Ok(rows)
}

/// The harness's own cross-run metrics from `<stem>_guided_summary.csv`.
#[derive(Clone, Debug, Default, PartialEq)]
struct HarnessSummary {
    /// Per-thread execution-time standard deviation, seconds.
    std_dev_secs: Vec<f64>,
    /// Per-thread abort-tail metric Σj².
    tail_metric: Vec<u64>,
    /// Distinct TSS across the guided repetitions.
    non_determinism: u64,
    /// Total guided commits across repetitions.
    commits: u64,
    /// Total guided aborts across repetitions.
    aborts: u64,
}

/// Parse `<stem>_guided_summary.csv` (`metric,thread,value`).
fn parse_summary_csv(text: &str) -> Result<HarnessSummary, String> {
    let mut s = HarnessSummary::default();
    for (n, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("summary.csv line {}: {what}: {line}", n + 1);
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 3 {
            return Err(err("expected 3 fields"));
        }
        match f[0] {
            "std_dev_secs" => {
                let t: usize = f[1].parse().map_err(|_| err("bad thread"))?;
                if s.std_dev_secs.len() != t {
                    return Err(err("std_dev_secs rows out of order"));
                }
                s.std_dev_secs.push(f[2].parse().map_err(|_| err("bad value"))?);
            }
            "tail_metric" => {
                let t: usize = f[1].parse().map_err(|_| err("bad thread"))?;
                if s.tail_metric.len() != t {
                    return Err(err("tail_metric rows out of order"));
                }
                s.tail_metric.push(f[2].parse().map_err(|_| err("bad value"))?);
            }
            "non_determinism" => s.non_determinism = f[2].parse().map_err(|_| err("bad value"))?,
            "commits" => s.commits = f[2].parse().map_err(|_| err("bad value"))?,
            "aborts" => s.aborts = f[2].parse().map_err(|_| err("bad value"))?,
            other => return Err(err(&format!("unknown metric {other}"))),
        }
    }
    if s.std_dev_secs.is_empty() {
        return Err("summary.csv has no std_dev_secs rows".into());
    }
    Ok(s)
}

/// One row of `<stem>_failures.csv`: a measurement repetition that
/// panicked instead of completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsvFailure {
    /// Phase the casualty occurred in (`default` or `guided`).
    pub phase: String,
    /// Repetition index within that phase's attempt sequence.
    pub rep: usize,
    /// The panic cause the harness recorded.
    pub cause: String,
}

/// Parse `<stem>_failures.csv` (`phase,rep,cause`). An empty table means
/// every repetition completed; the cause field may be CSV-quoted.
fn parse_failures_csv(text: &str) -> Result<Vec<CsvFailure>, String> {
    let unquote = |s: &str| -> String {
        s.strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(|s| s.replace("\"\"", "\""))
            .unwrap_or_else(|| s.to_string())
    };
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("failures.csv line {}: {what}: {line}", n + 1);
        // The cause is free text (possibly quoted, possibly containing
        // commas); phase and rep never are, so split off the first two
        // fields only.
        let f: Vec<&str> = line.splitn(3, ',').collect();
        if f.len() != 3 {
            return Err(err("expected 3 fields"));
        }
        rows.push(CsvFailure {
            phase: f[0].to_string(),
            rep: f[1].parse().map_err(|_| err("bad rep"))?,
            cause: unquote(f[2]),
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Per-run reconstruction from the JSONL trace
// ---------------------------------------------------------------------------

/// Rebuild per-thread abort histograms: each thread's aborts since its
/// previous commit are that commit's retry count, mirroring the
/// harness's `ThreadStats::record_commit` bookkeeping.
fn per_thread_hists(events: &[TraceEvent], threads: usize) -> Vec<AbortHistogram> {
    let mut hists = vec![AbortHistogram::new(); threads];
    let mut pending = vec![0u32; threads];
    for ev in events {
        let t = ev.pair.thread.0 as usize;
        if t >= threads {
            continue;
        }
        match ev.kind {
            TraceKind::Abort { .. } => pending[t] += 1,
            TraceKind::Commit { .. } => {
                hists[t].record(pending[t]);
                pending[t] = 0;
            }
            _ => {}
        }
    }
    hists
}

/// One model epoch's slice of a run's trace, delimited by
/// [`TraceKind::ModelSwap`] events. A run that never swapped has exactly
/// one segment: epoch 0, the initially trained model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSegment {
    /// Epoch id of the model live during this segment.
    pub epoch: u32,
    /// Drift-verdict code carried by the swap that installed this epoch
    /// (`None` for the initial model, which was not installed by a swap).
    pub swap_verdict: Option<u8>,
    /// `StateTransition` events observed while this epoch was live.
    pub transitions: u64,
    /// `Commit` events observed while this epoch was live.
    pub commits: u64,
}

/// Segment a run's globally-sequenced trace at its `ModelSwap` events,
/// attributing every transition and commit to the model epoch that was
/// live when it was traced.
fn epoch_segments(events: &[TraceEvent]) -> Vec<EpochSegment> {
    let mut segs = vec![EpochSegment::default()];
    for ev in events {
        match ev.kind {
            TraceKind::ModelSwap { epoch, verdict } => segs.push(EpochSegment {
                epoch,
                swap_verdict: Some(verdict),
                ..EpochSegment::default()
            }),
            TraceKind::StateTransition { .. } => {
                if let Some(seg) = segs.last_mut() {
                    seg.transitions += 1;
                }
            }
            TraceKind::Commit { .. } => {
                if let Some(seg) = segs.last_mut() {
                    seg.commits += 1;
                }
            }
            _ => {}
        }
    }
    segs
}

/// Everything re-derived from one repetition's artifacts.
#[derive(Clone, Debug)]
struct RunAnalysis {
    /// Repetition index.
    run: usize,
    /// Keys of the run's traced [`TraceKind::State`] records, in sequence
    /// order: the guided hook's recorded Tseq.
    states: Vec<u64>,
    /// Reconstructed per-thread abort histograms.
    hists: Vec<AbortHistogram>,
    /// Raw commit latencies, sorted ascending, nanoseconds.
    commit_ns: Vec<u64>,
    /// `gstm_trace_dropped_total` — nonzero means the trace is a sample
    /// and exact trace-derived cross-checks are skipped.
    dropped: u64,
    /// The run's trace split at its `ModelSwap` events — one segment per
    /// model epoch that was live during the run (always at least one).
    segments: Vec<EpochSegment>,
    /// Circuit-breaker transitions traced during the run, in sequence
    /// order (`(from, to, cause)` stable codes).
    breaker_events: Vec<BreakerEvent>,
    /// Abort events in the trace (every abort is traced, unlike the
    /// histogram reconstruction, which drops trailing aborts).
    abort_events: u64,
    /// Abort events carrying a culprit address (`addr != 0`) — the trace
    /// side of the contention tracker's `attributed` counter.
    abort_events_with_addr: u64,
    /// The run's parsed counter exposition.
    prom: PromSnapshot,
}

/// One traced circuit-breaker transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerEvent {
    /// State code left (0 closed, 1 open, 2 half-open).
    from: u8,
    /// State code entered.
    pub(crate) to: u8,
    /// Stable cause code (see `gstm_core::breaker::BreakerCause`).
    cause: u8,
}

impl RunAnalysis {
    /// Analyze one repetition's JSONL + prom artifact pair.
    fn from_artifacts(
        run: usize,
        jsonl: &str,
        prom_text: &str,
        threads: usize,
    ) -> Result<RunAnalysis, String> {
        let events = parse_jsonl(jsonl).map_err(|e| format!("run {run}: {e}"))?;
        let prom = PromSnapshot::parse(prom_text).map_err(|e| format!("run {run}: {e}"))?;
        let mut commit_ns: Vec<u64> = events
            .iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::Commit { commit_ns, .. } => Some(commit_ns),
                _ => None,
            })
            .collect();
        commit_ns.sort_unstable();
        let breaker_events: Vec<BreakerEvent> = events
            .iter()
            .filter_map(|ev| match ev.kind {
                TraceKind::Breaker { from, to, cause } => {
                    Some(BreakerEvent { from, to, cause })
                }
                _ => None,
            })
            .collect();
        let (mut abort_events, mut abort_events_with_addr) = (0u64, 0u64);
        let mut states = Vec::new();
        for ev in &events {
            match ev.kind {
                TraceKind::Abort { addr, .. } => {
                    abort_events += 1;
                    if addr != 0 {
                        abort_events_with_addr += 1;
                    }
                }
                TraceKind::State { key } => states.push(key),
                _ => {}
            }
        }
        Ok(RunAnalysis {
            run,
            states,
            hists: per_thread_hists(&events, threads),
            commit_ns,
            dropped: prom.get("gstm_trace_dropped_total", &[]).unwrap_or(0.0) as u64,
            segments: epoch_segments(&events),
            breaker_events,
            abort_events,
            abort_events_with_addr,
            prom,
        })
    }

    /// Commits reconstructed from the trace.
    fn trace_commits(&self) -> u64 {
        self.hists.iter().map(|h| h.total_commits()).sum()
    }

    /// Aborts reconstructed from the trace (attributed ones — trailing
    /// aborts with no following commit on their thread are not counted,
    /// same as the harness histograms).
    fn trace_aborts(&self) -> u64 {
        self.hists.iter().map(|h| h.total_aborts()).sum()
    }

    /// Model hot-swaps reconstructed from the trace (one per epoch
    /// boundary).
    fn trace_swaps(&self) -> u64 {
        self.segments.len() as u64 - 1
    }
}

// ---------------------------------------------------------------------------
// Campaign analysis
// ---------------------------------------------------------------------------

/// Pass/fail thresholds. Cross-*check* tolerances are always applied;
/// the `Option` fields add policy gates on the recomputed metrics.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Absolute tolerance for float cross-checks (the harness writes
    /// seconds at 9 decimals, so recomputation differs by < 1e-8).
    pub float_tol: f64,
    /// Fail if any thread's time coefficient of variation (std-dev /
    /// mean, percent) exceeds this.
    pub max_cv_pct: Option<f64>,
    /// Fail if cross-run non-determinism (distinct TSS) exceeds this.
    pub max_non_determinism: Option<u64>,
    /// Fail if the campaign abort ratio (aborts / (commits+aborts),
    /// percent) exceeds this.
    pub max_abort_ratio_pct: Option<f64>,
    /// Fail if the model's off-model transition share exceeds this.
    pub max_off_model_pct: Option<f64>,
    /// Fail if the drift verdict reached Stale (code 3).
    pub fail_on_stale: bool,
    /// Fail if the campaign degraded at all: any breaker trip, model
    /// rejection, guardian restart, or panicked repetition (the
    /// `--fail-on-degraded` CI gate).
    pub fail_on_degraded: bool,
    /// Fail if the campaign's hottest conflict address accounts for more
    /// than this share of attributed aborts, percent (the
    /// `--max-hot-addr-pct` gate: a single address dominating contention
    /// is a data-layout bug, not a scheduling problem).
    pub max_hot_addr_pct: Option<f64>,
    /// Fail if the server's frame-time coefficient of variation exceeds
    /// this, percent (the frame-rate-variance gate over `ticks.jsonl`).
    pub max_frame_cv_pct: Option<f64>,
    /// Fail if the server's frame-time p99 exceeds this, milliseconds.
    pub max_frame_p99_ms: Option<f64>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            float_tol: 1e-6,
            max_cv_pct: None,
            max_non_determinism: None,
            max_abort_ratio_pct: None,
            max_off_model_pct: None,
            fail_on_stale: false,
            fail_on_degraded: false,
            max_hot_addr_pct: None,
            max_frame_cv_pct: None,
            max_frame_p99_ms: None,
        }
    }
}

/// One named cross-check or policy gate.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable identifier (snake_case), keyed on by CI.
    name: String,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence.
    detail: String,
}

impl Check {
    /// A check with an explicit verdict.
    pub fn new(name: &str, pass: bool, detail: String) -> Check {
        Check {
            name: name.into(),
            pass,
            detail,
        }
    }

    /// A check that passes iff `findings` is empty: its detail is
    /// `ok_detail` on a pass and the findings joined by `"; "` otherwise.
    fn from_findings(name: &str, findings: Vec<String>, ok_detail: impl Into<String>) -> Check {
        match findings.is_empty() {
            true => Check::new(name, true, ok_detail.into()),
            false => Check::new(name, false, findings.join("; ")),
        }
    }
}

/// Model-drift facts lifted from the final run's exposition (the drift
/// tracker is shared across repetitions, so the last run carries the
/// whole campaign).
#[derive(Clone, Debug, Default)]
pub struct DriftFacts {
    /// Staleness code: 0 insufficient, 1 fresh, 2 drifting, 3 stale.
    pub staleness: u64,
    /// Share of transitions leaving the modeled edge set, percent.
    pub off_model_pct: f64,
    /// Transition-weighted mean per-state KL divergence, nats.
    pub kl_mean_nats: f64,
    /// Worst per-state KL divergence, nats.
    pub kl_max_nats: f64,
    /// Guidance metric of the profiled model, percent.
    pub profiled_metric_pct: f64,
    /// Guidance metric recomputed from observed transitions, if enough
    /// were seen.
    pub observed_metric_pct: Option<f64>,
}

/// Degradation facts aggregated from breaker counters, trace events, and
/// the harness's failures CSV — the "Degradation events" section of the
/// report and the `--fail-on-degraded` gate's evidence.
#[derive(Clone, Debug, Default)]
pub struct DegradationFacts {
    /// Repetitions the harness recorded as panicked.
    pub failed_reps: Vec<CsvFailure>,
    /// Breaker trips (`gstm_breaker_tripped_total`) summed over runs.
    pub breaker_trips: u64,
    /// Breaker re-closes (`gstm_breaker_reclosed_total`) summed over runs.
    pub breaker_recloses: u64,
    /// Half-open probe admissions (`gstm_breaker_half_open_total`) summed
    /// over runs.
    pub breaker_probes: u64,
    /// Model files rejected at load (`gstm_breaker_model_rejected_total`)
    /// summed over runs.
    pub model_rejections: u64,
    /// Guardian restarts after a panic (`gstm_guardian_restarts_total`)
    /// summed over runs.
    pub guardian_restarts: u64,
    /// `gstm_breaker_state` of the final run (0 closed, 1 open, 2
    /// half-open).
    pub final_breaker_state: u64,
    /// Every traced breaker transition, as `(run, event)` in run order.
    pub events: Vec<(usize, BreakerEvent)>,
}

impl DegradationFacts {
    /// Whether the campaign degraded at all.
    fn any(&self) -> bool {
        !self.failed_reps.is_empty()
            || self.breaker_trips > 0
            || self.model_rejections > 0
            || self.guardian_restarts > 0
    }
}

/// Contention facts aggregated from the `gstm_contention_*` families —
/// the "Contention report" section and the `--max-hot-addr-pct` gate's
/// evidence. Absent from the report when no run exported the families
/// (pre-contention artifacts, or telemetry without a tracker).
#[derive(Clone, Debug, Default)]
pub struct ContentionFacts {
    /// Runs whose exposition carried the families.
    pub runs_with: usize,
    /// Σ `gstm_contention_attributed_total` over those runs.
    pub attributed: u64,
    /// Σ `gstm_contention_unattributed_total` over those runs.
    pub unattributed: u64,
    /// Sketch evictions summed over runs (how hard the top-K worked).
    pub replacements: u64,
    /// Hot addresses merged across runs by address, count-descending,
    /// top 16. Counts inherit the per-run sketches' over-count bounds.
    pub top: Vec<(usize, u64)>,
    /// Gini coefficient of the merged top-K counts: 0 = every hot
    /// address equally hot, →1 = one address dominates. Computed over
    /// the exported top-K only, so it measures concentration *among the
    /// hot set* — the sketch never exports the cold tail.
    pub gini: f64,
    /// Share of campaign-wide attributed aborts on the single hottest
    /// address, percent.
    pub hottest_pct: f64,
    /// Victim/owner conflict pairs merged across runs, count-descending.
    pub pairs: Vec<(u16, u16, u64)>,
}

impl ContentionFacts {
    /// Attribution rate: share of recorded aborts with a known culprit
    /// address, percent.
    fn attribution_pct(&self) -> f64 {
        let total = self.attributed + self.unattributed;
        if total == 0 {
            0.0
        } else {
            100.0 * self.attributed as f64 / total as f64
        }
    }
}

/// Gini coefficient of a count distribution (0 = uniform, →1 = one value
/// holds everything). Empty and all-zero inputs are 0.
fn gini(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if counts.len() < 2 || total == 0 {
        return 0.0;
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

/// Human-readable label for a breaker state code.
fn breaker_state_label(code: u64) -> &'static str {
    gstm_core::breaker::BreakerState::from_code(code as u8).label()
}

/// Human-readable staleness label for a `gstm_model_staleness` code.
fn staleness_label(code: u64) -> &'static str {
    match code {
        0 => "insufficient",
        1 => "fresh",
        2 => "drifting",
        _ => "stale",
    }
}

/// The analyzer's full output for one campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Artifact stem, `<bench>_<threads>t`.
    pub stem: String,
    /// Repetitions analyzed.
    pub runs: usize,
    /// Threads per repetition.
    pub threads: usize,
    /// All cross-checks and policy gates, in evaluation order.
    pub checks: Vec<Check>,
    /// Per-thread execution-time std-dev recomputed from `runs.csv`.
    pub std_dev_secs: Vec<f64>,
    /// Per-thread mean execution time from `runs.csv`.
    pub mean_secs: Vec<f64>,
    /// Per-thread abort tail Σj² from the merged reconstructed
    /// histograms.
    pub tail_metric: Vec<u64>,
    /// Distinct TSS across the runs' traced states.
    pub non_determinism: usize,
    /// Campaign commit total (from `runs.csv`).
    pub commits: u64,
    /// Campaign abort total (from `runs.csv`).
    pub aborts: u64,
    /// Per-run commit-latency median, nanoseconds.
    pub commit_p50_ns: Vec<u64>,
    /// Per-run commit-latency 99th percentile, nanoseconds.
    pub commit_p99_ns: Vec<u64>,
    /// Model hot-swaps across the campaign (adaptive runs; 0 otherwise).
    /// Taken from `gstm_model_swaps_total` per run, falling back to the
    /// trace-reconstructed count for artifacts predating the family.
    pub model_swaps: u64,
    /// Every run's epoch segmentation, flattened as `(run, segment)` in
    /// run order. Fixed-model campaigns carry one epoch-0 segment per
    /// run.
    pub epochs: Vec<(usize, EpochSegment)>,
    /// Model-drift facts, when the exposition carried them.
    pub drift: Option<DriftFacts>,
    /// Degradation facts: breaker activity, model rejections, guardian
    /// restarts, and panicked repetitions.
    pub degradation: DegradationFacts,
    /// Contention facts, when any run exported the `gstm_contention_*`
    /// families.
    pub contention: Option<ContentionFacts>,
    /// Trace events dropped across all runs (ring overflows) — nonzero
    /// means trace-derived cross-checks degraded to sampling.
    pub trace_dropped: u64,
    /// Live ops-plane facts, when the campaign exported `ops.prom`.
    pub ops: Option<OpsFacts>,
}

impl CampaignReport {
    /// Whether every check passed.
    fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

fn approx(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Run every cross-check and policy gate over the re-derived runs, the
/// harness's raw per-run CSV, its summary CSV, and its failures CSV, folded
/// into the degradation facts (a campaign with casualties has fewer repetitions
/// than attempts; every other check already operates on the successful
/// ones only).
fn analyze_campaign_with_failures(
    stem: &str,
    runs: &[RunAnalysis],
    csv: &[CsvRunRow],
    summary: &HarnessSummary,
    failures: &[CsvFailure],
    th: &Thresholds,
) -> CampaignReport {
    let threads = csv.iter().map(|r| r.thread + 1).max().unwrap_or(0);
    let n_runs = csv.iter().map(|r| r.run + 1).max().unwrap_or(0);
    let dropped_total: u64 = runs.iter().map(|r| r.dropped).sum();
    let trace_exact = dropped_total == 0 && runs.len() == n_runs;
    let mut mean_secs = vec![0.0; threads];
    let mut std_dev_secs = vec![0.0; threads];
    for t in 0..threads {
        let secs: Vec<f64> = csv.iter().filter(|r| r.thread == t).map(|r| r.secs).collect();
        mean_secs[t] = metrics::mean(&secs);
        std_dev_secs[t] = metrics::std_dev(&secs);
    }
    let mut merged = vec![AbortHistogram::new(); threads];
    for r in runs {
        for (m, h) in merged.iter_mut().zip(&r.hists) {
            m.merge(h);
        }
    }
    let tails: Vec<u64> = merged.iter().map(AbortHistogram::tail_metric).collect();
    let nd = runs.iter().flat_map(|r| &r.states).collect::<HashSet<_>>().len();
    let commits: u64 = csv.iter().map(|r| r.commits).sum();
    let aborts: u64 = csv.iter().map(|r| r.aborts).sum();
    let model_swaps: u64 = runs
        .iter()
        .map(|r| {
            r.prom
                .get("gstm_model_swaps_total", &[])
                .map(|v| v as u64)
                .unwrap_or_else(|| r.trace_swaps())
        })
        .sum();
    let epochs: Vec<(usize, EpochSegment)> = runs
        .iter()
        .flat_map(|r| r.segments.iter().map(|s| (r.run, *s)))
        .collect();
    let degradation = degradation_facts(runs, failures);
    let with_contention: Vec<&RunAnalysis> = runs
        .iter()
        .filter(|r| r.prom.get("gstm_contention_attributed_total", &[]).is_some())
        .collect();
    let contention = (!with_contention.is_empty()).then(|| contention_facts(&with_contention));
    let drift = runs.last().and_then(drift_facts);

    let mut checks = vec![
        check_artifacts(runs.len(), n_runs, dropped_total),
        check_trace_vs_prom_totals(runs),
        check_trace_vs_csv_counts(runs, csv),
        check_thread_partition(runs),
        check_variance_match(&std_dev_secs, summary, th),
        check_abort_tail(&tails, summary, trace_exact),
        check_non_determinism(runs, nd, summary, trace_exact),
        check_totals(commits, aborts, summary),
        check_epoch_segmentation(runs, model_swaps),
        check_breaker_consistency(runs, &degradation),
    ];
    if !with_contention.is_empty() {
        checks.extend([
            check_contention_partition(&with_contention),
            check_contention_sketch_partition(&with_contention),
            check_contention_matrix_partition(&with_contention),
            check_contention_trace_attribution(&with_contention),
        ]);
    }
    checks.extend(
        [
            gate_hot_addr(th, contention.as_ref()),
            gate_degradation(th, &degradation),
            gate_cv(th, &mean_secs, &std_dev_secs),
            gate_non_determinism(th, summary),
            gate_abort_ratio(th, commits, aborts),
            gate_staleness(th, drift.as_ref()),
            gate_off_model(th, drift.as_ref()),
        ]
        .into_iter()
        .flatten(),
    );

    CampaignReport {
        stem: stem.to_string(),
        runs: runs.len(),
        threads,
        checks,
        std_dev_secs,
        mean_secs,
        tail_metric: tails,
        non_determinism: nd,
        commits,
        aborts,
        commit_p50_ns: runs.iter().map(|r| quantile(&r.commit_ns, 0.50)).collect(),
        commit_p99_ns: runs.iter().map(|r| quantile(&r.commit_ns, 0.99)).collect(),
        model_swaps,
        epochs,
        drift,
        degradation,
        contention,
        trace_dropped: dropped_total,
        ops: None,
    }
}

/// Artifact inventory: one telemetry pair per csv repetition.
fn check_artifacts(pairs: usize, n_runs: usize, dropped_total: u64) -> Check {
    Check::new(
        "artifacts",
        pairs == n_runs && pairs > 0,
        format!(
            "{pairs} telemetry artifact pair(s) for {n_runs} csv repetition(s); \
             {dropped_total} trace event(s) dropped"
        ),
    )
}

/// Trace totals vs the run's own counters.
fn check_trace_vs_prom_totals(runs: &[RunAnalysis]) -> Check {
    let mut bad = Vec::new();
    for r in runs {
        if r.dropped > 0 {
            continue;
        }
        let pc = r.prom.get("gstm_commits_total", &[]).unwrap_or(-1.0) as i64;
        let pa = r.prom.sum("gstm_aborts_total", &[]) as i64;
        // Trailing unattributed aborts make trace_aborts a lower
        // bound; commits must match exactly.
        if pc != r.trace_commits() as i64 || pa < r.trace_aborts() as i64 {
            bad.push(format!(
                "run {}: trace {}c/{}a vs prom {}c/{}a",
                r.run,
                r.trace_commits(),
                r.trace_aborts(),
                pc,
                pa
            ));
        }
    }
    Check::from_findings(
        "trace_vs_prom_totals",
        bad,
        "per-run trace-reconstructed commit/abort totals match the counters",
    )
}

/// Trace per-thread counts vs the harness's runs.csv.
fn check_trace_vs_csv_counts(runs: &[RunAnalysis], csv: &[CsvRunRow]) -> Check {
    let mut bad = Vec::new();
    for row in csv {
        let Some(r) = runs.iter().find(|r| r.run == row.run) else { continue };
        if r.dropped > 0 {
            continue;
        }
        let (c, a) = r
            .hists
            .get(row.thread)
            .map(|h| (h.total_commits(), h.total_aborts()))
            .unwrap_or((0, 0));
        if c != row.commits || a != row.aborts {
            bad.push(format!(
                "run {} thread {}: trace {c}c/{a}a vs csv {}c/{}a",
                row.run, row.thread, row.commits, row.aborts
            ));
        }
    }
    Check::from_findings(
        "trace_vs_csv_counts",
        bad,
        "per-run per-thread commit/abort counts match the harness csv exactly",
    )
}

/// Per-thread series partition the global counters.
fn check_thread_partition(runs: &[RunAnalysis]) -> Check {
    let mut bad = Vec::new();
    for r in runs {
        let gc = r.prom.get("gstm_commits_total", &[]).unwrap_or(-1.0);
        let tc = r.prom.sum("gstm_thread_commits_total", &[]);
        if gc != tc {
            bad.push(format!("run {}: thread commits {tc} != total {gc}", r.run));
        }
        let ga = r.prom.sum("gstm_aborts_total", &[]);
        let ta = r.prom.sum("gstm_thread_aborts_total", &[]);
        if ga != ta {
            bad.push(format!("run {}: thread aborts {ta} != total {ga}", r.run));
        }
        for outcome in ["passed", "waited", "released"] {
            let g = r.prom.get("gstm_gate_outcomes_total", &[("outcome", outcome)]);
            let t = r
                .prom
                .sum("gstm_thread_gate_outcomes_total", &[("outcome", outcome)]);
            if g.unwrap_or(-1.0) != t {
                bad.push(format!(
                    "run {}: thread gate {outcome} {t} != total {:?}",
                    r.run, g
                ));
            }
        }
    }
    Check::from_findings(
        "thread_partition",
        bad,
        "per-thread commit/abort/gate-outcome series sum to the global counters",
    )
}

/// Per-thread execution-time std-dev recomputed from runs.csv vs the
/// harness summary.
fn check_variance_match(std_dev_secs: &[f64], summary: &HarnessSummary, th: &Thresholds) -> Check {
    let mut bad = Vec::new();
    for (t, &sd) in std_dev_secs.iter().enumerate() {
        match summary.std_dev_secs.get(t) {
            Some(&h) if approx(sd, h, th.float_tol) => {}
            other => bad.push(format!("thread {t}: recomputed {sd} vs harness {other:?}")),
        }
    }
    let mut c = Check::from_findings(
        "variance_match",
        bad,
        format!(
            "per-thread std-dev recomputed from runs.csv matches harness within {}",
            th.float_tol
        ),
    );
    c.pass &= summary.std_dev_secs.len() == std_dev_secs.len();
    c
}

/// A trace-derived check skipped because the trace is incomplete: it
/// passes and says so, rather than failing on sampled data.
fn skipped_incomplete_trace(name: &str) -> Check {
    Check::new(
        name,
        true,
        "skipped: trace incomplete (dropped events or missing runs)".into(),
    )
}

/// Per-thread abort tail Σj² from the merged reconstructed histograms.
fn check_abort_tail(tails: &[u64], summary: &HarnessSummary, trace_exact: bool) -> Check {
    if !trace_exact {
        return skipped_incomplete_trace("abort_tail_match");
    }
    let pass = tails == summary.tail_metric.as_slice();
    Check::new(
        "abort_tail_match",
        pass,
        if pass {
            format!("per-thread abort tail Σj² {tails:?} matches harness exactly")
        } else {
            format!("reconstructed {tails:?} vs harness {:?}", summary.tail_metric)
        },
    )
}

/// Distinct TSS across the traced states, with every run carrying one
/// state per traced commit (a lost state fails the check).
fn check_non_determinism(
    runs: &[RunAnalysis],
    nd: usize,
    summary: &HarnessSummary,
    trace_exact: bool,
) -> Check {
    if !trace_exact {
        return skipped_incomplete_trace("non_determinism_match");
    }
    let mut detail = format!(
        "distinct TSS across traced states = {nd}, harness = {}",
        summary.non_determinism
    );
    let mut pass = nd as u64 == summary.non_determinism;
    for r in runs.iter().filter(|r| r.states.len() != r.commit_ns.len()) {
        pass = false;
        let (states, commits) = (r.states.len(), r.commit_ns.len());
        let _ = write!(detail, "; run {}: {states} state(s) for {commits} commit(s)", r.run);
    }
    Check::new("non_determinism_match", pass, detail)
}

/// Campaign totals from runs.csv vs the summary.
fn check_totals(commits: u64, aborts: u64, summary: &HarnessSummary) -> Check {
    Check::new(
        "totals_match",
        commits == summary.commits && aborts == summary.aborts,
        format!(
            "runs.csv totals {commits}c/{aborts}a vs summary {}c/{}a",
            summary.commits, summary.aborts
        ),
    )
}

/// Per-epoch segmentation (adaptive runs). Each repetition binds its own
/// telemetry and its own model manager, so a run's
/// `gstm_model_swaps_total` must equal the `ModelSwap` events in that
/// run's trace, its epoch ids must advance monotonically, and the
/// per-epoch commit counts must partition the run's trace-reconstructed
/// commit total.
fn check_epoch_segmentation(runs: &[RunAnalysis], model_swaps: u64) -> Check {
    let mut bad = Vec::new();
    for r in runs {
        if r.dropped > 0 {
            continue;
        }
        match r.prom.get("gstm_model_swaps_total", &[]) {
            Some(prom_swaps) if prom_swaps as u64 != r.trace_swaps() => bad.push(format!(
                "run {}: {} swap event(s) in trace vs gstm_model_swaps_total {}",
                r.run,
                r.trace_swaps(),
                prom_swaps
            )),
            // Older artifacts predate the family entirely — tolerate
            // its absence, but not alongside swap events.
            None if r.trace_swaps() > 0 => bad.push(format!(
                "run {}: {} swap event(s) but no gstm_model_swaps_total family",
                r.run,
                r.trace_swaps()
            )),
            _ => {}
        }
        for w in r.segments.windows(2) {
            if w[1].epoch <= w[0].epoch {
                bad.push(format!(
                    "run {}: epoch id regressed {} -> {}",
                    r.run, w[0].epoch, w[1].epoch
                ));
            }
        }
        let seg_commits: u64 = r.segments.iter().map(|s| s.commits).sum();
        if seg_commits != r.trace_commits() {
            bad.push(format!(
                "run {}: per-epoch commits {} don't partition trace total {}",
                r.run,
                seg_commits,
                r.trace_commits()
            ));
        }
    }
    let exact_runs = runs.iter().filter(|r| r.dropped == 0).count();
    Check::from_findings(
        "epoch_segmentation",
        bad,
        if exact_runs == 0 {
            "skipped: trace incomplete (dropped events or missing runs)".into()
        } else {
            format!(
                "{model_swaps} model swap(s); swap counters, epoch ordering, and \
                 per-epoch commit partition consistent across {exact_runs} exact run(s)"
            )
        },
    )
}

/// Degradation facts: breaker counters summed over runs, the final run's
/// breaker position, every traced transition, and the failures CSV.
fn degradation_facts(runs: &[RunAnalysis], failures: &[CsvFailure]) -> DegradationFacts {
    let sum = |name: &str| -> u64 {
        runs.iter()
            .filter_map(|r| r.prom.get(name, &[]))
            .sum::<f64>() as u64
    };
    DegradationFacts {
        failed_reps: failures.to_vec(),
        breaker_trips: sum("gstm_breaker_tripped_total"),
        breaker_recloses: sum("gstm_breaker_reclosed_total"),
        breaker_probes: sum("gstm_breaker_half_open_total"),
        model_rejections: sum("gstm_breaker_model_rejected_total"),
        guardian_restarts: sum("gstm_guardian_restarts_total"),
        final_breaker_state: runs
            .last()
            .and_then(|r| r.prom.get("gstm_breaker_state", &[]))
            .unwrap_or(0.0) as u64,
        events: runs
            .iter()
            .flat_map(|r| r.breaker_events.iter().map(|e| (r.run, *e)))
            .collect(),
    }
}

/// Degradation ladder (breaker / fault campaigns). Counters are per run
/// (each guided run binds its own breaker and collector), so a run's
/// `gstm_breaker_tripped_total` must equal the →open transitions in that
/// run's trace, and likewise for re-closes and half-open probes.
/// Artifacts predating the breaker families are tolerated — unless the
/// trace carries breaker events.
fn check_breaker_consistency(runs: &[RunAnalysis], degradation: &DegradationFacts) -> Check {
    let mut bad = Vec::new();
    for r in runs {
        if r.dropped > 0 {
            continue;
        }
        let traced = |to: u8| r.breaker_events.iter().filter(|e| e.to == to).count() as u64;
        let families = [
            ("gstm_breaker_tripped_total", traced(1)),
            ("gstm_breaker_half_open_total", traced(2)),
            ("gstm_breaker_reclosed_total", traced(0)),
        ];
        for (name, from_trace) in families {
            match r.prom.get(name, &[]) {
                Some(v) if v as u64 != from_trace => bad.push(format!(
                    "run {}: {} trace transition(s) vs {name} {}",
                    r.run, from_trace, v
                )),
                None if from_trace > 0 => bad.push(format!(
                    "run {}: {} breaker event(s) but no {name} family",
                    r.run, from_trace
                )),
                _ => {}
            }
        }
    }
    Check::from_findings(
        "breaker_consistency",
        bad,
        format!(
            "{} trip(s), {} probe(s), {} re-close(s) consistent between \
             counters and trace",
            degradation.breaker_trips, degradation.breaker_probes, degradation.breaker_recloses
        ),
    )
}

// -- conflict provenance (runs with a contention tracker attached) ----------
// The tracker records every abort the retry loop sees, so three exact
// partitions must hold per run: (a) attributed + unattributed equals the
// run's abort counter — no abort escapes provenance accounting; (b) the
// exported top-K plus the residual equals attributed — the space-saving
// sketch conserves mass through eviction; (c) the victim/owner matrix plus
// owner_unknown equals the recorded total — every abort lands in exactly
// one matrix bucket. A fourth check audits the trace against the counters,
// and degrades to an explicit "skipped" when the ring dropped events: a
// sampled trace must never fail — or silently pass — an exact gate.

/// A run's value of a single-sample contention family, 0 when absent.
fn contention_u64(r: &RunAnalysis, name: &str) -> u64 {
    r.prom.get(name, &[]).unwrap_or(0.0) as u64
}

/// (a) attributed + unattributed partitions the abort counter.
fn check_contention_partition(with: &[&RunAnalysis]) -> Check {
    let mut bad = Vec::new();
    for r in with {
        let attributed = contention_u64(r, "gstm_contention_attributed_total");
        let unattributed = contention_u64(r, "gstm_contention_unattributed_total");
        let aborts = r.prom.sum("gstm_aborts_total", &[]) as u64;
        if attributed + unattributed != aborts {
            bad.push(format!(
                "run {}: attributed {} + unattributed {} != gstm_aborts_total {}",
                r.run, attributed, unattributed, aborts
            ));
        }
    }
    Check::from_findings(
        "contention_partition",
        bad,
        format!(
            "{} run(s): attributed + unattributed partitions the abort \
             counter exactly",
            with.len()
        ),
    )
}

/// (b) top-K + residual conserves the attributed mass.
fn check_contention_sketch_partition(with: &[&RunAnalysis]) -> Check {
    let mut bad = Vec::new();
    for r in with {
        let attributed = contention_u64(r, "gstm_contention_attributed_total");
        let top_sum = r.prom.sum("gstm_contention_addr_aborts_total", &[]) as u64;
        let residual = contention_u64(r, "gstm_contention_residual_total");
        if top_sum + residual != attributed {
            bad.push(format!(
                "run {}: Σ top-K {} + residual {} != attributed {}",
                r.run, top_sum, residual, attributed
            ));
        }
    }
    Check::from_findings(
        "contention_sketch_partition",
        bad,
        "top-K + residual conserves the attributed mass in every run",
    )
}

/// (c) victim/owner matrix + owner_unknown partitions the recorded total.
fn check_contention_matrix_partition(with: &[&RunAnalysis]) -> Check {
    let mut bad = Vec::new();
    for r in with {
        let total = (r.prom.get("gstm_contention_attributed_total", &[]).unwrap_or(0.0)
            + r.prom.get("gstm_contention_unattributed_total", &[]).unwrap_or(0.0))
            as u64;
        let pair_sum = r.prom.sum("gstm_contention_pair_aborts_total", &[]) as u64;
        let unknown = contention_u64(r, "gstm_contention_owner_unknown_total");
        if pair_sum + unknown != total {
            bad.push(format!(
                "run {}: Σ pairs {} + owner_unknown {} != recorded total {}",
                r.run, pair_sum, unknown, total
            ));
        }
    }
    Check::from_findings(
        "contention_matrix_partition",
        bad,
        "victim/owner matrix + owner_unknown partitions the recorded total",
    )
}

/// The trace's abort events vs the attribution counters, in exact runs.
fn check_contention_trace_attribution(with: &[&RunAnalysis]) -> Check {
    let exact: Vec<&&RunAnalysis> = with.iter().filter(|r| r.dropped == 0).collect();
    let mut bad = Vec::new();
    for r in &exact {
        let attributed = contention_u64(r, "gstm_contention_attributed_total");
        let unattributed = contention_u64(r, "gstm_contention_unattributed_total");
        if r.abort_events_with_addr != attributed || r.abort_events != attributed + unattributed
        {
            bad.push(format!(
                "run {}: trace {} abort event(s), {} with addr, vs counters \
                 {} attributed + {} unattributed",
                r.run, r.abort_events, r.abort_events_with_addr, attributed, unattributed
            ));
        }
    }
    Check::from_findings(
        "contention_trace_attribution",
        bad,
        if exact.is_empty() {
            "skipped: trace incomplete (dropped events)".into()
        } else {
            format!(
                "trace abort/culprit-address events agree with the \
                 attribution counters in {} exact run(s)",
                exact.len()
            )
        },
    )
}

/// Contention facts: per-run exports merged by address and by pair.
fn contention_facts(with: &[&RunAnalysis]) -> ContentionFacts {
    let mut by_addr: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    let mut by_pair: std::collections::BTreeMap<(u16, u16), u64> =
        std::collections::BTreeMap::new();
    let (mut attributed, mut unattributed, mut replacements) = (0u64, 0u64, 0u64);
    for r in with {
        attributed += contention_u64(r, "gstm_contention_attributed_total");
        unattributed += contention_u64(r, "gstm_contention_unattributed_total");
        replacements += contention_u64(r, "gstm_contention_sketch_replacements_total");
        for s in r.prom.family("gstm_contention_addr_aborts_total") {
            let Some((_, a)) = s.labels.iter().find(|(k, _)| k == "addr") else {
                continue;
            };
            let Ok(addr) = usize::from_str_radix(a.trim_start_matches("0x"), 16) else {
                continue;
            };
            *by_addr.entry(addr).or_insert(0) += s.value as u64;
        }
        for s in r.prom.family("gstm_contention_pair_aborts_total") {
            let get = |key: &str| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.parse::<u16>().ok())
            };
            if let (Some(v), Some(o)) = (get("victim"), get("owner")) {
                *by_pair.entry((v, o)).or_insert(0) += s.value as u64;
            }
        }
    }
    let mut top: Vec<(usize, u64)> = by_addr.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(16);
    let counts: Vec<u64> = top.iter().map(|&(_, c)| c).collect();
    let hottest_pct = if attributed > 0 {
        100.0 * counts.first().copied().unwrap_or(0) as f64 / attributed as f64
    } else {
        0.0
    };
    let mut pairs: Vec<(u16, u16, u64)> =
        by_pair.into_iter().map(|((v, o), c)| (v, o, c)).collect();
    pairs.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    ContentionFacts {
        runs_with: with.len(),
        attributed,
        unattributed,
        replacements,
        gini: gini(&counts),
        hottest_pct,
        top,
        pairs,
    }
}

/// Model drift from the final run's exposition, when it carries the
/// `gstm_model_*` families.
fn drift_facts(r: &RunAnalysis) -> Option<DriftFacts> {
    let staleness = r.prom.get("gstm_model_staleness", &[])?;
    Some(DriftFacts {
        staleness: staleness as u64,
        off_model_pct: r.prom.get("gstm_model_off_model_pct", &[]).unwrap_or(0.0),
        kl_mean_nats: r
            .prom
            .get("gstm_model_kl_divergence_nats", &[("stat", "mean")])
            .unwrap_or(0.0),
        kl_max_nats: r
            .prom
            .get("gstm_model_kl_divergence_nats", &[("stat", "max")])
            .unwrap_or(0.0),
        profiled_metric_pct: r
            .prom
            .get("gstm_model_guidance_metric_pct", &[("source", "profiled")])
            .unwrap_or(0.0),
        observed_metric_pct: r
            .prom
            .get("gstm_model_guidance_metric_pct", &[("source", "observed")]),
    })
}

// -- policy gates: present only when their threshold is set -----------------

/// `--max-hot-addr-pct`: the hottest address's share of attributed aborts.
fn gate_hot_addr(th: &Thresholds, contention: Option<&ContentionFacts>) -> Option<Check> {
    let (max_pct, c) = (th.max_hot_addr_pct?, contention?);
    Some(Check::new(
        "hot_addr_threshold",
        c.hottest_pct <= max_pct,
        format!(
            "hottest address {} carries {:.2}% of attributed aborts vs limit {max_pct}%",
            c.top.first().map(|&(a, _)| format!("{a:#x}")).unwrap_or_else(|| "n/a".into()),
            c.hottest_pct
        ),
    ))
}

/// `--fail-on-degraded`: any breaker trip, rejection, restart or casualty.
fn gate_degradation(th: &Thresholds, degradation: &DegradationFacts) -> Option<Check> {
    th.fail_on_degraded.then(|| {
        Check::new(
            "degradation",
            !degradation.any(),
            format!(
                "{} breaker trip(s), {} model rejection(s), {} guardian restart(s), \
                 {} failed rep(s)",
                degradation.breaker_trips,
                degradation.model_rejections,
                degradation.guardian_restarts,
                degradation.failed_reps.len()
            ),
        )
    })
}

/// `--max-cv-pct`: the worst per-thread execution-time CV.
fn gate_cv(th: &Thresholds, mean_secs: &[f64], std_dev_secs: &[f64]) -> Option<Check> {
    let max_cv = th.max_cv_pct?;
    let worst = mean_secs
        .iter()
        .zip(std_dev_secs)
        .map(|(&mean, &sd)| if mean > 0.0 { 100.0 * sd / mean } else { 0.0 })
        .fold(0.0f64, f64::max);
    Some(Check::new(
        "cv_threshold",
        worst <= max_cv,
        format!("worst per-thread time CV {worst:.2}% vs limit {max_cv}%"),
    ))
}

/// `--max-nondet`: the harness's non-determinism count.
fn gate_non_determinism(th: &Thresholds, summary: &HarnessSummary) -> Option<Check> {
    let max_nd = th.max_non_determinism?;
    Some(Check::new(
        "non_determinism_threshold",
        summary.non_determinism <= max_nd,
        format!("non-determinism {} vs limit {max_nd}", summary.non_determinism),
    ))
}

/// `--max-abort-ratio-pct`: aborts over attempts, campaign-wide.
fn gate_abort_ratio(th: &Thresholds, commits: u64, aborts: u64) -> Option<Check> {
    let max_ar = th.max_abort_ratio_pct?;
    let ratio = if commits + aborts > 0 {
        100.0 * aborts as f64 / (commits + aborts) as f64
    } else {
        0.0
    };
    Some(Check::new(
        "abort_ratio_threshold",
        ratio <= max_ar,
        format!("abort ratio {ratio:.2}% vs limit {max_ar}%"),
    ))
}

/// `--fail-on-stale`: the drift verdict must not have reached Stale.
fn gate_staleness(th: &Thresholds, drift: Option<&DriftFacts>) -> Option<Check> {
    let d = drift.filter(|_| th.fail_on_stale)?;
    Some(Check::new(
        "staleness",
        d.staleness < 3,
        format!("model verdict: {}", staleness_label(d.staleness)),
    ))
}

/// `--max-off-model-pct`: the share of transitions leaving the model.
fn gate_off_model(th: &Thresholds, drift: Option<&DriftFacts>) -> Option<Check> {
    let (max_off, d) = (th.max_off_model_pct?, drift?);
    Some(Check::new(
        "off_model_threshold",
        d.off_model_pct <= max_off,
        format!("off-model transitions {:.2}% vs limit {max_off}%", d.off_model_pct),
    ))
}

// ---------------------------------------------------------------------------
// Campaign loading
// ---------------------------------------------------------------------------

/// Load `<stem>_run<r>_telemetry.{jsonl,prom}` pairs (consecutive `r`
/// from 0) plus the two harness CSVs from `dir`, and analyze them.
pub fn analyze_dir(dir: &Path, stem: &str, th: &Thresholds) -> Result<CampaignReport, String> {
    let read = |name: String| -> Result<String, String> {
        std::fs::read_to_string(dir.join(&name)).map_err(|e| format!("{name}: {e}"))
    };
    let csv = parse_runs_csv(&read(format!("{stem}_runs.csv"))?)?;
    let summary = parse_summary_csv(&read(format!("{stem}_guided_summary.csv"))?)?;
    // Missing file = artifacts from a harness predating campaign
    // resilience; present-but-empty = every repetition completed.
    let failures = match std::fs::read_to_string(dir.join(format!("{stem}_failures.csv"))) {
        Ok(text) => parse_failures_csv(&text)?,
        Err(_) => Vec::new(),
    };
    let threads = csv.iter().map(|r| r.thread + 1).max().unwrap_or(0);
    let mut runs = Vec::new();
    loop {
        let r = runs.len();
        let prom_name = format!("{stem}_run{r}_telemetry.prom");
        if !dir.join(&prom_name).exists() {
            break;
        }
        let jsonl = read(format!("{stem}_run{r}_telemetry.jsonl"))?;
        runs.push(RunAnalysis::from_artifacts(r, &jsonl, &read(prom_name)?, threads)?);
    }
    if runs.is_empty() {
        return Err(format!("no {stem}_run<r>_telemetry.prom artifacts in {}", dir.display()));
    }
    let mut report = analyze_campaign_with_failures(stem, &runs, &csv, &summary, &failures, th);
    // The ops plane's frozen exposition and incident dumps ride along
    // when the campaign ran with `--serve`/`--slo`; fold them in.
    if let Some((facts, checks)) = analyze_ops(dir, stem)? {
        report.checks.extend(checks);
        report.ops = Some(facts);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Live ops plane ingestion (ops.prom + incident flight-recorder dumps)
// ---------------------------------------------------------------------------

/// Human-readable label for a `gstm_slo_state` code.
fn slo_state_label(code: u64) -> &'static str {
    match code {
        0 => "ok",
        1 => "warn",
        _ => "incident",
    }
}

/// Facts recovered from the harness's frozen `/metrics` exposition
/// (`ops.prom`) and the incident flight-recorder dumps next to it.
#[derive(Clone, Debug)]
pub struct OpsFacts {
    /// Windows closed over the campaign (`gstm_windows_closed_total`).
    pub windows_closed: u64,
    /// Roll ticks, including idle ones that closed nothing.
    pub rolls: u64,
    /// Windows still in the ring at freeze time.
    pub retained_windows: usize,
    /// Windows folded into the evicted rollup.
    pub evicted_windows: u64,
    /// Final SLO state code (0 ok / 1 warn / 2 incident).
    pub slo_state: u64,
    /// Windows the watchdog judged (quiet windows are skipped).
    pub slo_windows: u64,
    /// Judged windows that breached at least one SLO rule.
    pub breached_windows: u64,
    /// Incidents declared (`gstm_slo_incidents_total`).
    pub incidents_total: u64,
    /// One entry per `incident<seq>.json` found, in seq order.
    pub incidents: Vec<IncidentFacts>,
}

/// Scalar facts lifted from one `incident<seq>.json` dump.
#[derive(Clone, Debug)]
pub struct IncidentFacts {
    /// Incident ordinal (0-based).
    pub seq: u64,
    /// Caller-supplied stamp (wall clock, or a fixed replay token).
    pub stamp: String,
    /// Window index that tripped the incident.
    pub tripped_window: u64,
    /// SLO state entered ("incident").
    pub state: String,
    /// Windows carried in the dump.
    pub windows: usize,
    /// SLO transitions in the dump's timeline.
    pub transitions: usize,
    /// Trace events drained into the dump.
    pub trace_events: usize,
}

/// Parse one incident flight-recorder dump. Rejects malformed JSON,
/// schema mismatches and non-incident documents with a clear error;
/// `name` prefixes every message.
pub fn parse_incident_json(name: &str, text: &str) -> Result<IncidentFacts, String> {
    let doc = json::parse(text).map_err(|e| format!("{name}: invalid JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{name}: no \"schema\" field — not a gstm incident dump"))?;
    if schema != gstm_core::telemetry::SCHEMA_VERSION as u64 {
        return Err(format!(
            "{name}: incident dump schema {schema} but this build reads schema {}; \
             re-export with a matching gstm version",
            gstm_core::telemetry::SCHEMA_VERSION
        ));
    }
    let str_field = |key: &str| doc.get(key).and_then(Value::as_str);
    match str_field("kind") {
        Some("gstm_incident") => {}
        other => {
            return Err(format!(
                "{name}: kind {:?} is not \"gstm_incident\"",
                other.unwrap_or("missing")
            ))
        }
    }
    let missing = |key: &str| format!("{name}: missing \"{key}\"");
    let u64_field = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| missing(key))
    };
    let string = |key: &str| {
        str_field(key)
            .map(str::to_string)
            .ok_or_else(|| missing(key))
    };
    let len = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .map_or(0, <[Value]>::len)
    };
    Ok(IncidentFacts {
        seq: u64_field("seq")?,
        stamp: string("stamp")?,
        tripped_window: u64_field("tripped_window")?,
        state: string("state")?,
        windows: len("windows"),
        transitions: len("timeline"),
        trace_events: len("trace"),
    })
}

/// The exact window-partition cross-check over a frozen ops exposition:
/// for commits, aborts, and gate outcomes, the retained per-window
/// deltas plus the evicted rollup must equal the cumulative counter
/// *exactly*, and retained + evicted window counts must equal
/// `gstm_windows_closed_total`.
fn ops_partition_check(prom: &PromSnapshot) -> Check {
    let retained = prom.family("gstm_window_commits").count() as u64;
    let evicted_n = prom.get("gstm_window_evicted_windows_total", &[]).unwrap_or(0.0) as u64;
    let closed = prom.get("gstm_windows_closed_total", &[]).unwrap_or(0.0) as u64;
    let ev = |counter: &str| {
        prom.get("gstm_window_evicted_total", &[("counter", counter)]).unwrap_or(0.0) as u64
    };
    let terms: [(&str, u64, u64); 4] = [
        (
            "commits",
            prom.sum("gstm_window_commits", &[]) as u64 + ev("commits"),
            prom.get("gstm_commits_total", &[]).unwrap_or(0.0) as u64,
        ),
        (
            "aborts",
            prom.sum("gstm_window_aborts", &[]) as u64 + ev("aborts"),
            prom.sum("gstm_aborts_total", &[]) as u64,
        ),
        (
            "gate",
            prom.sum("gstm_window_gate", &[]) as u64
                + ev("gate_passed")
                + ev("gate_waited")
                + ev("gate_released"),
            prom.sum("gstm_gate_outcomes_total", &[]) as u64,
        ),
        ("windows", retained + evicted_n, closed),
    ];
    let bad: Vec<String> = terms
        .iter()
        .filter(|(_, lhs, rhs)| lhs != rhs)
        .map(|(what, lhs, rhs)| format!("{what}: Σ windows + evicted = {lhs} ≠ cumulative {rhs}"))
        .collect();
    Check::from_findings(
        "window_partition",
        bad,
        format!(
            "{retained} retained + {evicted_n} evicted window(s) partition the cumulative \
             commit/abort/gate counters exactly"
        ),
    )
}

/// Load the ops-plane artifacts from `dir`, when present: the frozen
/// exposition (`<stem>_ops.prom`, falling back to `ops.prom`) and every
/// `incident<seq>.json` next to it. Returns `Ok(None)` when the
/// campaign ran without the live ops plane; schema mismatches are hard
/// errors.
fn analyze_ops(dir: &Path, stem: &str) -> Result<Option<(OpsFacts, Vec<Check>)>, String> {
    let path = [format!("{stem}_ops.prom"), "ops.prom".into()]
        .into_iter()
        .map(|n| dir.join(n))
        .find(|p| p.exists());
    let Some(path) = path else { return Ok(None) };
    let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
    let prom = PromSnapshot::parse(&text).map_err(|e| format!("{name}: {e}"))?;
    // The exposition stamps its schema as a label on `gstm_build_info`;
    // a mismatch means the reader and writer disagree on family
    // semantics, so refuse rather than mis-ingest.
    if let Some(s) = prom.family("gstm_build_info").next() {
        let schema = s
            .labels
            .iter()
            .find(|(k, _)| k == "schema")
            .and_then(|(_, v)| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{name}: gstm_build_info has no numeric schema label"))?;
        if schema != gstm_core::telemetry::SCHEMA_VERSION as u64 {
            return Err(format!(
                "{name}: exposition schema {schema} but this build reads schema {}; \
                 re-export with a matching gstm version",
                gstm_core::telemetry::SCHEMA_VERSION
            ));
        }
    }
    let mut incidents = Vec::new();
    loop {
        let n = incidents.len();
        let inc_path = dir.join(format!("incident{n}.json"));
        if !inc_path.exists() {
            break;
        }
        let inc_name = format!("incident{n}.json");
        let body = std::fs::read_to_string(&inc_path).map_err(|e| format!("{inc_name}: {e}"))?;
        incidents.push(parse_incident_json(&inc_name, &body)?);
    }
    let facts = OpsFacts {
        windows_closed: prom.get("gstm_windows_closed_total", &[]).unwrap_or(0.0) as u64,
        rolls: prom.get("gstm_window_rolls_total", &[]).unwrap_or(0.0) as u64,
        retained_windows: prom.family("gstm_window_commits").count(),
        evicted_windows: prom.get("gstm_window_evicted_windows_total", &[]).unwrap_or(0.0)
            as u64,
        slo_state: prom.get("gstm_slo_state", &[]).unwrap_or(0.0) as u64,
        slo_windows: prom.get("gstm_slo_windows_total", &[]).unwrap_or(0.0) as u64,
        breached_windows: prom.get("gstm_slo_breached_windows_total", &[]).unwrap_or(0.0)
            as u64,
        incidents_total: prom.get("gstm_slo_incidents_total", &[]).unwrap_or(0.0) as u64,
        incidents,
    };
    let mut checks = vec![ops_partition_check(&prom)];
    if facts.incidents_total > 0 || !facts.incidents.is_empty() {
        checks.push(Check::new(
            "incident_artifacts",
            facts.incidents.len() as u64 == facts.incidents_total,
            format!(
                "{} flight-recorder dump(s) for {} declared incident(s)",
                facts.incidents.len(),
                facts.incidents_total
            ),
        ));
    }
    Ok(Some((facts, checks)))
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn jf(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn jf_vec(xs: &[f64]) -> String {
    format!("[{}]", xs.iter().map(|&x| jf(x)).collect::<Vec<_>>().join(","))
}

fn ju_vec(xs: &[u64]) -> String {
    format!("[{}]", xs.iter().map(u64::to_string).collect::<Vec<_>>().join(","))
}

/// Serialize the report as the machine-readable `verdict.json`.
pub fn render_verdict_json(r: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", gstm_core::telemetry::SCHEMA_VERSION);
    let _ = writeln!(out, "  \"stem\": \"{}\",", escape(&r.stem));
    let _ = writeln!(out, "  \"runs\": {},", r.runs);
    let _ = writeln!(out, "  \"threads\": {},", r.threads);
    let _ = writeln!(out, "  \"pass\": {},", r.pass());
    let checks = r.checks.iter().map(|c| {
        let (name, detail) = (escape(&c.name), escape(&c.detail));
        format!(
            "{{\"name\": \"{name}\", \"pass\": {}, \"detail\": \"{detail}\"}}",
            c.pass
        )
    });
    let _ = writeln!(out, "  \"checks\": [\n{}  ],", array_lines("    ", checks));
    let _ = writeln!(out, "  \"metrics\": {{");
    let _ = writeln!(out, "    \"std_dev_secs\": {},", jf_vec(&r.std_dev_secs));
    let _ = writeln!(out, "    \"mean_secs\": {},", jf_vec(&r.mean_secs));
    let _ = writeln!(out, "    \"tail_metric\": {},", ju_vec(&r.tail_metric));
    let _ = writeln!(out, "    \"non_determinism\": {},", r.non_determinism);
    let _ = writeln!(out, "    \"commits\": {},", r.commits);
    let _ = writeln!(out, "    \"aborts\": {},", r.aborts);
    let _ = writeln!(out, "    \"commit_p50_ns\": {},", ju_vec(&r.commit_p50_ns));
    let _ = writeln!(out, "    \"commit_p99_ns\": {},", ju_vec(&r.commit_p99_ns));
    let _ = writeln!(out, "    \"degradation\": {{");
    let d = &r.degradation;
    let _ = writeln!(out, "      \"degraded\": {},", d.any());
    let _ = writeln!(out, "      \"breaker_trips\": {},", d.breaker_trips);
    let _ = writeln!(out, "      \"breaker_recloses\": {},", d.breaker_recloses);
    let _ = writeln!(out, "      \"breaker_probes\": {},", d.breaker_probes);
    let _ = writeln!(out, "      \"model_rejections\": {},", d.model_rejections);
    let _ = writeln!(out, "      \"guardian_restarts\": {},", d.guardian_restarts);
    let _ = writeln!(
        out,
        "      \"final_breaker_state\": \"{}\",",
        breaker_state_label(d.final_breaker_state)
    );
    let reps = d.failed_reps.iter().map(|f| {
        let (phase, cause) = (escape(&f.phase), escape(&f.cause));
        format!(
            "{{\"phase\": \"{phase}\", \"rep\": {}, \"cause\": \"{cause}\"}}",
            f.rep
        )
    });
    let _ = writeln!(
        out,
        "      \"failed_reps\": [\n{}      ]",
        array_lines("        ", reps)
    );
    let _ = writeln!(out, "    }},");
    let _ = write!(out, "    \"model_swaps\": {}", r.model_swaps);
    if r.model_swaps > 0 {
        let _ = writeln!(out, ",");
        let epochs = r.epochs.iter().map(|(run, s)| {
            format!(
                "{{\"run\": {run}, \"epoch\": {}, \"swap_verdict\": {}, \
                 \"transitions\": {}, \"commits\": {}}}",
                s.epoch,
                s.swap_verdict.map(|v| v.to_string()).unwrap_or_else(|| "null".into()),
                s.transitions,
                s.commits
            )
        });
        let _ = write!(
            out,
            "    \"epochs\": [\n{}    ]",
            array_lines("      ", epochs)
        );
    }
    if let Some(c) = &r.contention {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "    \"contention\": {{");
        let _ = writeln!(out, "      \"runs_with\": {},", c.runs_with);
        let _ = writeln!(out, "      \"attributed\": {},", c.attributed);
        let _ = writeln!(out, "      \"unattributed\": {},", c.unattributed);
        let _ = writeln!(out, "      \"attribution_pct\": {},", jf(c.attribution_pct()));
        let _ = writeln!(out, "      \"sketch_replacements\": {},", c.replacements);
        let _ = writeln!(out, "      \"gini\": {},", jf(c.gini));
        let _ = writeln!(out, "      \"hottest_pct\": {},", jf(c.hottest_pct));
        let top = c
            .top
            .iter()
            .map(|(a, n)| format!("{{\"addr\": \"{a:#x}\", \"aborts\": {n}}}"));
        let _ = writeln!(
            out,
            "      \"top\": [\n{}      ],",
            array_lines("        ", top)
        );
        let pairs = c
            .pairs
            .iter()
            .map(|(v, o, n)| format!("{{\"victim\": {v}, \"owner\": {o}, \"aborts\": {n}}}"));
        let _ = writeln!(
            out,
            "      \"pairs\": [\n{}      ]",
            array_lines("        ", pairs)
        );
        let _ = write!(out, "    }}");
    }
    if let Some(o) = &r.ops {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "    \"ops\": {{");
        let _ = writeln!(out, "      \"windows_closed\": {},", o.windows_closed);
        let _ = writeln!(out, "      \"rolls\": {},", o.rolls);
        let _ = writeln!(out, "      \"retained_windows\": {},", o.retained_windows);
        let _ = writeln!(out, "      \"evicted_windows\": {},", o.evicted_windows);
        let _ = writeln!(out, "      \"slo_state\": \"{}\",", slo_state_label(o.slo_state));
        let _ = writeln!(out, "      \"slo_windows\": {},", o.slo_windows);
        let _ = writeln!(out, "      \"breached_windows\": {},", o.breached_windows);
        let _ = writeln!(out, "      \"trace_dropped\": {},", r.trace_dropped);
        let incidents = o.incidents.iter().map(|inc| {
            format!(
                "{{\"seq\": {}, \"stamp\": \"{}\", \"tripped_window\": {}, \
                 \"state\": \"{}\", \"windows\": {}, \"transitions\": {}, \
                 \"trace_events\": {}}}",
                inc.seq,
                escape(&inc.stamp),
                inc.tripped_window,
                escape(&inc.state),
                inc.windows,
                inc.transitions,
                inc.trace_events
            )
        });
        let rows = array_lines("        ", incidents);
        let _ = writeln!(out, "      \"incidents\": [\n{rows}      ]");
        let _ = write!(out, "    }}");
    }
    if let Some(d) = &r.drift {
        let _ = writeln!(out, ",");
        let _ = writeln!(out, "    \"model\": {{");
        let _ = writeln!(
            out,
            "      \"staleness\": \"{}\",",
            staleness_label(d.staleness)
        );
        let _ = writeln!(out, "      \"staleness_code\": {},", d.staleness);
        let _ = writeln!(out, "      \"off_model_pct\": {},", jf(d.off_model_pct));
        let _ = writeln!(out, "      \"kl_mean_nats\": {},", jf(d.kl_mean_nats));
        let _ = writeln!(out, "      \"kl_max_nats\": {},", jf(d.kl_max_nats));
        let _ = writeln!(
            out,
            "      \"profiled_metric_pct\": {},",
            jf(d.profiled_metric_pct)
        );
        let _ = writeln!(
            out,
            "      \"observed_metric_pct\": {}",
            d.observed_metric_pct.map(jf).unwrap_or_else(|| "null".into())
        );
        let _ = writeln!(out, "    }}");
    } else {
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Render the human-readable markdown report.
pub fn render_markdown(r: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# gstm-analyze: {}", r.stem);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "**{}** — {} repetition(s), {} thread(s), {} commit(s), {} abort(s); \
         trace events dropped: {}; guardian restarts: {}.",
        if r.pass() { "PASS" } else { "FAIL" },
        r.runs,
        r.threads,
        r.commits,
        r.aborts,
        r.trace_dropped,
        r.degradation.guardian_restarts
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Cross-run metrics");
    let _ = writeln!(out);
    let _ = writeln!(out, "| thread | mean s | std-dev s | abort tail Σj² |");
    let _ = writeln!(out, "|-------:|-------:|----------:|---------------:|");
    for t in 0..r.threads {
        let _ = writeln!(
            out,
            "| {t} | {:.6} | {:.6} | {} |",
            r.mean_secs.get(t).copied().unwrap_or(0.0),
            r.std_dev_secs.get(t).copied().unwrap_or(0.0),
            r.tail_metric.get(t).copied().unwrap_or(0)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Non-determinism (distinct TSS across traced states): **{}**.",
        r.non_determinism
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "## Commit latency per run");
    let _ = writeln!(out);
    let _ = writeln!(out, "| run | p50 ns | p99 ns |");
    let _ = writeln!(out, "|----:|-------:|-------:|");
    for i in 0..r.runs {
        let _ = writeln!(
            out,
            "| {i} | {} | {} |",
            r.commit_p50_ns.get(i).copied().unwrap_or(0),
            r.commit_p99_ns.get(i).copied().unwrap_or(0)
        );
    }
    if r.runs > 1 {
        let spread = |xs: &[u64]| {
            let (lo, hi) = (
                xs.iter().min().copied().unwrap_or(0),
                xs.iter().max().copied().unwrap_or(0),
            );
            format!("{lo}–{hi} ns")
        };
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Cross-run spread: p50 {}, p99 {}.",
            spread(&r.commit_p50_ns),
            spread(&r.commit_p99_ns)
        );
    }
    if r.model_swaps > 0 {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "## Model epochs ({} hot-swap(s) across the campaign)",
            r.model_swaps
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "| run | epoch | installed by | transitions | commits |");
        let _ = writeln!(out, "|----:|------:|--------------|------------:|--------:|");
        for (run, s) in &r.epochs {
            let _ = writeln!(
                out,
                "| {run} | {} | {} | {} | {} |",
                s.epoch,
                s.swap_verdict
                    .map(|v| format!("swap ({})", staleness_label(v as u64)))
                    .unwrap_or_else(|| "initial model".into()),
                s.transitions,
                s.commits
            );
        }
    }
    {
        let d = &r.degradation;
        let _ = writeln!(out);
        let _ = writeln!(out, "## Degradation events");
        let _ = writeln!(out);
        if !d.any() && d.breaker_recloses == 0 && d.events.is_empty() {
            let _ = writeln!(out, "None — the campaign ran clean.");
        } else {
            let _ = writeln!(
                out,
                "- breaker: {} trip(s), {} half-open probe(s), {} re-close(s); \
                 final state **{}**",
                d.breaker_trips,
                d.breaker_probes,
                d.breaker_recloses,
                breaker_state_label(d.final_breaker_state)
            );
            let _ = writeln!(out, "- model files rejected at load: {}", d.model_rejections);
            let _ = writeln!(out, "- guardian restarts after panic: {}", d.guardian_restarts);
            let _ = writeln!(out, "- panicked repetitions: {}", d.failed_reps.len());
            if !d.events.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(out, "| run | transition | cause |");
                let _ = writeln!(out, "|----:|------------|-------|");
                for (run, e) in &d.events {
                    let _ = writeln!(
                        out,
                        "| {run} | {} → {} | {} |",
                        breaker_state_label(e.from as u64),
                        breaker_state_label(e.to as u64),
                        gstm_core::breaker::BreakerCause::label_for(e.cause)
                    );
                }
            }
            if !d.failed_reps.is_empty() {
                let _ = writeln!(out);
                let _ = writeln!(out, "| phase | rep | cause |");
                let _ = writeln!(out, "|-------|----:|-------|");
                for f in &d.failed_reps {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} |",
                        f.phase,
                        f.rep,
                        f.cause.replace('|', "\\|")
                    );
                }
            }
        }
    }
    if let Some(o) = &r.ops {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Live ops plane");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} window(s) closed over {} roll tick(s) ({} retained, {} evicted); \
             SLO finished **{}** after judging {} window(s), {} breached, \
             {} incident(s).",
            o.windows_closed,
            o.rolls,
            o.retained_windows,
            o.evicted_windows,
            slo_state_label(o.slo_state),
            o.slo_windows,
            o.breached_windows,
            o.incidents_total
        );
        if !o.incidents.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Incident timeline");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| seq | stamp | tripped window | state | windows | transitions | trace events |"
            );
            let _ = writeln!(
                out,
                "|----:|-------|---------------:|-------|--------:|------------:|-------------:|"
            );
            for i in &o.incidents {
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} | {} |",
                    i.seq,
                    i.stamp.replace('|', "\\|"),
                    i.tripped_window,
                    i.state,
                    i.windows,
                    i.transitions,
                    i.trace_events
                );
            }
        }
    }
    if let Some(c) = &r.contention {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Contention report");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} run(s) with conflict provenance: **{}** attributed abort(s), \
             {} unattributed ({:.1}% attribution rate), {} sketch eviction(s).",
            c.runs_with,
            c.attributed,
            c.unattributed,
            c.attribution_pct(),
            c.replacements
        );
        if !c.top.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "| rank | address | aborts | share |");
            let _ = writeln!(out, "|-----:|---------|-------:|------:|");
            for (rank, &(addr, count)) in c.top.iter().enumerate() {
                let share = if c.attributed > 0 {
                    100.0 * count as f64 / c.attributed as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "| {rank} | `{addr:#x}` | {count} | {share:.1}% |");
            }
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "Hot-set concentration (Gini over the top-{}): **{:.3}**; \
                 hottest address carries {:.1}% of attributed aborts.",
                c.top.len(),
                c.gini,
                c.hottest_pct
            );
        }
        if !c.pairs.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "Top thread conflicts (victim ← owner):");
            let _ = writeln!(out);
            for &(v, o, count) in c.pairs.iter().take(8) {
                let _ = writeln!(out, "- thread {v} aborted by thread {o}: {count}");
            }
        }
    }
    if let Some(d) = &r.drift {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Model drift");
        let _ = writeln!(out);
        let _ = writeln!(out, "- verdict: **{}**", staleness_label(d.staleness));
        let _ = writeln!(out, "- off-model transitions: {:.2}%", d.off_model_pct);
        let _ = writeln!(
            out,
            "- KL divergence (obs ‖ prof): mean {:.4} nats, max {:.4} nats",
            d.kl_mean_nats, d.kl_max_nats
        );
        let _ = write!(
            out,
            "- guidance metric: profiled {:.1}%",
            d.profiled_metric_pct
        );
        if let Some(obs) = d.observed_metric_pct {
            let _ = writeln!(out, ", observed {obs:.1}%");
        } else {
            let _ = writeln!(out, ", observed n/a");
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "## Checks");
    let _ = writeln!(out);
    write_check_table(&mut out, &r.checks);
    out
}

/// The markdown `| check | result | detail |` table both reports end with.
fn write_check_table(out: &mut String, checks: &[Check]) {
    let _ = writeln!(out, "| check | result | detail |");
    let _ = writeln!(out, "|-------|--------|--------|");
    for c in checks {
        let result = if c.pass { "pass" } else { "FAIL" };
        let _ = writeln!(
            out,
            "| {} | {result} | {} |",
            c.name,
            c.detail.replace('|', "\\|")
        );
    }
}

// ---------------------------------------------------------------------------
// Server tick analysis (`gstm-server`'s ticks.jsonl export)
// ---------------------------------------------------------------------------

/// One row of the server's `ticks.jsonl` export.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerTickRow {
    /// Tick ordinal.
    pub tick: u64,
    /// Engine frame time, nanoseconds (synthetic cost in deterministic
    /// chaos runs, where it doubles as the replayable clock).
    pub frame_ns: u64,
    /// Measured tick cost in budget units.
    pub cost: u64,
    /// Ladder rung in force during the tick.
    pub ladder: u8,
    /// Actions offered this tick.
    pub offered: u64,
    /// Actions executed.
    pub executed: u64,
    /// Actions shed by admission control.
    pub shed: u64,
    /// Live sessions at tick end.
    pub sessions: u64,
}

/// Parse a server `ticks.jsonl` body. Returns the rows plus the count of
/// evicted early ticks (the optional leading `{"truncated_ticks":N}`
/// marker). Every non-blank line must be a complete JSON object.
pub fn parse_ticks_jsonl(text: &str) -> Result<(Vec<ServerTickRow>, u64), String> {
    let mut rows = Vec::new();
    let mut truncated = 0;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = json::parse(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let num = |key: &str| obj.get(key).and_then(Value::as_u64);
        if let Some(n) = num("truncated_ticks") {
            truncated = n;
            continue;
        }
        rows.push(ServerTickRow {
            tick: num("tick").ok_or(format!("line {}: no tick field", i + 1))?,
            frame_ns: num("frame_ns").unwrap_or(0),
            cost: num("cost").unwrap_or(0),
            ladder: num("ladder").unwrap_or(0) as u8,
            offered: num("offered").unwrap_or(0),
            executed: num("executed").unwrap_or(0),
            shed: num("shed").unwrap_or(0),
            sessions: num("sessions").unwrap_or(0),
        });
    }
    Ok((rows, truncated))
}

/// Facts derived from a server run's tick log.
#[derive(Clone, Debug, Default)]
pub struct ServerFacts {
    /// Ticks analyzed.
    ticks: usize,
    /// Early ticks evicted from the server's record ring.
    truncated: u64,
    /// Mean frame time, nanoseconds.
    frame_mean_ns: f64,
    /// Frame-time coefficient of variation, percent.
    frame_cv_pct: f64,
    /// Frame-time median, nanoseconds.
    frame_p50_ns: u64,
    /// Frame-time 99th percentile, nanoseconds.
    frame_p99_ns: u64,
    /// Σ actions offered.
    offered: u64,
    /// Σ actions executed.
    executed: u64,
    /// Σ actions shed.
    shed: u64,
    /// Highest ladder rung reached.
    max_rung: u8,
    /// Ticks spent at each rung (index = rung code).
    rung_ticks: [u64; 4],
    /// Rung changes between consecutive ticks.
    ladder_moves: u64,
}

/// Run the server checks over a parsed tick log: per-tick shed
/// accounting, ladder-trajectory sanity, and the optional
/// frame-variance and frame-p99 gates.
pub fn analyze_server_ticks(
    rows: &[ServerTickRow],
    truncated: u64,
    th: &Thresholds,
) -> (ServerFacts, Vec<Check>) {
    let mut checks = Vec::new();

    let mut facts = ServerFacts { ticks: rows.len(), truncated, ..ServerFacts::default() };
    let mut frames: Vec<u64> = rows.iter().map(|r| r.frame_ns).collect();
    let n = frames.len() as f64;
    if !frames.is_empty() {
        facts.frame_mean_ns = frames.iter().map(|&f| f as f64).sum::<f64>() / n;
        let var = frames
            .iter()
            .map(|&f| {
                let d = f as f64 - facts.frame_mean_ns;
                d * d
            })
            .sum::<f64>()
            / n;
        if facts.frame_mean_ns > 0.0 {
            facts.frame_cv_pct = 100.0 * var.sqrt() / facts.frame_mean_ns;
        }
        frames.sort_unstable();
        facts.frame_p50_ns = quantile(&frames, 0.50);
        facts.frame_p99_ns = quantile(&frames, 0.99);
    }

    let mut shed_bad = 0usize;
    let mut ladder_bad = 0usize;
    let mut prev_rung: Option<u8> = None;
    for r in rows {
        facts.offered += r.offered;
        facts.executed += r.executed;
        facts.shed += r.shed;
        if r.executed + r.shed != r.offered {
            shed_bad += 1;
        }
        if r.ladder > 3 {
            ladder_bad += 1;
        } else {
            facts.rung_ticks[r.ladder as usize] += 1;
            facts.max_rung = facts.max_rung.max(r.ladder);
        }
        if let Some(p) = prev_rung {
            if p != r.ladder {
                facts.ladder_moves += 1;
                if p.abs_diff(r.ladder) > 1 {
                    ladder_bad += 1;
                }
            }
        }
        prev_rung = Some(r.ladder);
    }

    checks.push(Check::new(
        "server_ticks",
        !rows.is_empty(),
        format!("{} tick(s), {} evicted early", rows.len(), truncated),
    ));
    checks.push(Check::new(
        "server_shed_accounting",
        shed_bad == 0,
        format!(
            "executed {} + shed {} vs offered {}: {} tick(s) off",
            facts.executed, facts.shed, facts.offered, shed_bad
        ),
    ));
    checks.push(Check::new(
        "server_ladder_sanity",
        ladder_bad == 0,
        format!(
            "max rung {}, {} move(s), {} invalid step(s)/code(s)",
            facts.max_rung, facts.ladder_moves, ladder_bad
        ),
    ));
    if let Some(max_cv) = th.max_frame_cv_pct {
        checks.push(Check::new(
            "server_frame_cv",
            facts.frame_cv_pct <= max_cv,
            format!("frame-time CV {:.1}% vs max {max_cv}%", facts.frame_cv_pct),
        ));
    }
    if let Some(max_ms) = th.max_frame_p99_ms {
        let p99_ms = facts.frame_p99_ns as f64 / 1e6;
        checks.push(Check::new(
            "server_frame_p99",
            p99_ms <= max_ms,
            format!("frame p99 {p99_ms:.3}ms vs max {max_ms}ms"),
        ));
    }
    (facts, checks)
}

/// Markdown report for a server tick analysis.
pub fn render_server_markdown(facts: &ServerFacts, checks: &[Check]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# gstm-analyze: server ticks");
    let _ = writeln!(out);
    let _ = writeln!(out, "- ticks: {} ({} evicted early)", facts.ticks, facts.truncated);
    let _ = writeln!(
        out,
        "- frame time: mean {:.0}ns, p50 {}ns, p99 {}ns, CV {:.1}%",
        facts.frame_mean_ns, facts.frame_p50_ns, facts.frame_p99_ns, facts.frame_cv_pct
    );
    let _ = writeln!(
        out,
        "- actions: {} offered, {} executed, {} shed",
        facts.offered, facts.executed, facts.shed
    );
    let _ = writeln!(
        out,
        "- ladder: max rung {}, {} move(s); ticks per rung {:?}",
        facts.max_rung, facts.ladder_moves, facts.rung_ticks
    );
    let _ = writeln!(out);
    write_check_table(&mut out, checks);
    out
}

/// Verdict JSON for a server tick analysis.
pub fn render_server_verdict_json(facts: &ServerFacts, checks: &[Check]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let pass = checks.iter().all(|c| c.pass);
    let _ = write!(
        out,
        "{{\"pass\":{pass},\"ticks\":{},\"truncated\":{},\"frame_cv_pct\":{:.3},\
         \"frame_p99_ns\":{},\"offered\":{},\"executed\":{},\"shed\":{},\"max_rung\":{},\
         \"ladder_moves\":{},\"checks\":[",
        facts.ticks,
        facts.truncated,
        facts.frame_cv_pct,
        facts.frame_p99_ns,
        facts.offered,
        facts.executed,
        facts.shed,
        facts.max_rung,
        facts.ladder_moves,
    );
    for (i, c) in checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"pass\":{},\"detail\":\"{}\"}}",
            escape(&c.name),
            c.pass,
            escape(&c.detail)
        );
    }
    let _ = write!(out, "]}}");
    out
}

#[cfg(test)]
mod tests;
