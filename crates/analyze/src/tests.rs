use super::*;
use gstm_core::config::GuidanceConfig;
use gstm_core::events::AbortCause;
use gstm_core::guidance::{GuidanceHook, GuidedHook};
use gstm_core::ids::{Pair, ThreadId, TxnId};
use gstm_core::telemetry::{export_jsonl, Telemetry};
use gstm_core::tsa::{GuidedModel, Tsa};
use gstm_core::tss::{hash_parts, StateKey};
use std::sync::Arc;

/// A campaign without a failures CSV.
fn analyze_campaign(
    stem: &str,
    runs: &[RunAnalysis],
    csv: &[CsvRunRow],
    summary: &HarnessSummary,
    th: &Thresholds,
) -> CampaignReport {
    analyze_campaign_with_failures(stem, runs, csv, summary, &[], th)
}

fn pair(txn: u16, thread: u16) -> Pair {
    Pair::new(TxnId(txn), ThreadId(thread))
}

fn ev(seq: u64, p: Pair, kind: TraceKind) -> TraceEvent {
    TraceEvent { seq, ts_ns: seq * 10, pair: p, kind }
}

fn commit(ns: u64) -> TraceKind {
    TraceKind::Commit { commit_ns: ns, writes: 1 }
}

fn abort() -> TraceKind {
    TraceKind::Abort { cause: AbortCause::ReadVersion, addr: 0 }
}

/// The `State` record a guided hook traces for a commit by `commit` that
/// closed a window holding the (sorted) `aborts`.
fn state(aborts: &[Pair], commit: Pair) -> TraceKind {
    TraceKind::State { key: hash_parts(aborts, commit) }
}

/// The scripted schedule used by the campaign fixtures: two threads,
/// four commits, one abort on thread 1 before its first commit. Each
/// commit's state precedes it, as the hook traces it first.
fn scripted_run() -> Vec<TraceEvent> {
    let (a0, b1) = (pair(0, 0), pair(1, 1));
    vec![
        ev(1, a0, TraceKind::Begin),
        ev(2, a0, state(&[], a0)),
        ev(3, a0, commit(100)),
        ev(4, b1, abort()),
        ev(5, b1, state(&[b1], b1)),
        ev(6, b1, commit(200)),
        ev(7, a0, state(&[], a0)),
        ev(8, a0, commit(150)),
        ev(9, b1, state(&[], b1)),
        ev(10, b1, commit(250)),
    ]
}

/// The same commit/abort schedule with a hot-swap to epoch 1 (verdict
/// drifting) between the middle commits, plus the transition stream the
/// adaptive hook would have traced.
fn adaptive_run() -> Vec<TraceEvent> {
    let (a0, b1, mgr) = (pair(0, 0), pair(1, 1), pair(0, 0));
    let trans = |from, to| TraceKind::StateTransition { from, to };
    vec![
        ev(1, a0, state(&[], a0)),
        ev(2, a0, trans(u32::MAX, 0)),
        ev(3, a0, commit(100)),
        ev(4, b1, abort()),
        ev(5, b1, state(&[b1], b1)),
        ev(6, b1, trans(0, 1)),
        ev(7, b1, commit(200)),
        ev(8, mgr, TraceKind::ModelSwap { epoch: 1, verdict: 2 }),
        ev(9, a0, state(&[], a0)),
        ev(10, a0, trans(u32::MAX, 2)),
        ev(11, a0, commit(150)),
        ev(12, b1, state(&[], b1)),
        ev(13, b1, commit(250)),
    ]
}

// ---------------------------------------------------------------------------
// Prom / CSV parsing
// ---------------------------------------------------------------------------

#[test]
fn prom_parse_labels_and_sums() {
    let p = PromSnapshot::parse(
        "# TYPE gstm_commits_total counter\n\
         gstm_commits_total 42\n\
         gstm_aborts_total{cause=\"read_version\"} 3\n\
         gstm_aborts_total{cause=\"validation\"} 4\n\
         gstm_thread_gate_outcomes_total{thread=\"0\",outcome=\"passed\"} 7\n",
    )
    .unwrap();
    assert_eq!(p.get("gstm_commits_total", &[]), Some(42.0));
    assert_eq!(p.get("gstm_aborts_total", &[("cause", "validation")]), Some(4.0));
    assert_eq!(p.sum("gstm_aborts_total", &[]), 7.0);
    assert_eq!(
        p.get(
            "gstm_thread_gate_outcomes_total",
            &[("outcome", "passed"), ("thread", "0")]
        ),
        Some(7.0)
    );
    assert_eq!(p.get("gstm_missing", &[]), None);
    assert!(PromSnapshot::parse("garbage-without-value").is_err());
}

#[test]
fn runs_csv_parses_and_rejects_malformed() {
    let rows = parse_runs_csv("run,thread,secs,commits,aborts\n0,0,1.25,10,2\n0,1,1.5,11,0\n")
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[1], CsvRunRow { run: 0, thread: 1, secs: 1.5, commits: 11, aborts: 0 });
    assert!(parse_runs_csv("run,thread,secs,commits,aborts\n0,0,oops,1,1\n").is_err());
    assert!(parse_runs_csv("run,thread,secs,commits,aborts\n").is_err());
}

#[test]
fn summary_csv_parses_all_metrics() {
    let s = parse_summary_csv(
        "metric,thread,value\n\
         std_dev_secs,0,0.005\n\
         std_dev_secs,1,0.007\n\
         tail_metric,0,12\n\
         tail_metric,1,3\n\
         non_determinism,,5\n\
         commits,,100\n\
         aborts,,9\n",
    )
    .unwrap();
    assert_eq!(s.std_dev_secs, vec![0.005, 0.007]);
    assert_eq!(s.tail_metric, vec![12, 3]);
    assert_eq!((s.non_determinism, s.commits, s.aborts), (5, 100, 9));
}

// ---------------------------------------------------------------------------
// Reconstruction
// ---------------------------------------------------------------------------

#[test]
fn per_thread_hists_mirror_retry_accounting() {
    let h = per_thread_hists(&scripted_run(), 2);
    assert_eq!(h[0].total_commits(), 2);
    assert_eq!(h[0].total_aborts(), 0);
    assert_eq!(h[1].total_commits(), 2);
    assert_eq!(h[1].total_aborts(), 1);
    // Thread 1's abort belongs to its first commit (1 retry), not its
    // second.
    let buckets: Vec<(u32, u64)> = {
        let mut b: Vec<_> = h[1].iter().collect();
        b.sort();
        b
    };
    assert_eq!(buckets, vec![(0, 1), (1, 1)]);
}

/// JSONL round trip of a guided hook's own states: the keys the analyzer
/// reads back are the recorded Tseq's hashes, in order, and count the
/// same distinct states as the Tseq itself.
#[test]
fn jsonl_roundtrip_preserves_traced_states() {
    let (a0, b1, c0) = (pair(0, 0), pair(1, 1), pair(2, 0));
    let cfg = GuidanceConfig::default();
    let tsa = Tsa::from_runs(&[vec![StateKey::solo(a0), StateKey::solo(b1)]]);
    let model = Arc::new(GuidedModel::build(tsa, &cfg));
    let tel = Arc::new(Telemetry::new());
    let hook = GuidedHook::with_robustness(model, cfg, Some(tel.clone()), None, None, None);
    // Interleaved aborts, a multi-pair window, a repeated state, and a
    // trailing abort whose window never closes.
    let cause = AbortCause::ReadVersion;
    hook.on_abort(a0, cause);
    hook.on_commit(b1);
    hook.on_commit(a0);
    hook.on_abort(c0, cause);
    hook.on_abort(b1, cause);
    hook.on_commit(b1);
    hook.on_commit(c0);
    hook.on_commit(b1);
    hook.on_commit(b1);
    hook.on_abort(a0, cause);
    let tseq = hook.take_run();
    assert_eq!(tseq.len(), 6, "one state per commit");

    let jsonl = export_jsonl(&tel.trace_events());
    assert_eq!(gstm_core::telemetry::parse_jsonl(&jsonl).unwrap(), tel.trace_events());
    let r = RunAnalysis::from_artifacts(0, &jsonl, &fixture_prom(0), 3).unwrap();
    let recorded: Vec<u64> = tseq.iter().map(StateKey::hash64).collect();
    assert_eq!(r.states, recorded, "states must survive the JSONL round trip");
    let distinct = r.states.iter().collect::<HashSet<_>>().len();
    assert_eq!(distinct, metrics::non_determinism(&[tseq]));
    assert_eq!(distinct, 5);
}

#[test]
fn epoch_segments_split_at_model_swaps() {
    let segs = epoch_segments(&adaptive_run());
    assert_eq!(
        segs,
        vec![
            EpochSegment { epoch: 0, swap_verdict: None, transitions: 2, commits: 2 },
            EpochSegment { epoch: 1, swap_verdict: Some(2), transitions: 1, commits: 2 },
        ]
    );
    // A swap-free trace is one epoch-0 segment.
    let segs = epoch_segments(&scripted_run());
    assert_eq!(segs.len(), 1);
    assert_eq!((segs[0].epoch, segs[0].commits), (0, 4));
}

// ---------------------------------------------------------------------------
// Campaign fixtures
// ---------------------------------------------------------------------------

fn fixture_prom(dropped: u64) -> String {
    "gstm_commits_total 4\n\
     gstm_aborts_total{cause=\"read_version\"} 1\n\
     gstm_gate_outcomes_total{outcome=\"passed\"} 5\n\
     gstm_gate_outcomes_total{outcome=\"waited\"} 0\n\
     gstm_gate_outcomes_total{outcome=\"released\"} 0\n\
     gstm_thread_commits_total{thread=\"0\"} 2\n\
     gstm_thread_commits_total{thread=\"1\"} 2\n\
     gstm_thread_aborts_total{thread=\"0\"} 0\n\
     gstm_thread_aborts_total{thread=\"1\"} 1\n\
     gstm_thread_gate_outcomes_total{thread=\"0\",outcome=\"passed\"} 2\n\
     gstm_thread_gate_outcomes_total{thread=\"1\",outcome=\"passed\"} 3\n\
     gstm_model_staleness 1\n\
     gstm_model_off_model_pct 5\n\
     gstm_model_kl_divergence_nats{stat=\"mean\"} 0.01\n\
     gstm_model_kl_divergence_nats{stat=\"max\"} 0.02\n\
     gstm_model_guidance_metric_pct{source=\"profiled\"} 30\n\
     gstm_model_guidance_metric_pct{source=\"observed\"} 32\n"
        .to_string()
        + &format!("gstm_trace_dropped_total {dropped}\n")
}

/// Two identical scripted repetitions plus the CSVs the harness would
/// have written for them.
fn fixture_campaign() -> (Vec<RunAnalysis>, Vec<CsvRunRow>, HarnessSummary) {
    let runs: Vec<RunAnalysis> = (0..2)
        .map(|r| {
            RunAnalysis::from_artifacts(
                r,
                &export_jsonl(&scripted_run()),
                &fixture_prom(0),
                2,
            )
            .unwrap()
        })
        .collect();
    let secs = [[1.0, 2.0], [1.1, 2.2]]; // [run][thread]
    let mut csv = Vec::new();
    for (r, times) in secs.iter().enumerate() {
        for (t, &s) in times.iter().enumerate() {
            csv.push(CsvRunRow {
                run: r,
                thread: t,
                secs: s,
                commits: 2,
                aborts: if t == 1 { 1 } else { 0 },
            });
        }
    }
    // Harness-side summary computed with the same primitives the harness
    // uses, so exact checks must hold.
    let mut merged = [AbortHistogram::new(), AbortHistogram::new()];
    for r in &runs {
        for (m, h) in merged.iter_mut().zip(&r.hists) {
            m.merge(h);
        }
    }
    let summary = HarnessSummary {
        std_dev_secs: vec![
            metrics::std_dev(&[1.0, 1.1]),
            metrics::std_dev(&[2.0, 2.2]),
        ],
        tail_metric: merged.iter().map(|m| m.tail_metric()).collect(),
        non_determinism: 3,
        commits: 8,
        aborts: 2,
    };
    (runs, csv, summary)
}

#[test]
fn consistent_campaign_passes_every_check() {
    let (runs, csv, summary) = fixture_campaign();
    let th = Thresholds {
        max_cv_pct: Some(50.0),
        max_non_determinism: Some(10),
        max_abort_ratio_pct: Some(50.0),
        max_off_model_pct: Some(10.0),
        fail_on_stale: true,
        ..Thresholds::default()
    };
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &th);
    let failed: Vec<_> = rep.checks.iter().filter(|c| !c.pass).collect();
    assert!(failed.is_empty(), "failed checks: {failed:?}");
    assert!(rep.pass());
    assert_eq!(rep.threads, 2);
    assert_eq!(rep.commits, 8);
    assert_eq!(rep.aborts, 2);
    assert_eq!(rep.commit_p50_ns, vec![150, 150]);
    assert_eq!(rep.commit_p99_ns, vec![250, 250]);
    let d = rep.drift.as_ref().expect("drift facts present");
    assert_eq!(d.staleness, 1);
    assert_eq!(d.observed_metric_pct, Some(32.0));
}

#[test]
fn divergent_summary_fails_the_matching_check() {
    let (runs, csv, mut summary) = fixture_campaign();
    summary.non_determinism += 1;
    summary.std_dev_secs[0] += 1.0;
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(!rep.pass());
    let failing: Vec<&str> = rep
        .checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(failing, vec!["variance_match", "non_determinism_match"]);
}

#[test]
fn run_missing_a_state_fails_non_determinism_match() {
    let (mut runs, csv, summary) = fixture_campaign();
    // Drop run 0's last State. Run 1 still carries that key, so the
    // distinct count is unchanged: only the per-commit count catches it.
    let mut lossy = scripted_run();
    let last = lossy.iter().rposition(|e| matches!(e.kind, TraceKind::State { .. })).unwrap();
    lossy.remove(last);
    runs[0] = RunAnalysis::from_artifacts(0, &export_jsonl(&lossy), &fixture_prom(0), 2).unwrap();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert_eq!(rep.non_determinism, summary.non_determinism as usize);
    let c = rep.checks.iter().find(|c| c.name == "non_determinism_match").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("run 0: 3 state(s) for 4 commit(s)"), "{}", c.detail);
    let failing: Vec<&str> =
        rep.checks.iter().filter(|c| !c.pass).map(|c| c.name.as_str()).collect();
    assert_eq!(failing, vec!["non_determinism_match"]);
}

#[test]
fn dropped_events_downgrade_trace_checks_to_skipped() {
    let (mut runs, csv, summary) = fixture_campaign();
    runs[0] = RunAnalysis::from_artifacts(
        0,
        &export_jsonl(&scripted_run()),
        &fixture_prom(7),
        2,
    )
    .unwrap();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    for name in ["abort_tail_match", "non_determinism_match"] {
        let c = rep.checks.iter().find(|c| c.name == name).unwrap();
        assert!(c.pass, "{name} should be skipped, not failed");
        assert!(c.detail.starts_with("skipped"), "{name}: {}", c.detail);
    }
}

#[test]
fn stale_model_fails_policy_gate_when_requested() {
    let (mut runs, csv, summary) = fixture_campaign();
    let prom = fixture_prom(0).replace("gstm_model_staleness 1", "gstm_model_staleness 3");
    let last = runs.len() - 1;
    runs[last] = RunAnalysis::from_artifacts(last, &export_jsonl(&scripted_run()), &prom, 2).unwrap();
    let th = Thresholds { fail_on_stale: true, ..Thresholds::default() };
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &th);
    let c = rep.checks.iter().find(|c| c.name == "staleness").unwrap();
    assert!(!c.pass);
    assert!(c.detail.contains("stale"), "{}", c.detail);
}

// ---------------------------------------------------------------------------
// Adaptive campaigns (epoch segmentation) + edge cases
// ---------------------------------------------------------------------------

/// A single adaptive repetition: one hot-swap, counters consistent with
/// the trace. Also the single-repetition fixture — the harness's N−1
/// std-dev guard yields exact zeros.
fn adaptive_campaign() -> (Vec<RunAnalysis>, Vec<CsvRunRow>, HarnessSummary) {
    let prom = fixture_prom(0) + "gstm_model_swaps_total 1\n";
    let runs =
        vec![RunAnalysis::from_artifacts(0, &export_jsonl(&adaptive_run()), &prom, 2).unwrap()];
    let csv = vec![
        CsvRunRow { run: 0, thread: 0, secs: 1.0, commits: 2, aborts: 0 },
        CsvRunRow { run: 0, thread: 1, secs: 2.0, commits: 2, aborts: 1 },
    ];
    let summary = HarnessSummary {
        std_dev_secs: vec![0.0, 0.0],
        tail_metric: runs[0].hists.iter().map(|h| h.tail_metric()).collect(),
        non_determinism: 3,
        commits: 4,
        aborts: 1,
    };
    (runs, csv, summary)
}

#[test]
fn adaptive_single_rep_campaign_segments_epochs_and_passes() {
    let (runs, csv, summary) = adaptive_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let failed: Vec<_> = rep.checks.iter().filter(|c| !c.pass).collect();
    assert!(failed.is_empty(), "failed checks: {failed:?}");
    assert_eq!(rep.model_swaps, 1);
    assert_eq!(
        rep.epochs,
        vec![
            (0, EpochSegment { epoch: 0, swap_verdict: None, transitions: 2, commits: 2 }),
            (0, EpochSegment { epoch: 1, swap_verdict: Some(2), transitions: 1, commits: 2 }),
        ]
    );
    // One repetition: every recomputed std-dev must be a finite zero
    // (N−1 denominator guard), never NaN.
    assert!(rep.std_dev_secs.iter().all(|s| *s == 0.0), "{:?}", rep.std_dev_secs);
    let seg = rep.checks.iter().find(|c| c.name == "epoch_segmentation").unwrap();
    assert!(seg.detail.contains("1 model swap(s)"), "{}", seg.detail);

    let json = render_verdict_json(&rep);
    assert!(json.contains("\"model_swaps\": 1"), "{json}");
    assert!(json.contains("\"swap_verdict\": 2"), "{json}");
    assert!(json.contains("\"swap_verdict\": null"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    let md = render_markdown(&rep);
    assert!(md.contains("## Model epochs"), "{md}");
    assert!(md.contains("swap (drifting)"), "{md}");
    assert!(md.contains("initial model"), "{md}");
}

#[test]
fn swap_counter_trace_mismatch_fails_epoch_segmentation() {
    let (mut runs, csv, summary) = adaptive_campaign();
    // The counter claims two swaps; the trace carries one.
    let prom = fixture_prom(0) + "gstm_model_swaps_total 2\n";
    runs[0] = RunAnalysis::from_artifacts(0, &export_jsonl(&adaptive_run()), &prom, 2).unwrap();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let c = rep.checks.iter().find(|c| c.name == "epoch_segmentation").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("swap event(s) in trace"), "{}", c.detail);
}

#[test]
fn swaps_without_counter_family_fail_but_old_artifacts_pass() {
    // Swap events in the trace demand the counter family...
    let (mut runs, csv, summary) = adaptive_campaign();
    runs[0] =
        RunAnalysis::from_artifacts(0, &export_jsonl(&adaptive_run()), &fixture_prom(0), 2)
            .unwrap();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let c = rep.checks.iter().find(|c| c.name == "epoch_segmentation").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("no gstm_model_swaps_total"), "{}", c.detail);

    // ...but a swap-free artifact predating the family entirely passes
    // (`fixture_prom` carries no gstm_model_swaps_total line).
    let (runs, csv, summary) = fixture_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(rep.pass(), "{:?}", rep.checks);
    assert_eq!(rep.model_swaps, 0);
    let json = render_verdict_json(&rep);
    assert!(json.contains("\"model_swaps\": 0"), "{json}");
    assert!(!json.contains("\"epochs\""), "{json}");
    assert!(!render_markdown(&rep).contains("## Model epochs"));
}

#[test]
fn fully_dropped_trace_reports_skipped_not_pass() {
    let (_, csv, summary) = fixture_campaign();
    // Both repetitions lost their entire trace to a saturated ring:
    // empty JSONL, nonzero dropped counter.
    let runs: Vec<RunAnalysis> = (0..2)
        .map(|r| RunAnalysis::from_artifacts(r, "", &fixture_prom(1000), 2).unwrap())
        .collect();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    for name in ["abort_tail_match", "non_determinism_match", "epoch_segmentation"] {
        let c = rep.checks.iter().find(|c| c.name == name).unwrap();
        assert!(c.pass, "{name} must degrade, not fail");
        assert!(c.detail.starts_with("skipped"), "{name} must say skipped: {}", c.detail);
    }
}

#[test]
fn zero_repetition_campaign_is_an_error_not_a_pass() {
    let dir = std::env::temp_dir().join("gstm_analyze_zero_reps");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // The CSVs exist but not a single telemetry artifact pair.
    std::fs::write(
        dir.join("kmeans_2t_runs.csv"),
        "run,thread,secs,commits,aborts\n0,0,1.0,2,0\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("kmeans_2t_guided_summary.csv"),
        "metric,thread,value\nstd_dev_secs,0,0.0\n",
    )
    .unwrap();
    let err = analyze_dir(&dir, "kmeans_2t", &Thresholds::default()).unwrap_err();
    assert!(err.contains("no kmeans_2t_run<r>_telemetry.prom"), "{err}");
    // An empty runs.csv is a parse error before analysis even starts.
    std::fs::write(dir.join("kmeans_2t_runs.csv"), "run,thread,secs,commits,aborts\n").unwrap();
    let err = analyze_dir(&dir, "kmeans_2t", &Thresholds::default()).unwrap_err();
    assert!(err.contains("no data rows"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Degradation (chaos / breaker campaigns)
// ---------------------------------------------------------------------------

#[test]
fn failures_csv_roundtrip_parses_quoted_causes() {
    // The harness CSV-quotes causes containing commas or quotes
    // (`"` -> `""`); the parser must undo exactly that.
    let rows = parse_failures_csv(
        "phase,rep,cause\n\
         guided,1,\"panicked at 'idx', say \"\"hi\"\"\"\n\
         default,0,plain cause\n",
    )
    .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        rows[0],
        CsvFailure {
            phase: "guided".into(),
            rep: 1,
            cause: "panicked at 'idx', say \"hi\"".into()
        }
    );
    assert_eq!(rows[1].cause, "plain cause");
    // Empty table = every repetition completed.
    assert!(parse_failures_csv("phase,rep,cause\n").unwrap().is_empty());
    // Malformed rows are errors, not silently dropped casualties.
    assert!(parse_failures_csv("phase,rep,cause\nguided,notanum,x\n").is_err());
    assert!(parse_failures_csv("phase,rep,cause\nguided\n").is_err());
}

/// The scripted schedule plus one full breaker excursion: trip on
/// released-rate, cooldown to half-open, probe re-closes.
fn breaker_run() -> Vec<TraceEvent> {
    let mgr = pair(0, 0);
    let brk = |from, to, cause| TraceKind::Breaker { from, to, cause };
    let mut script = scripted_run();
    let base = script.last().unwrap().seq;
    script.push(ev(base + 1, mgr, brk(0, 1, 0))); // closed→open, released-rate
    script.push(ev(base + 2, mgr, brk(1, 2, 5))); // open→half-open, cooldown
    script.push(ev(base + 3, mgr, brk(2, 0, 6))); // half-open→closed, probe
    script
}

fn breaker_prom() -> String {
    fixture_prom(0)
        + "gstm_breaker_tripped_total 1\n\
           gstm_breaker_half_open_total 1\n\
           gstm_breaker_reclosed_total 1\n\
           gstm_breaker_model_rejected_total 1\n\
           gstm_guardian_restarts_total 0\n\
           gstm_breaker_state 0\n"
}

/// The campaign fixture under chaos: same commit/abort schedule, each
/// run carrying one trip/probe/re-close cycle, plus one panicked
/// guided repetition in the failures CSV.
fn chaos_campaign() -> (Vec<RunAnalysis>, Vec<CsvRunRow>, HarnessSummary, Vec<CsvFailure>) {
    let (_, csv, summary) = fixture_campaign();
    let runs: Vec<RunAnalysis> = (0..2)
        .map(|r| {
            RunAnalysis::from_artifacts(r, &export_jsonl(&breaker_run()), &breaker_prom(), 2)
                .unwrap()
        })
        .collect();
    let failures = vec![CsvFailure {
        phase: "guided".into(),
        rep: 2,
        cause: "panicked: synthetic rep failure".into(),
    }];
    (runs, csv, summary, failures)
}

#[test]
fn chaos_campaign_surfaces_degradation_without_failing_integrity() {
    let (runs, csv, summary, failures) = chaos_campaign();
    let rep = analyze_campaign_with_failures(
        "kmeans_2t",
        &runs,
        &csv,
        &summary,
        &failures,
        &Thresholds::default(),
    );
    // Degradation is reported, not an integrity failure: absent the
    // --fail-on-degraded gate every check still passes.
    let failed: Vec<_> = rep.checks.iter().filter(|c| !c.pass).collect();
    assert!(failed.is_empty(), "failed checks: {failed:?}");
    let d = &rep.degradation;
    assert!(d.any());
    assert_eq!(
        (d.breaker_trips, d.breaker_probes, d.breaker_recloses, d.model_rejections),
        (2, 2, 2, 2)
    );
    assert_eq!(d.guardian_restarts, 0);
    assert_eq!(d.final_breaker_state, 0);
    assert_eq!(d.events.len(), 6);
    assert_eq!(d.events[0], (0, BreakerEvent { from: 0, to: 1, cause: 0 }));
    assert_eq!(d.failed_reps, failures);
    let c = rep.checks.iter().find(|c| c.name == "breaker_consistency").unwrap();
    assert!(c.detail.contains("2 trip(s)"), "{}", c.detail);

    let json = render_verdict_json(&rep);
    assert!(json.contains("\"degraded\": true"), "{json}");
    assert!(json.contains("\"breaker_trips\": 2"), "{json}");
    assert!(json.contains("\"final_breaker_state\": \"closed\""), "{json}");
    assert!(json.contains("\"cause\": \"panicked: synthetic rep failure\""), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    let md = render_markdown(&rep);
    assert!(md.contains("## Degradation events"), "{md}");
    assert!(md.contains("1 trip(s)") || md.contains("2 trip(s)"), "{md}");
    assert!(md.contains("| 0 | closed → open | released-rate |"), "{md}");
    assert!(md.contains("| 1 | open → half-open | cooldown |"), "{md}");
    assert!(md.contains("| 1 | half-open → closed | probe |"), "{md}");
    assert!(md.contains("| guided | 2 | panicked: synthetic rep failure |"), "{md}");
}

#[test]
fn clean_campaign_reports_no_degradation() {
    let (runs, csv, summary) = fixture_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(!rep.degradation.any());
    let md = render_markdown(&rep);
    assert!(md.contains("## Degradation events"), "{md}");
    assert!(md.contains("None — the campaign ran clean."), "{md}");
    assert!(render_verdict_json(&rep).contains("\"degraded\": false"));
}

#[test]
fn breaker_counter_trace_mismatch_fails_consistency() {
    let (mut runs, csv, summary, failures) = chaos_campaign();
    // Run 1's counter claims two trips; its trace carries one.
    let prom = breaker_prom()
        .replace("gstm_breaker_tripped_total 1", "gstm_breaker_tripped_total 2");
    runs[1] =
        RunAnalysis::from_artifacts(1, &export_jsonl(&breaker_run()), &prom, 2).unwrap();
    let rep = analyze_campaign_with_failures(
        "kmeans_2t",
        &runs,
        &csv,
        &summary,
        &failures,
        &Thresholds::default(),
    );
    let c = rep.checks.iter().find(|c| c.name == "breaker_consistency").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("gstm_breaker_tripped_total"), "{}", c.detail);

    // Breaker events in the trace demand the counter families.
    let (_, csv, summary) = fixture_campaign();
    let runs: Vec<RunAnalysis> = (0..2)
        .map(|r| {
            RunAnalysis::from_artifacts(r, &export_jsonl(&breaker_run()), &fixture_prom(0), 2)
                .unwrap()
        })
        .collect();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let c = rep.checks.iter().find(|c| c.name == "breaker_consistency").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("but no gstm_breaker_tripped_total"), "{}", c.detail);
}

#[test]
fn fail_on_degraded_gates_chaos_but_passes_clean() {
    let th = Thresholds { fail_on_degraded: true, ..Thresholds::default() };
    let (runs, csv, summary, failures) = chaos_campaign();
    let rep =
        analyze_campaign_with_failures("kmeans_2t", &runs, &csv, &summary, &failures, &th);
    let c = rep.checks.iter().find(|c| c.name == "degradation").unwrap();
    assert!(!c.pass, "{}", c.detail);
    assert!(c.detail.contains("2 breaker trip(s)"), "{}", c.detail);
    assert!(c.detail.contains("1 failed rep(s)"), "{}", c.detail);
    assert!(!rep.pass());

    // A clean campaign sails through the same gate.
    let (runs, csv, summary) = fixture_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &th);
    assert!(rep.pass(), "{:?}", rep.checks);
}

#[test]
fn analyze_dir_folds_failures_csv_into_degradation() {
    let dir = std::env::temp_dir().join("gstm_analyze_failures_dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (_, csv, summary) = fixture_campaign();
    for r in 0..2 {
        std::fs::write(
            dir.join(format!("kmeans_2t_run{r}_telemetry.jsonl")),
            export_jsonl(&scripted_run()),
        )
        .unwrap();
        std::fs::write(dir.join(format!("kmeans_2t_run{r}_telemetry.prom")), fixture_prom(0))
            .unwrap();
    }
    let mut runs_csv = String::from("run,thread,secs,commits,aborts\n");
    for row in &csv {
        runs_csv += &format!(
            "{},{},{:.9},{},{}\n",
            row.run, row.thread, row.secs, row.commits, row.aborts
        );
    }
    std::fs::write(dir.join("kmeans_2t_runs.csv"), runs_csv).unwrap();
    let mut sum_csv = String::from("metric,thread,value\n");
    for (t, sd) in summary.std_dev_secs.iter().enumerate() {
        sum_csv += &format!("std_dev_secs,{t},{sd:.9}\n");
    }
    for (t, tail) in summary.tail_metric.iter().enumerate() {
        sum_csv += &format!("tail_metric,{t},{tail}\n");
    }
    sum_csv += &format!("non_determinism,,{}\n", summary.non_determinism);
    sum_csv += &format!("commits,,{}\naborts,,{}\n", summary.commits, summary.aborts);
    std::fs::write(dir.join("kmeans_2t_guided_summary.csv"), sum_csv).unwrap();
    std::fs::write(
        dir.join("kmeans_2t_failures.csv"),
        "phase,rep,cause\nguided,2,\"boom, with comma\"\n",
    )
    .unwrap();

    // Without the gate: reported but passing.
    let rep = analyze_dir(&dir, "kmeans_2t", &Thresholds::default()).unwrap();
    assert!(rep.pass(), "checks: {:?}", rep.checks);
    assert_eq!(rep.degradation.failed_reps.len(), 1);
    assert_eq!(rep.degradation.failed_reps[0].cause, "boom, with comma");
    // With the gate: the casualty fails the campaign.
    let th = Thresholds { fail_on_degraded: true, ..Thresholds::default() };
    let rep = analyze_dir(&dir, "kmeans_2t", &th).unwrap();
    assert!(!rep.pass());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Rendering + end-to-end over files
// ---------------------------------------------------------------------------

#[test]
fn verdict_json_and_markdown_render() {
    let (runs, csv, summary) = fixture_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let json = render_verdict_json(&rep);
    assert!(json.contains("\"pass\": true"), "{json}");
    assert!(json.contains("\"staleness\": \"fresh\""), "{json}");
    assert!(json.contains("\"non_determinism\": 3"), "{json}");
    // Balanced braces — cheap structural sanity without a JSON parser.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces:\n{json}"
    );
    let md = render_markdown(&rep);
    assert!(md.contains("# gstm-analyze: kmeans_2t"));
    assert!(md.contains("**PASS**"), "{md}");
    assert!(md.contains("| check | result | detail |"));
}

#[test]
fn analyze_dir_discovers_run_stamped_artifacts() {
    let dir = std::env::temp_dir().join("gstm_analyze_dir_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (_, csv, summary) = fixture_campaign();
    for r in 0..2 {
        std::fs::write(
            dir.join(format!("kmeans_2t_run{r}_telemetry.jsonl")),
            export_jsonl(&scripted_run()),
        )
        .unwrap();
        std::fs::write(dir.join(format!("kmeans_2t_run{r}_telemetry.prom")), fixture_prom(0))
            .unwrap();
    }
    let mut runs_csv = String::from("run,thread,secs,commits,aborts\n");
    for row in &csv {
        runs_csv += &format!(
            "{},{},{:.9},{},{}\n",
            row.run, row.thread, row.secs, row.commits, row.aborts
        );
    }
    std::fs::write(dir.join("kmeans_2t_runs.csv"), runs_csv).unwrap();
    let mut sum_csv = String::from("metric,thread,value\n");
    for (t, sd) in summary.std_dev_secs.iter().enumerate() {
        sum_csv += &format!("std_dev_secs,{t},{sd:.9}\n");
    }
    for (t, tail) in summary.tail_metric.iter().enumerate() {
        sum_csv += &format!("tail_metric,{t},{tail}\n");
    }
    sum_csv += &format!("non_determinism,,{}\n", summary.non_determinism);
    sum_csv += &format!("commits,,{}\naborts,,{}\n", summary.commits, summary.aborts);
    std::fs::write(dir.join("kmeans_2t_guided_summary.csv"), sum_csv).unwrap();

    let rep = analyze_dir(&dir, "kmeans_2t", &Thresholds::default()).unwrap();
    assert!(rep.pass(), "checks: {:?}", rep.checks);
    assert_eq!(rep.runs, 2);
    assert!(analyze_dir(&dir, "missing_8t", &Thresholds::default()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Conflict provenance
// ---------------------------------------------------------------------------

/// The scripted schedule with abort attribution: thread 1's abort carries
/// a culprit address, thread 0 suffers an unattributed one before its
/// second commit.
fn contention_run() -> Vec<TraceEvent> {
    let (a0, b1) = (pair(0, 0), pair(1, 1));
    vec![
        ev(1, a0, TraceKind::Begin),
        ev(2, a0, state(&[], a0)),
        ev(3, a0, commit(100)),
        ev(
            4,
            b1,
            TraceKind::Abort {
                cause: AbortCause::ReadLocked { owner: Some(ThreadId(0)) },
                addr: 0xab00,
            },
        ),
        ev(5, b1, state(&[b1], b1)),
        ev(6, b1, commit(200)),
        ev(7, a0, abort()),
        ev(8, a0, state(&[a0], a0)),
        ev(9, a0, commit(150)),
        ev(10, b1, state(&[], b1)),
        ev(11, b1, commit(250)),
    ]
}

fn contention_prom(dropped: u64) -> String {
    format!(
        "gstm_commits_total 4\n\
         gstm_aborts_total{{cause=\"read_locked\"}} 1\n\
         gstm_aborts_total{{cause=\"read_version\"}} 1\n\
         gstm_gate_outcomes_total{{outcome=\"passed\"}} 5\n\
         gstm_gate_outcomes_total{{outcome=\"waited\"}} 0\n\
         gstm_gate_outcomes_total{{outcome=\"released\"}} 0\n\
         gstm_thread_commits_total{{thread=\"0\"}} 2\n\
         gstm_thread_commits_total{{thread=\"1\"}} 2\n\
         gstm_thread_aborts_total{{thread=\"0\"}} 1\n\
         gstm_thread_aborts_total{{thread=\"1\"}} 1\n\
         gstm_thread_gate_outcomes_total{{thread=\"0\",outcome=\"passed\"}} 2\n\
         gstm_thread_gate_outcomes_total{{thread=\"1\",outcome=\"passed\"}} 3\n\
         gstm_contention_attributed_total 1\n\
         gstm_contention_unattributed_total 1\n\
         gstm_contention_residual_total 0\n\
         gstm_contention_owner_unknown_total 1\n\
         gstm_contention_sketch_replacements_total 0\n\
         gstm_contention_sketch_slots{{state=\"occupied\"}} 1\n\
         gstm_contention_sketch_slots{{state=\"capacity\"}} 2048\n\
         gstm_contention_addr_aborts_total{{rank=\"0\",addr=\"0xab00\"}} 1\n\
         gstm_contention_addr_error{{rank=\"0\",addr=\"0xab00\"}} 0\n\
         gstm_contention_pair_aborts_total{{victim=\"1\",owner=\"0\"}} 1\n\
         gstm_trace_dropped_total {dropped}\n"
    )
}

/// Two attributed repetitions plus matching CSVs.
fn contention_campaign() -> (Vec<RunAnalysis>, Vec<CsvRunRow>, HarnessSummary) {
    let runs: Vec<RunAnalysis> = (0..2)
        .map(|r| {
            RunAnalysis::from_artifacts(
                r,
                &export_jsonl(&contention_run()),
                &contention_prom(0),
                2,
            )
            .unwrap()
        })
        .collect();
    let secs = [[1.0, 2.0], [1.1, 2.2]];
    let mut csv = Vec::new();
    for (r, times) in secs.iter().enumerate() {
        for (t, &s) in times.iter().enumerate() {
            csv.push(CsvRunRow { run: r, thread: t, secs: s, commits: 2, aborts: 1 });
        }
    }
    let mut merged = [AbortHistogram::new(), AbortHistogram::new()];
    for r in &runs {
        for (m, h) in merged.iter_mut().zip(&r.hists) {
            m.merge(h);
        }
    }
    let summary = HarnessSummary {
        std_dev_secs: vec![metrics::std_dev(&[1.0, 1.1]), metrics::std_dev(&[2.0, 2.2])],
        tail_metric: merged.iter().map(|m| m.tail_metric()).collect(),
        non_determinism: 4,
        commits: 8,
        aborts: 4,
    };
    (runs, csv, summary)
}

#[test]
fn contention_campaign_passes_and_reports_facts() {
    let (runs, csv, summary) = contention_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(rep.pass(), "checks: {:?}", rep.checks);
    for name in [
        "contention_partition",
        "contention_sketch_partition",
        "contention_matrix_partition",
        "contention_trace_attribution",
    ] {
        let c = rep.checks.iter().find(|c| c.name == name).unwrap_or_else(|| {
            panic!("missing check {name}")
        });
        assert!(c.pass, "{name}: {}", c.detail);
        assert!(!c.detail.starts_with("skipped"), "{name} ran: {}", c.detail);
    }
    let facts = rep.contention.as_ref().expect("contention facts");
    assert_eq!(facts.runs_with, 2);
    assert_eq!((facts.attributed, facts.unattributed), (2, 2));
    assert_eq!(facts.attribution_pct(), 50.0);
    assert_eq!(facts.top, vec![(0xab00, 2)], "per-run exports merge by address");
    assert_eq!(facts.hottest_pct, 100.0);
    assert_eq!(facts.pairs, vec![(1, 0, 2)]);
}

#[test]
fn contention_partition_violation_fails() {
    let (mut runs, csv, summary) = contention_campaign();
    // Claim one more attributed abort than the counters saw.
    let prom = contention_prom(0)
        .replace("gstm_contention_attributed_total 1", "gstm_contention_attributed_total 2");
    runs[1] =
        RunAnalysis::from_artifacts(1, &export_jsonl(&contention_run()), &prom, 2).unwrap();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(!rep.pass());
    let failing: Vec<&str> =
        rep.checks.iter().filter(|c| !c.pass).map(|c| c.name.as_str()).collect();
    // The inflated counter breaks the abort partition, the sketch
    // conservation, and the trace cross-check in run 1.
    assert!(failing.contains(&"contention_partition"), "{failing:?}");
    assert!(failing.contains(&"contention_sketch_partition"), "{failing:?}");
    assert!(failing.contains(&"contention_trace_attribution"), "{failing:?}");
}

#[test]
fn dropped_trace_skips_attribution_audit_but_keeps_partitions() {
    let (mut runs, csv, summary) = contention_campaign();
    for (r, run) in runs.iter_mut().enumerate().take(2) {
        *run = RunAnalysis::from_artifacts(
            r,
            &export_jsonl(&contention_run()),
            &contention_prom(3),
            2,
        )
        .unwrap();
    }
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let audit = rep
        .checks
        .iter()
        .find(|c| c.name == "contention_trace_attribution")
        .unwrap();
    assert!(audit.pass);
    assert!(audit.detail.starts_with("skipped"), "{}", audit.detail);
    // Counter-only partitions don't need the trace and still run.
    for name in ["contention_partition", "contention_sketch_partition"] {
        let c = rep.checks.iter().find(|c| c.name == name).unwrap();
        assert!(!c.detail.starts_with("skipped"), "{name} must still verify");
    }
}

#[test]
fn campaigns_without_contention_families_skip_the_section() {
    let (runs, csv, summary) = fixture_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    assert!(rep.contention.is_none());
    assert!(
        !rep.checks.iter().any(|c| c.name.starts_with("contention")),
        "no contention checks without the families"
    );
}

#[test]
fn hot_addr_gate_fails_a_dominated_campaign() {
    let (runs, csv, summary) = contention_campaign();
    let th = Thresholds { max_hot_addr_pct: Some(50.0), ..Thresholds::default() };
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &th);
    let gate = rep.checks.iter().find(|c| c.name == "hot_addr_threshold").unwrap();
    assert!(!gate.pass, "one address holds 100% > 50% limit: {}", gate.detail);
    // A lenient limit passes.
    let th = Thresholds { max_hot_addr_pct: Some(100.0), ..Thresholds::default() };
    assert!(analyze_campaign("kmeans_2t", &runs, &csv, &summary, &th).pass());
}

#[test]
fn contention_renders_in_verdict_and_markdown() {
    let (runs, csv, summary) = contention_campaign();
    let rep = analyze_campaign("kmeans_2t", &runs, &csv, &summary, &Thresholds::default());
    let json = render_verdict_json(&rep);
    assert!(json.contains("\"contention\": {"), "{json}");
    assert!(json.contains("\"addr\": \"0xab00\""), "{json}");
    assert!(json.contains("\"victim\": 1"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    let md = render_markdown(&rep);
    assert!(md.contains("## Contention report"), "{md}");
    assert!(md.contains("`0xab00`"), "{md}");
    assert!(md.contains("thread 1 aborted by thread 0: 2"), "{md}");
}

// ---------------------------------------------------------------------------
// Live ops plane ingestion
// ---------------------------------------------------------------------------

/// A hand-built frozen ops exposition: 2 retained windows + 1 evicted
/// that exactly partition 100 commits, 20 aborts, and 30 gate outcomes.
fn fixture_ops_prom(schema: u32, break_partition: bool) -> String {
    let commits_total = if break_partition { 101 } else { 100 };
    format!(
        "# TYPE gstm_build_info gauge\n\
         gstm_build_info{{schema=\"{schema}\",version=\"test\"}} 1\n\
         # TYPE gstm_commits_total counter\n\
         gstm_commits_total {commits_total}\n\
         # TYPE gstm_aborts_total counter\n\
         gstm_aborts_total{{cause=\"read_version\"}} 15\n\
         gstm_aborts_total{{cause=\"validation\"}} 5\n\
         # TYPE gstm_gate_outcomes_total counter\n\
         gstm_gate_outcomes_total{{outcome=\"passed\"}} 20\n\
         gstm_gate_outcomes_total{{outcome=\"waited\"}} 6\n\
         gstm_gate_outcomes_total{{outcome=\"released\"}} 4\n\
         # TYPE gstm_windows_closed_total counter\n\
         gstm_windows_closed_total 3\n\
         # TYPE gstm_window_rolls_total counter\n\
         gstm_window_rolls_total 7\n\
         # TYPE gstm_window_evicted_windows_total counter\n\
         gstm_window_evicted_windows_total 1\n\
         # TYPE gstm_window_evicted_total counter\n\
         gstm_window_evicted_total{{counter=\"commits\"}} 10\n\
         gstm_window_evicted_total{{counter=\"aborts\"}} 2\n\
         gstm_window_evicted_total{{counter=\"gate_passed\"}} 3\n\
         gstm_window_evicted_total{{counter=\"gate_waited\"}} 2\n\
         gstm_window_evicted_total{{counter=\"gate_released\"}} 1\n\
         # TYPE gstm_window_commits gauge\n\
         gstm_window_commits{{window=\"1\"}} 60\n\
         gstm_window_commits{{window=\"2\"}} 30\n\
         # TYPE gstm_window_aborts gauge\n\
         gstm_window_aborts{{window=\"1\"}} 8\n\
         gstm_window_aborts{{window=\"2\"}} 10\n\
         # TYPE gstm_window_gate gauge\n\
         gstm_window_gate{{window=\"1\",outcome=\"passed\"}} 8\n\
         gstm_window_gate{{window=\"1\",outcome=\"waited\"}} 2\n\
         gstm_window_gate{{window=\"1\",outcome=\"released\"}} 2\n\
         gstm_window_gate{{window=\"2\",outcome=\"passed\"}} 9\n\
         gstm_window_gate{{window=\"2\",outcome=\"waited\"}} 2\n\
         gstm_window_gate{{window=\"2\",outcome=\"released\"}} 1\n\
         # TYPE gstm_slo_state gauge\n\
         gstm_slo_state 2\n\
         # TYPE gstm_slo_windows_total counter\n\
         gstm_slo_windows_total 3\n\
         # TYPE gstm_slo_breached_windows_total counter\n\
         gstm_slo_breached_windows_total 2\n\
         # TYPE gstm_slo_incidents_total counter\n\
         gstm_slo_incidents_total 1\n"
    )
}

fn fixture_incident_json(schema: u32) -> String {
    format!(
        "{{\n  \"schema\": {schema},\n  \"kind\": \"gstm_incident\",\n  \
         \"version\": \"test\",\n  \"stamp\": \"replay\",\n  \"seq\": 0,\n  \
         \"tripped_window\": 4,\n  \"state\": \"incident\",\n  \
         \"breaches\": [\"abort-ratio 80.0% > 50%\"],\n  \"timeline\": [\n    \
         {{\"window\":3,\"from\":\"ok\",\"to\":\"warn\",\"breaches\":[]}},\n    \
         {{\"window\":4,\"from\":\"warn\",\"to\":\"incident\",\"breaches\":[]}}\n  ],\n  \
         \"windows\": [\n    {{\"index\":3,\"commits\":5,\"aborts\":2}},\n    \
         {{\"index\":4,\"commits\":6,\"aborts\":9}}\n  ],\n  \
         \"evicted\": {{\"windows\": 0, \"commits\": 0, \"aborts\": 0, \"gate\": 0}},\n  \
         \"trace\": [\n    \
         {{\"seq\":0,\"txn\":1,\"thread\":0,\"kind\":\"begin\"}},\n    \
         {{\"seq\":1,\"txn\":1,\"thread\":0,\"kind\":\"commit\",\"commit_ns\":90,\"writes\":1}}\n  ]\n}}\n"
    )
}

#[test]
fn ops_partition_check_is_exact() {
    let ok = PromSnapshot::parse(&fixture_ops_prom(1, false)).unwrap();
    let c = ops_partition_check(&ok);
    assert!(c.pass, "{}", c.detail);
    assert!(c.detail.contains("2 retained + 1 evicted"), "{}", c.detail);
    let bad = PromSnapshot::parse(&fixture_ops_prom(1, true)).unwrap();
    let c = ops_partition_check(&bad);
    assert!(!c.pass);
    assert!(c.detail.contains("commits"), "{}", c.detail);
}

#[test]
fn incident_dump_parses_scalars_and_counts() {
    let f = parse_incident_json("incident0.json", &fixture_incident_json(1)).unwrap();
    assert_eq!(f.seq, 0);
    assert_eq!(f.stamp, "replay");
    assert_eq!(f.tripped_window, 4);
    assert_eq!(f.state, "incident");
    assert_eq!(f.windows, 2);
    assert_eq!(f.transitions, 2);
    assert_eq!(f.trace_events, 2);
}

#[test]
fn incident_dump_schema_mismatch_is_rejected() {
    let err = parse_incident_json("incident0.json", &fixture_incident_json(99)).unwrap_err();
    assert!(err.contains("schema 99"), "{err}");
    assert!(err.contains("reads schema 1"), "{err}");
    let err = parse_incident_json("x.json", "{\n  \"schema\": 1,\n  \"kind\": \"other\"\n}")
        .unwrap_err();
    assert!(err.contains("gstm_incident"), "{err}");
}

#[test]
fn analyze_ops_rejects_exposition_schema_mismatch() {
    let dir = std::env::temp_dir().join("gstm_analyze_ops_schema");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ops.prom"), fixture_ops_prom(9, false)).unwrap();
    let err = analyze_ops(&dir, "kmeans_2t").unwrap_err();
    assert!(err.contains("schema 9"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_dir_folds_ops_artifacts_and_renders_them() {
    let dir = std::env::temp_dir().join("gstm_analyze_ops_dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (_, csv, summary) = fixture_campaign();
    for r in 0..2 {
        std::fs::write(
            dir.join(format!("kmeans_2t_run{r}_telemetry.jsonl")),
            export_jsonl(&scripted_run()),
        )
        .unwrap();
        std::fs::write(dir.join(format!("kmeans_2t_run{r}_telemetry.prom")), fixture_prom(0))
            .unwrap();
    }
    let mut runs_csv = String::from("run,thread,secs,commits,aborts\n");
    for row in &csv {
        runs_csv += &format!(
            "{},{},{:.9},{},{}\n",
            row.run, row.thread, row.secs, row.commits, row.aborts
        );
    }
    std::fs::write(dir.join("kmeans_2t_runs.csv"), runs_csv).unwrap();
    let mut sum_csv = String::from("metric,thread,value\n");
    for (t, sd) in summary.std_dev_secs.iter().enumerate() {
        sum_csv += &format!("std_dev_secs,{t},{sd:.9}\n");
    }
    for (t, tail) in summary.tail_metric.iter().enumerate() {
        sum_csv += &format!("tail_metric,{t},{tail}\n");
    }
    sum_csv += &format!("non_determinism,,{}\n", summary.non_determinism);
    sum_csv += &format!("commits,,{}\naborts,,{}\n", summary.commits, summary.aborts);
    std::fs::write(dir.join("kmeans_2t_guided_summary.csv"), sum_csv).unwrap();
    // The stem-qualified name wins over the bare fallback.
    std::fs::write(dir.join("kmeans_2t_ops.prom"), fixture_ops_prom(1, false)).unwrap();
    std::fs::write(dir.join("incident0.json"), fixture_incident_json(1)).unwrap();

    let rep = analyze_dir(&dir, "kmeans_2t", &Thresholds::default()).unwrap();
    assert!(rep.pass(), "checks: {:?}", rep.checks);
    let part = rep.checks.iter().find(|c| c.name == "window_partition").unwrap();
    assert!(part.pass, "{}", part.detail);
    let inc = rep.checks.iter().find(|c| c.name == "incident_artifacts").unwrap();
    assert!(inc.pass, "{}", inc.detail);
    let ops = rep.ops.as_ref().unwrap();
    assert_eq!(ops.windows_closed, 3);
    assert_eq!(ops.incidents.len(), 1);
    assert_eq!(ops.incidents[0].tripped_window, 4);

    let md = render_markdown(&rep);
    assert!(md.contains("## Live ops plane"), "{md}");
    assert!(md.contains("## Incident timeline"), "{md}");
    assert!(md.contains("| 0 | replay | 4 | incident | 2 | 2 | 2 |"), "{md}");
    assert!(md.contains("trace events dropped: 0"), "{md}");
    let json = render_verdict_json(&rep);
    assert!(json.starts_with("{\n  \"schema\": 1,"), "{json}");
    assert!(json.contains("\"ops\": {"), "{json}");
    assert!(json.contains("\"tripped_window\": 4"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_incident_artifact_fails_the_inventory_check() {
    let dir = std::env::temp_dir().join("gstm_analyze_ops_missing_inc");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    // Declares one incident, but no incident0.json rode along.
    std::fs::write(dir.join("ops.prom"), fixture_ops_prom(1, false)).unwrap();
    let (facts, checks) = analyze_ops(&dir, "kmeans_2t").unwrap().unwrap();
    assert_eq!(facts.incidents_total, 1);
    assert!(facts.incidents.is_empty());
    let inc = checks.iter().find(|c| c.name == "incident_artifacts").unwrap();
    assert!(!inc.pass, "{}", inc.detail);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gini_measures_concentration() {
    assert_eq!(gini(&[]), 0.0);
    assert_eq!(gini(&[5]), 0.0);
    assert_eq!(gini(&[3, 3, 3]), 0.0, "uniform distribution");
    let skewed = gini(&[97, 1, 1, 1]);
    assert!(skewed > 0.7, "dominated distribution concentrates: {skewed}");
    let mild = gini(&[4, 3, 2, 1]);
    assert!(mild > 0.0 && mild < skewed, "ordering: {mild} < {skewed}");
}

// ---------------------------------------------------------------------------
// Server tick analysis
// ---------------------------------------------------------------------------

fn tick_line(tick: u64, frame_ns: u64, ladder: u8, offered: u64, executed: u64, shed: u64) -> String {
    format!(
        "{{\"tick\":{tick},\"frame_ns\":{frame_ns},\"cost\":{frame_ns},\"ladder\":{ladder},\
         \"offered\":{offered},\"executed\":{executed},\"shed\":{shed},\"sessions\":3}}"
    )
}

#[test]
fn ticks_jsonl_parses_rows_and_truncation_marker() {
    let text = format!(
        "{{\"truncated_ticks\":7}}\n{}\n{}\n",
        tick_line(7, 100, 0, 4, 4, 0),
        tick_line(8, 900, 1, 10, 6, 4)
    );
    let (rows, truncated) = parse_ticks_jsonl(&text).unwrap();
    assert_eq!(truncated, 7);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].tick, 7);
    assert_eq!(rows[1].ladder, 1);
    assert_eq!(rows[1].shed, 4);
    assert!(parse_ticks_jsonl("{\"frame_ns\":3}\n").is_err(), "tick field is mandatory");
}

#[test]
fn server_checks_pass_on_a_clean_log() {
    let rows = [
        ServerTickRow { tick: 0, frame_ns: 100, ladder: 0, offered: 4, executed: 4, ..Default::default() },
        ServerTickRow { tick: 1, frame_ns: 110, ladder: 1, offered: 9, executed: 6, shed: 3, ..Default::default() },
        ServerTickRow { tick: 2, frame_ns: 105, ladder: 0, offered: 2, executed: 2, ..Default::default() },
    ];
    let (facts, checks) = analyze_server_ticks(&rows, 0, &Thresholds::default());
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
    assert_eq!(facts.offered, 15);
    assert_eq!(facts.executed, 12);
    assert_eq!(facts.shed, 3);
    assert_eq!(facts.max_rung, 1);
    assert_eq!(facts.ladder_moves, 2);
    assert_eq!(facts.rung_ticks, [2, 1, 0, 0]);
}

#[test]
fn server_shed_accounting_catches_lost_actions() {
    let rows = [ServerTickRow { tick: 0, offered: 5, executed: 3, shed: 1, ..Default::default() }];
    let (_, checks) = analyze_server_ticks(&rows, 0, &Thresholds::default());
    let c = checks.iter().find(|c| c.name == "server_shed_accounting").unwrap();
    assert!(!c.pass, "{}", c.detail);
}

#[test]
fn server_ladder_sanity_catches_rung_jumps() {
    let rows = [
        ServerTickRow { tick: 0, ladder: 0, ..Default::default() },
        ServerTickRow { tick: 1, ladder: 2, ..Default::default() },
    ];
    let (_, checks) = analyze_server_ticks(&rows, 0, &Thresholds::default());
    let c = checks.iter().find(|c| c.name == "server_ladder_sanity").unwrap();
    assert!(!c.pass, "two-rung jump: {}", c.detail);
}

#[test]
fn server_frame_gates_fire_on_thresholds() {
    let rows: Vec<ServerTickRow> = (0..100)
        .map(|t| ServerTickRow {
            tick: t,
            frame_ns: if t >= 98 { 10_000_000 } else { 1_000 },
            offered: 1,
            executed: 1,
            ..Default::default()
        })
        .collect();
    let th = Thresholds {
        max_frame_cv_pct: Some(50.0),
        max_frame_p99_ms: Some(1.0),
        ..Thresholds::default()
    };
    let (facts, checks) = analyze_server_ticks(&rows, 0, &th);
    assert!(facts.frame_cv_pct > 50.0);
    assert!(!checks.iter().find(|c| c.name == "server_frame_cv").unwrap().pass);
    assert!(!checks.iter().find(|c| c.name == "server_frame_p99").unwrap().pass);
    // Identical frames sail through both gates.
    let calm: Vec<ServerTickRow> = (0..100)
        .map(|t| ServerTickRow { tick: t, frame_ns: 1_000, ..Default::default() })
        .collect();
    let (facts, checks) = analyze_server_ticks(&calm, 0, &th);
    assert_eq!(facts.frame_cv_pct, 0.0);
    assert!(checks.iter().all(|c| c.pass), "{checks:?}");
}

#[test]
fn server_renderers_cover_facts_and_checks() {
    let rows = [ServerTickRow { tick: 0, frame_ns: 500, offered: 3, executed: 3, ..Default::default() }];
    let (facts, checks) = analyze_server_ticks(&rows, 2, &Thresholds::default());
    let md = render_server_markdown(&facts, &checks);
    assert!(md.contains("server ticks"), "{md}");
    assert!(md.contains("server_shed_accounting"), "{md}");
    let json = render_server_verdict_json(&facts, &checks);
    assert!(json.contains("\"pass\":true"), "{json}");
    assert!(json.contains("\"truncated\":2"), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
}
