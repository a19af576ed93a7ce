//! Every artifact writer in the workspace emits what its one reader reads.
//!
//! Each JSON body below goes through `gstm_core::json::parse`: trace
//! JSONL and chrome traces, the incident flight-recorder dump, the three
//! ops-plane bodies, both analyzer verdicts and the server's
//! `ticks.jsonl` line. Strings that reach an artifact carry a quote, a
//! backslash, a newline and a tab, and must decode back unchanged.
//!
//! The three Prometheus expositions (a telemetry snapshot, the ops
//! plane's `/metrics` body and the server's `gstm_server_*` families)
//! are pinned byte for byte to `golden/*.prom`: dashboards, the
//! analyzer and the `ops.prom` = `/metrics` comparison key on them. The
//! ops plane's JSON bodies (an incident dump, `/vars` and `/health`) are
//! pinned to `golden/ops_*.json` the same way.

use gstm_analyze::{
    analyze_server_ticks, parse_incident_json, parse_ticks_jsonl, render_server_verdict_json,
    render_verdict_json, CampaignReport, Check, ContentionFacts, CsvFailure, DegradationFacts,
    DriftFacts, EpochSegment, IncidentFacts, OpsFacts, ServerTickRow, Thresholds,
};
use gstm_core::json::{parse, Value};
use gstm_core::ops::{OpsPlane, SloSpec};
use gstm_core::prom;
use gstm_core::telemetry::{
    export_chrome_trace, export_jsonl, HistogramSnapshot, Telemetry, TelemetrySnapshot, TraceEvent,
    TraceKind,
};
use gstm_core::{
    Abort, AbortCause, AdaptConfig, Breaker, BreakerConfig, ContentionTracker, DriftTracker,
    DriftVerdict, GuidanceConfig, GuidanceHook, GuidedHook, GuidedModel, Instruments, Pair,
    StateKey, ThreadId, ThreadStats, Tsa, TxnId,
};
use gstm_libtm::{LibTm, LibTmConfig};
use gstm_server::engine::{Engine, EngineConfig, Event, TickRecord};
use gstm_server::proto::{ActionOp, Frame};
use gstm_server::stats::ServerStats;
use std::collections::HashSet;
use std::sync::Arc;

const AWKWARD: &str = "say \"hi\" \\ then\nnewline\ttab";

fn parses(what: &str, text: &str) -> Value {
    parse(text).unwrap_or_else(|e| panic!("{what} is not JSON ({e}):\n{text}"))
}

fn len(v: &Value, key: &str) -> usize {
    v.get(key)
        .and_then(Value::as_array)
        .map_or(usize::MAX, <[Value]>::len)
}

fn p(txn: u16, thread: u16) -> Pair {
    Pair::new(TxnId(txn), ThreadId(thread))
}

fn every_kind() -> Vec<TraceEvent> {
    let kinds = [
        TraceKind::Begin,
        TraceKind::GateWait { wait_ns: 120 },
        TraceKind::Abort {
            cause: AbortCause::CommitLockBusy {
                owner: Some(ThreadId(1)),
            },
            addr: usize::MAX,
        },
        TraceKind::Abort {
            cause: AbortCause::Validation,
            addr: 0,
        },
        TraceKind::Commit {
            commit_ns: 55,
            writes: 3,
        },
        TraceKind::StateTransition {
            from: u32::MAX,
            to: 4,
        },
        TraceKind::StateTransition { from: 4, to: 9 },
        TraceKind::ModelSwap {
            epoch: 1,
            verdict: 3,
        },
        TraceKind::Breaker {
            from: 0,
            to: 1,
            cause: 2,
        },
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            seq: i as u64,
            ts_ns: 100 * i as u64 + 7,
            pair: p(1, 2),
            kind,
        })
        .collect()
}

#[test]
fn trace_writers_parse() {
    let events = every_kind();
    let jsonl = export_jsonl(&events);
    for line in jsonl.lines() {
        parses("jsonl line", line);
    }
    let abort = parses("jsonl line", jsonl.lines().nth(3).unwrap());
    assert_eq!(
        abort.get("addr").and_then(Value::as_u64),
        Some(u64::MAX),
        "exact above 2^53"
    );
    let chrome = parses("chrome trace", &export_chrome_trace(&events));
    // Metadata, one entry per event, one residency slice per transition.
    assert_eq!(len(&chrome, "traceEvents"), 1 + events.len() + 2);
}

#[test]
fn ops_writers_parse_and_round_trip_strings() {
    let spec = SloSpec::parse("abort-ratio<=25,warn=1,incident=2,clear=2").unwrap();
    let plane = OpsPlane::with_ring(spec, 4);
    let tel = Arc::new(Telemetry::with_trace_capacity(64));
    plane.attach(&tel);
    for ev in every_kind() {
        tel.trace(ev.pair, ev.kind);
    }
    for _ in 0..4 {
        for i in 0..20u16 {
            if i % 2 == 0 {
                tel.record_abort(p(i % 3, i % 2), AbortCause::Validation);
            } else {
                tel.record_commit(p(i % 3, i % 2), 100 + u64::from(i));
            }
        }
        plane.roll_stamped(AWKWARD);
    }
    let incidents = plane.incidents();
    assert!(!incidents.is_empty(), "a 50% abort ratio trips the 25% SLO");
    for inc in &incidents {
        let doc = parses("incident dump", &inc.json);
        assert_eq!(doc.get("stamp").and_then(Value::as_str), Some(AWKWARD));
        let facts = parse_incident_json("incident.json", &inc.json).unwrap();
        assert_eq!(facts.stamp, AWKWARD);
        assert_eq!(facts.trace_events, len(&doc, "trace"));
        assert!(facts.trace_events > 0 && facts.windows > 0 && facts.transitions > 0);
    }
    let (_, health) = plane.health_json();
    assert_eq!(
        parses("/health", &health)
            .get("state")
            .and_then(Value::as_str),
        Some("incident")
    );
    parses("/vars", &plane.vars_json());
    let all = parses("/incidents", &plane.incidents_json());
    assert_eq!(all.as_array().map(<[Value]>::len), Some(incidents.len()));
}

#[test]
fn verdict_writers_parse_and_round_trip_strings() {
    let awkward_check = || Check::new(AWKWARD, false, AWKWARD.to_string());
    let report = CampaignReport {
        stem: AWKWARD.into(),
        runs: 1,
        threads: 2,
        checks: vec![Check::new("artifacts", true, "ok".into()), awkward_check()],
        std_dev_secs: vec![0.5, f64::NAN],
        mean_secs: vec![1.0, 2.0],
        tail_metric: vec![3, u64::MAX],
        non_determinism: 2,
        commits: 10,
        aborts: 4,
        commit_p50_ns: vec![100],
        commit_p99_ns: vec![900],
        model_swaps: 1,
        epochs: vec![(
            0,
            EpochSegment {
                epoch: 1,
                swap_verdict: Some(2),
                transitions: 3,
                commits: 4,
            },
        )],
        drift: Some(DriftFacts {
            observed_metric_pct: Some(12.5),
            ..DriftFacts::default()
        }),
        degradation: DegradationFacts {
            failed_reps: vec![CsvFailure {
                phase: "guided".into(),
                rep: 1,
                cause: AWKWARD.into(),
            }],
            ..DegradationFacts::default()
        },
        contention: Some(ContentionFacts {
            top: vec![(0xdead_b000, 3)],
            pairs: vec![(0, 1, 3)],
            ..ContentionFacts::default()
        }),
        trace_dropped: 0,
        ops: Some(OpsFacts {
            windows_closed: 4,
            rolls: 4,
            retained_windows: 4,
            evicted_windows: 0,
            slo_state: 2,
            slo_windows: 4,
            breached_windows: 3,
            incidents_total: 1,
            incidents: vec![IncidentFacts {
                seq: 0,
                stamp: AWKWARD.into(),
                tripped_window: 2,
                state: "incident".into(),
                windows: 3,
                transitions: 2,
                trace_events: 9,
            }],
        }),
    };
    let v = parses("verdict.json", &render_verdict_json(&report));
    assert_eq!(v.get("stem").and_then(Value::as_str), Some(AWKWARD));
    let checks = v.get("checks").and_then(Value::as_array).unwrap();
    assert_eq!(checks[1].get("name").and_then(Value::as_str), Some(AWKWARD));
    assert_eq!(
        checks[1].get("detail").and_then(Value::as_str),
        Some(AWKWARD)
    );

    let rows = [ServerTickRow {
        tick: 0,
        frame_ns: 500,
        offered: 3,
        executed: 3,
        ..Default::default()
    }];
    let (facts, mut checks) = analyze_server_ticks(&rows, 0, &Thresholds::default());
    checks.push(awkward_check());
    let v = parses(
        "server_verdict.json",
        &render_server_verdict_json(&facts, &checks),
    );
    let last = v
        .get("checks")
        .and_then(Value::as_array)
        .unwrap()
        .last()
        .unwrap();
    assert_eq!(last.get("name").and_then(Value::as_str), Some(AWKWARD));
    assert_eq!(last.get("detail").and_then(Value::as_str), Some(AWKWARD));
}

#[test]
fn tick_record_parses_and_round_trips() {
    let rec = TickRecord {
        tick: u64::MAX,
        frame_ns: 1 << 60,
        cost: 7,
        ladder: 3,
        offered: 9,
        executed: 5,
        shed: 4,
        sessions: 2,
    };
    let line = rec.to_json();
    assert_eq!(
        parses("ticks.jsonl line", &line)
            .get("tick")
            .and_then(Value::as_u64),
        Some(u64::MAX)
    );
    let (rows, truncated) =
        parse_ticks_jsonl(&format!("{{\"truncated_ticks\":3}}\n{line}\n")).unwrap();
    assert_eq!(truncated, 3);
    let r = rows[0];
    assert_eq!(
        (r.tick, r.frame_ns, r.cost, r.ladder, r.offered, r.executed, r.shed, r.sessions),
        (
            rec.tick,
            rec.frame_ns,
            rec.cost,
            rec.ladder,
            rec.offered,
            rec.executed,
            rec.shed,
            rec.sessions
        )
    );
    let err = parse_ticks_jsonl(&format!("{line}\n{{\"tick\":1,\"cost\":2\n")).unwrap_err();
    assert!(err.starts_with("line 2: invalid JSON"), "{err}");
}

// ---------------------------------------------------------------------------
// Prometheus expositions: pinned bytes
// ---------------------------------------------------------------------------

/// A histogram holding `samples`, recorded through the public commit path.
fn histogram_of(samples: &[u64]) -> HistogramSnapshot {
    let tel = Telemetry::counters_only();
    for &ns in samples {
        tel.record_commit(p(0, 0), ns);
    }
    tel.snapshot().commit_ns
}

/// A model trained on 60 commits alternating between two threads.
fn alternating_model() -> Arc<GuidedModel> {
    let (a, b) = (StateKey::solo(p(0, 0)), StateKey::solo(p(0, 1)));
    let run: Vec<StateKey> = (0..60)
        .map(|i| if i % 2 == 0 { a.clone() } else { b.clone() })
        .collect();
    Arc::new(GuidedModel::build(
        Tsa::from_runs(&[run]),
        &GuidanceConfig::default(),
    ))
}

/// A snapshot carrying every optional family: contention, drift,
/// per-thread rows with gate outcomes, trace drops and all three
/// histograms. Every value is a function of the call sequence alone.
fn rich_snapshot() -> TelemetrySnapshot {
    let model = alternating_model();
    let tel = Arc::new(Telemetry::with_trace_capacity(8));
    let drift = Arc::new(DriftTracker::new(&model));
    tel.attach_drift(drift.clone());
    let hook = Arc::new(GuidedHook::with_robustness(
        model,
        GuidanceConfig::default(),
        Some(tel.clone()),
        Some(drift),
        None,
        None,
    ));
    let contention = Arc::new(ContentionTracker::new());
    let instr = Instruments::new(
        hook.clone(),
        Some(tel.clone()),
        None,
        Some(contention.clone()),
    );
    let mut stats = ThreadStats::new();
    // The profiled alternation, so the drift report has modeled edges
    // and an observed metric.
    for i in 0..200u16 {
        let me = p(0, i % 2);
        hook.gate(me);
        instr.commit(me, &mut stats, 0, (50, 1));
    }
    for i in 0..24u16 {
        let me = p(0, i % 3);
        hook.gate(me);
        match i % 4 {
            0 => {
                let owner = Some(ThreadId((i + 1) % 3));
                let addr = 0xab00 + usize::from(i % 8) * 0x40;
                instr.abort(
                    me,
                    &mut stats,
                    Abort::at(AbortCause::ReadLocked { owner }, addr),
                );
            }
            1 => {
                instr.abort(me, &mut stats, Abort::EXPLICIT);
            }
            _ => instr.commit(me, &mut stats, 0, (100 << (i % 7), 2)),
        }
    }
    tel.set_contention(contention.snapshot());
    let mut snap = tel.snapshot();
    snap.backoff_ns = histogram_of(&[0, 7, 300, 300, 70_000]);
    snap.gate_wait_ns = histogram_of(&[1, 2, 3, 5_000]);
    snap
}

/// A deterministic engine serving `sessions` greeted sessions, with
/// its stats shared for an ops plane.
fn engine(sessions: u64) -> (Engine, Arc<ServerStats>) {
    let stats = Arc::new(ServerStats::new());
    let cfg = EngineConfig {
        deterministic: true,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(
        cfg,
        LibTm::new(LibTmConfig::default()),
        None,
        None,
        stats.clone(),
    );
    for conn in 0..sessions {
        engine.handle(Event::Connect { conn });
        engine.handle(Event::Data {
            conn,
            bytes: Frame::hello().encode(),
        });
    }
    (engine, stats)
}

/// One tick in which every session sends one action.
fn tick(engine: &mut Engine, sessions: u64, round: u16) {
    for conn in 0..sessions {
        let op = [ActionOp::Move, ActionOp::Attack, ActionOp::Pickup][(conn % 3) as usize];
        let bytes = Frame::action(op, 1, round * 7 + conn as u16, 3 * round).encode();
        engine.handle(Event::Data { conn, bytes });
    }
    engine.handle(Event::Tick);
}

/// The `/metrics` body of a plane after two stamped windows over a
/// telemetry collector and a server source, then the frozen final
/// (idle) roll.
fn ops_metrics() -> String {
    let spec = SloSpec::parse("abort-ratio<=25,warn=1,incident=2,clear=2").unwrap();
    let plane = OpsPlane::with_ring(spec, 4);
    let tel = Arc::new(Telemetry::counters_only());
    plane.attach(&tel);
    let (mut engine, stats) = engine(3);
    plane.set_server_source(stats);
    for window in 0..2u16 {
        for i in 0..10u16 {
            if (i + window) % 3 == 0 {
                tel.record_abort(p(i % 2, i % 3), AbortCause::Validation);
            } else {
                tel.record_commit(p(i % 2, i % 3), 100 + 37 * u64::from(i + window));
            }
        }
        for round in 0..3 {
            tick(&mut engine, 3, window * 3 + round);
        }
        plane.roll_stamped("1700000000.000");
    }
    plane.freeze_stamped("1700000001.000")
}

/// The ops plane's JSON bodies `(incident dump, /vars, /health)` after a
/// campaign over two collectors: a model hot-swap on the first, a forced
/// breaker trip on the second, and enough aborts for one incident in a
/// four-window ring that has evicted windows by then. Stamps are fixed
/// and the dump's trace carries no `ts_ns`, so every byte is a function
/// of the call sequence alone.
fn ops_json() -> (String, String, String) {
    let spec = SloSpec::parse("abort-ratio<=25,warn=1,incident=2,clear=2").unwrap();
    let plane = OpsPlane::with_ring(spec, 4);
    let first = Arc::new(Telemetry::with_trace_capacity(16));
    plane.attach(&first);
    let adapt = AdaptConfig {
        background: false,
        ..AdaptConfig::default()
    };
    let model = alternating_model();
    let hook = GuidedHook::adaptive(
        model.clone(),
        GuidanceConfig::default(),
        adapt,
        Some(first.clone()),
    );
    let load = |tel: &Telemetry, window: u16, aborts_every: u16| {
        for i in 0..12u16 {
            let who = p(i % 2, i % 3);
            if (i + window).is_multiple_of(aborts_every) {
                tel.record_abort(who, AbortCause::Validation);
                tel.trace(
                    who,
                    TraceKind::Abort {
                        cause: AbortCause::Validation,
                        addr: 0x40 * usize::from(i),
                    },
                );
            } else {
                let ns = 90 + 41 * u64::from(i + window);
                tel.record_commit(who, ns);
                tel.trace(
                    who,
                    TraceKind::Commit {
                        commit_ns: ns,
                        writes: u32::from(i % 4),
                    },
                );
            }
        }
    };
    for window in 0..3u16 {
        load(&first, window, 6);
        plane.roll_stamped("1700000000.000");
    }
    hook.manager()
        .expect("adaptive hook")
        .swap_in(model, DriftVerdict::Drifting);
    plane.roll_stamped("1700000000.100");
    let second = Arc::new(Telemetry::with_trace_capacity(16));
    plane.attach(&second);
    let breaker = Breaker::new(BreakerConfig::default(), Some(second.clone()));
    breaker.force_open().expect("a closed breaker opens");
    for window in 3..7u16 {
        load(&second, window, 2);
        plane.roll_stamped("1700000000.200");
    }
    plane.freeze_stamped("1700000001.000");
    let incidents = plane.incidents();
    assert_eq!(incidents.len(), 1, "the fixture trips exactly one incident");
    let (_, health) = plane.health_json();
    (incidents[0].json.clone(), plane.vars_json(), health)
}

/// The `gstm_server_*` block a plane appends for an engine after five
/// ticks.
fn server_families() -> String {
    let plane = OpsPlane::with_ring(SloSpec::parse("abort-ratio<=25").unwrap(), 4);
    let (mut engine, stats) = engine(2);
    plane.set_server_source(stats);
    for round in 0..5 {
        tick(&mut engine, 2, round);
    }
    engine.handle(Event::Disconnect { conn: 1 });
    let body = plane.freeze_stamped("1700000002.000");
    let mut block = String::new();
    for line in body.lines().filter(|l| l.contains("gstm_server_")) {
        block.push_str(line);
        block.push('\n');
    }
    block
}

#[test]
fn telemetry_exposition_bytes_are_pinned() {
    assert_eq!(
        rich_snapshot().render_prometheus(),
        include_str!("golden/telemetry.prom")
    );
}

#[test]
fn ops_metrics_bytes_are_pinned() {
    assert_eq!(ops_metrics(), include_str!("golden/ops_metrics.prom"));
}

#[test]
fn ops_json_bytes_are_pinned() {
    let (incident, vars, health) = ops_json();
    assert!(
        !incident.contains("ts_ns"),
        "the dump omits wall-clock noise"
    );
    assert_eq!(incident, include_str!("golden/ops_incident.json"));
    assert_eq!(vars, include_str!("golden/ops_vars.json"));
    assert_eq!(health, include_str!("golden/ops_health.json"));
}

#[test]
fn server_stats_bytes_are_pinned() {
    assert_eq!(server_families(), include_str!("golden/server_stats.prom"));
}

/// Check `text` as an exposition: it parses through `prom::parse`, each
/// family has one `# TYPE` line, before its first sample, and no series
/// (name plus label set) repeats.
fn assert_well_formed(what: &str, text: &str) {
    let parsed = prom::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut types: Vec<(&str, &str)> = Vec::new();
    let mut series = HashSet::new();
    let mut samples = parsed.samples.iter();
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl.split_once(' ').unwrap();
            assert!(
                types.iter().all(|&(f, _)| f != family),
                "{what}: second # TYPE line for {family}"
            );
            types.push((family, kind));
            continue;
        }
        let sample = samples
            .next()
            .unwrap_or_else(|| panic!("{what}: unparsed line {line}"));
        let name = sample.name.as_str();
        let declared = types.iter().any(|&(f, kind)| {
            name == f
                || kind == "histogram"
                    && ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| name.strip_suffix(suffix) == Some(f))
        });
        assert!(declared, "{what}: {line} precedes its family's # TYPE line");
        let mut labels = sample.labels.clone();
        labels.sort();
        assert!(
            series.insert((name, labels)),
            "{what}: repeated series {line}"
        );
    }
    assert!(
        samples.next().is_none(),
        "{what}: samples outside its lines"
    );
}

#[test]
fn expositions_parse_with_one_type_line_per_family_and_no_repeated_series() {
    assert_well_formed(
        "empty snapshot",
        &Telemetry::new().snapshot().render_prometheus(),
    );
    assert_well_formed("telemetry", &rich_snapshot().render_prometheus());
    assert_well_formed("/metrics", &ops_metrics());
    assert_well_formed("server families", &server_families());
}
