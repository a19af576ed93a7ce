//! Standalone hook-overhead harness (std only).
//!
//! Measures the per-commit cost of the guidance hooks: each worker runs
//! gate → (3 aborts : 1 commit) cycles against one shared hook. The
//! `legacy` row is a faithful replica of the pre-sharding tracker (one
//! global pending mutex + one recorded mutex, `StateKey::new` on every
//! commit), so the printed ratio is the speedup this PR's sharded tracker
//! delivers. Run with:
//!
//! ```text
//! cargo run --release --example hook_overhead [threads...]
//! ```
//!
//! Every row drives its window through the [`Instruments`] methods the
//! STM retry driver calls (`begin`/`abort`/`commit`), so each row
//! measures the shipped bookkeeping around its hook. The `guided+tel`
//! row attaches a [`Telemetry`] collector to that bundle, so it is the
//! *enabled-mode* per-window cost; the
//! `guided+drift` row attaches a [`DriftTracker`] instead (per-commit
//! observed-transition recording, no telemetry); the `guided+adapt` row
//! runs the adaptive hook *quiescent* — guardian polling, sliding window
//! recording, per-epoch drift recording, but a drift threshold it can
//! never reach, so no swap ever fires. Its A/B partner is `guided+drift`
//! (adaptive commits always take the observer path); the steady-state
//! hot-swap machinery must stay within 2% of it. The `guided+ctn` row
//! attaches a conflict-provenance tracker (one space-saving sketch update
//! plus one matrix bump per abort, against a small hot set so the sketch
//! stays on its hit path); its disabled partner is the plain `guided`
//! row, which still executes the bundle's one-branch `Option` check with
//! no tracker attached. The plain `guided`
//! row is the observability-disabled path the ≤2% ratio budget applies
//! to. The `guided+ops` row runs `guided+tel`'s exact window with the
//! live ops plane armed — a 50 ms windowed-telemetry roller and an HTTP
//! `/metrics` service thread, both off the commit path — so its A/B
//! partner is `guided+tel` and the delta is the ops plane's entire
//! hot-path cost (expected: noise).
//!
//! CI regression mode:
//!
//! ```text
//! cargo run --release --example hook_overhead -- --check [baseline-file]
//! ```
//!
//! compares the guided/legacy overhead *ratio* (normalized by the frozen
//! in-example legacy replica, so host speed and load cancel) against the
//! recorded baseline and exits nonzero when the telemetry-disabled path
//! regressed on both that ratio and the absolute guided ns/window.
//!
//! Numbers in README.md § Performance come from this harness.

use gstm_core::contention::ContentionTracker;
use gstm_core::drift::{DriftConfig, DriftTracker};
use gstm_core::guidance::{GuidanceHook, GuidedHook, NoopHook, RecorderHook};
use gstm_core::ops::{self, OpsPlane, OpsRoller, OpsServer, SloSpec};
use gstm_core::telemetry::Telemetry;
use gstm_core::{
    Abort, AbortCause, AdaptConfig, GuidanceConfig, GuidedModel, Instruments, Pair, StateKey,
    ThreadId, ThreadStats, Tsa, TxnId,
};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Replica of the tracker this PR replaced: every abort and every commit
/// takes a global lock; each commit allocates a fresh abort `Vec` and a
/// cloned `StateKey`.
#[derive(Default)]
struct LegacyRecorder {
    pending: Mutex<Vec<Pair>>,
    recorded: Mutex<Vec<StateKey>>,
}

impl GuidanceHook for LegacyRecorder {
    fn on_abort(&self, who: Pair, _cause: AbortCause) {
        self.pending.lock().unwrap().push(who);
    }

    fn on_commit(&self, who: Pair) {
        let aborts = std::mem::take(&mut *self.pending.lock().unwrap());
        let key = StateKey::new(aborts, who);
        self.recorded.lock().unwrap().push(key.clone());
    }
}

/// Aborts per commit in the measured cycle (3:1, a contended-workload mix).
const ABORTS_PER_COMMIT: usize = 3;

/// The window's aborts, conflicting on a hot set of `ABORTS_PER_COMMIT`
/// cache-line-spaced addresses shared by every thread, so the
/// `guided+ctn` sketch serves hits (its steady-state path on the skewed
/// workloads provenance exists for) rather than churning slots.
#[inline]
fn hot_abort(i: usize) -> Abort {
    Abort::at(AbortCause::Validation, 0x1000 + (i << 6))
}

/// The live ops plane's moving parts for the `guided+ops` row, held
/// alive (roller thread + HTTP service thread) for the duration of one
/// measured repetition and torn down between repetitions.
struct OpsRig {
    _plane: Arc<OpsPlane>,
    _roller: OpsRoller,
    _server: Option<OpsServer>,
}

/// One row's moving parts: the instruments (hook plus optional
/// telemetry and conflict provenance) its windows report to, plus the
/// off-path ops rig kept alive while the row runs.
type Setup = (Instruments, Option<OpsRig>);

/// A row with only a hook: every optional instrument off.
fn bare(hook: Arc<dyn GuidanceHook>) -> Setup {
    (Instruments::new(hook, None, None, None), None)
}

/// Drive `commits` windows against `instruments` from `threads` workers
/// and return the mean wall-clock nanoseconds per commit (full window:
/// one gate + three aborts + one commit), each window going through the
/// [`Instruments`] methods the STM retry driver calls. An absent
/// instrument costs the bundle's one-branch `Option` check, exactly the
/// runtime's disabled path.
fn drive(instruments: Instruments, threads: u16, commits_per_thread: usize) -> f64 {
    let instruments = Arc::new(instruments);
    let barrier = Arc::new(Barrier::new(threads as usize + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let instruments = Arc::clone(&instruments);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let me = Pair::new(TxnId(t % 4), ThreadId(t));
            let mut stats = ThreadStats::new();
            let mut backoff_from = None;
            barrier.wait();
            for _ in 0..commits_per_thread {
                // Re-opaque the bundle every window: stops LLVM
                // devirtualizing NoopHook and deleting the loop outright.
                let ins = black_box(&*instruments);
                ins.begin(me, backoff_from);
                for i in 0..ABORTS_PER_COMMIT {
                    backoff_from = ins.abort(me, &mut stats, hot_abort(i));
                }
                ins.commit(me, &mut stats, ABORTS_PER_COMMIT as u32, (0, 0));
            }
            black_box(stats);
            barrier.wait();
        }));
    }
    barrier.wait();
    let start = Instant::now();
    barrier.wait();
    let elapsed = start.elapsed();
    for h in handles {
        h.join().unwrap();
    }
    elapsed.as_nanos() as f64 / (threads as usize * commits_per_thread) as f64
}

/// A guided hook over `model` with the default configuration.
fn guided_hook(model: &Arc<GuidedModel>) -> Arc<dyn GuidanceHook> {
    let hook = GuidedHook::new(Arc::clone(model), GuidanceConfig::default());
    Arc::new(hook)
}

/// A guided hook over `model` reporting to `tel`, bundled with that
/// same collector — the enabled-mode telemetry configuration.
fn telemetry_instruments(model: &Arc<GuidedModel>, tel: Arc<Telemetry>) -> Instruments {
    let cfg = GuidanceConfig::default();
    let tel_hook = Some(Arc::clone(&tel));
    let hook = GuidedHook::with_robustness(Arc::clone(model), cfg, tel_hook, None, None, None);
    Instruments::new(Arc::new(hook), Some(tel), None, None)
}

/// A model whose states are the solo commits of every pair the harness
/// uses, chained so each state allows its successors — gates exercise the
/// bitmap path against mostly-known states.
fn harness_model(threads: u16) -> Arc<GuidedModel> {
    let keys: Vec<StateKey> = (0..threads)
        .map(|t| StateKey::solo(Pair::new(TxnId(t % 4), ThreadId(t))))
        .collect();
    let mut run = Vec::new();
    for _ in 0..8 {
        run.extend(keys.iter().cloned());
    }
    let tsa = Tsa::from_runs(&[run]);
    Arc::new(GuidedModel::build(tsa, &GuidanceConfig::default()))
}

/// Micro-measure the two per-commit hook components this PR rebuilt, each
/// against a replica of its predecessor:
///
/// * **gate membership** — the old per-state `HashSet<u32>` of packed
///   allowed pairs vs [`GuidedModel::is_allowed`]'s bitmap load;
/// * **commit classify** — the old `StateKey::new` (allocates the boxed
///   abort slice) + `HashMap<StateKey, u32>` SipHash lookup vs
///   [`GuidedModel::id_of_parts`] over the borrowed scratch window.
fn component_micro() {
    // A model rich enough that the classify queries below hit real
    // states: solo commits plus two-abort windows for every pair.
    let ab = vec![
        Pair::new(TxnId(0), ThreadId(1)),
        Pair::new(TxnId(1), ThreadId(2)),
    ];
    let mut run = Vec::new();
    for round in 0..8u16 {
        for t in 0..8u16 {
            let commit = Pair::new(TxnId(t % 4), ThreadId(t));
            run.push(if (round + t) % 2 == 0 {
                StateKey::solo(commit)
            } else {
                StateKey::new(ab.clone(), commit)
            });
        }
    }
    let model = GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::default());
    let tsa = model.tsa();
    let states: Vec<StateKey> = tsa.states().to_vec();
    // Replicas of the seed's per-state HashSet membership and
    // StateKey-keyed index.
    let legacy_allowed: Vec<HashSet<u32>> = tsa
        .state_ids()
        .map(|id| {
            model
                .kept_destinations(id)
                .iter()
                .flat_map(|&d| tsa.state(d).pairs())
                .map(Pair::packed)
                .collect()
        })
        .collect();
    let legacy_index: HashMap<StateKey, u32> = states
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u32))
        .collect();
    let queries: Vec<Pair> = (0..64u16)
        .map(|i| Pair::new(TxnId(i % 5), ThreadId(i % 9)))
        .collect();
    let state_ids: Vec<gstm_core::StateId> = tsa.state_ids().collect();

    const REPS: usize = 2_000_000;
    let time = |f: &mut dyn FnMut(usize) -> usize| -> f64 {
        let start = Instant::now();
        let mut acc = 0usize;
        for i in 0..REPS {
            acc = acc.wrapping_add(f(i));
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64 / REPS as f64
    };

    let gate_legacy = time(&mut |i| {
        let s = &legacy_allowed[i % legacy_allowed.len()];
        s.contains(&queries[i % queries.len()].packed()) as usize
    });
    let gate_bitmap = time(&mut |i| {
        model.is_allowed(state_ids[i % state_ids.len()], queries[i % queries.len()]) as usize
    });

    // Classify a two-abort window, the shape a contended commit drains.
    let scratch: Vec<Pair> = {
        let mut v = ab.clone();
        v.sort_unstable();
        v
    };
    let commits: Vec<Pair> = states.iter().map(StateKey::commit).collect();
    let classify_legacy = time(&mut |i| {
        let key = StateKey::new(scratch.clone(), commits[i % commits.len()]);
        legacy_index.get(&key).copied().unwrap_or(0) as usize
    });
    let classify_parts = time(&mut |i| {
        tsa.id_of_parts(&scratch, commits[i % commits.len()])
            .map(|s| s.0)
            .unwrap_or(0) as usize
    });

    println!("\ncomponent micro (ns/op, single thread):");
    println!(
        "gate membership   legacy(HashSet) {gate_legacy:>7.2}  bitmap {gate_bitmap:>7.2}  ({:.1}x)",
        gate_legacy / gate_bitmap
    );
    println!(
        "commit classify   legacy(alloc+SipHash) {classify_legacy:>7.2}  parts(FNV) {classify_parts:>7.2}  ({:.1}x)",
        classify_legacy / classify_parts
    );
}

const COMMITS: usize = 200_000;

/// Best-of-`n` ns/window for a fresh hook per repetition.
fn best_of(n: usize, threads: u16, mk: &dyn Fn() -> Setup) -> f64 {
    (0..n)
        .map(|_| {
            let (instruments, rig) = mk();
            let ns = drive(instruments, threads, COMMITS);
            drop(rig);
            ns
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median-of-`n` ns/window — the `--check` aggregator. An oversubscribed
/// single-core host throws low *and* high outliers; the median tracks the
/// typical window where a minimum chases lucky scheduling.
fn median_of(n: usize, threads: u16, mk: &dyn Fn() -> Setup) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let (instruments, rig) = mk();
            let ns = drive(instruments, threads, COMMITS);
            drop(rig);
            ns
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[n / 2]
}

/// `--check [baseline]`: recompute the telemetry-disabled guided
/// overhead and fail (exit 1) only when a thread count regressed against
/// the baseline on *both* signals: the guided/legacy ratio AND the
/// absolute guided ns/window. The normalization anchor is the in-example
/// [`LegacyRecorder`] replica — frozen code that no crate change can
/// touch, with the same workload shape as the guided window (locks,
/// hashing, ~couple hundred ns), measured seconds apart in the same
/// process, so a host-load burst or a slow runner inflates numerator and
/// denominator together and cancels out of the ratio. (An earlier
/// revision normalized by the 1-thread noop window; a 7 ns empty loop
/// responds to host load completely differently than a 190 ns
/// lock-and-hash window, so that ratio swung ±25% on shared runners.)
/// Either signal alone is still jittery — scheduling can land on the
/// legacy window alone and deflate the ratio's denominator — so only
/// both regressing fails the gate; a genuine hot-path regression moves
/// both.
fn run_check(baseline_path: &str) -> ! {
    let body = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("hook_overhead --check: cannot read {baseline_path}: {e}");
        std::process::exit(2);
    });
    let mut base: HashMap<String, f64> = HashMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        if let (Some(k), Some(v)) = (it.next(), it.next()) {
            if let Ok(v) = v.parse() {
                base.insert(k.to_string(), v);
            }
        }
    }
    let get = |k: &str| -> f64 {
        *base.get(k).unwrap_or_else(|| {
            eprintln!("hook_overhead --check: baseline {baseline_path} lacks key {k}");
            std::process::exit(2);
        })
    };
    // 5% by default: the guided/legacy anchor cancels host speed, but
    // single-core scheduling still jitters the ratio a few percent.
    // HOOK_CHECK_TOLERANCE overrides for runner classes with known
    // jitter.
    let tolerance: f64 = std::env::var("HOOK_CHECK_TOLERANCE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.05);
    const MAX_ROUNDS: usize = 10;
    let mut failed = false;
    for threads in [1u16, 8] {
        let model = harness_model(threads);
        let base_guided = get(&format!("guided_{threads}t"));
        let base_legacy = get(&format!("legacy_{threads}t"));
        let base_ratio = base_guided / base_legacy;
        let ratio_limit = base_ratio * tolerance;
        let abs_limit = base_guided * tolerance;
        // Rounds measure an independent legacy/guided pair each; any
        // round clearing either limit passes. A host-load burst inflates
        // some rounds and a quiet one clears them, while a genuine
        // hot-path regression inflates every round on both signals. A
        // failing round backs off with a growing sleep so a multi-second
        // burst doesn't blanket all rounds back-to-back.
        let (mut ratio, mut legacy, mut guided) = (f64::INFINITY, 0.0, f64::INFINITY);
        for round in 0..MAX_ROUNDS {
            let l = median_of(3, threads, &|| bare(Arc::new(LegacyRecorder::default())));
            let g = median_of(3, threads, &|| bare(guided_hook(&model)));
            if g / l < ratio {
                (ratio, legacy) = (g / l, l);
            }
            guided = guided.min(g);
            if ratio <= ratio_limit || guided <= abs_limit {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100 * (round as u64 + 1)));
        }
        let verdict = if ratio <= ratio_limit || guided <= abs_limit {
            "PASS"
        } else {
            failed = true;
            "FAIL"
        };
        println!(
            "{verdict} {threads}t: guided/legacy ratio {ratio:.3} vs baseline {base_ratio:.3} \
             (limit {ratio_limit:.3}) and guided {guided:.1} ns vs baseline {base_guided:.1} ns \
             (limit {abs_limit:.1}; legacy {legacy:.1} ns) — fails only when both regress",
        );
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let default = "crates/core/examples/hook_overhead_baseline.txt".to_string();
        run_check(args.get(1).unwrap_or(&default));
    }
    let thread_counts: Vec<u16> = {
        let parsed: Vec<u16> = args.iter().filter_map(|a| a.parse().ok()).collect();
        if parsed.is_empty() {
            vec![1, 8]
        } else {
            parsed
        }
    };
    println!(
        "hook_overhead: ns/commit-window (gate + {ABORTS_PER_COMMIT} aborts + commit), \
         {COMMITS} commits/thread"
    );
    println!("{:<12} {:>8} {:>12} {:>10}", "hook", "threads", "ns/commit", "vs legacy");
    for &threads in &thread_counts {
        // Warmup + measure; take the best of 3 to damp scheduler noise.
        let mut rows: Vec<(&str, f64)> = Vec::new();
        let best = |mk: &dyn Fn() -> Setup| -> f64 { best_of(3, threads, mk) };
        let legacy = best(&|| bare(Arc::new(LegacyRecorder::default())));
        rows.push(("noop", best(&|| bare(Arc::new(NoopHook)))));
        rows.push(("legacy", legacy));
        rows.push(("sharded", best(&|| bare(Arc::new(RecorderHook::new())))));
        let model = harness_model(threads);
        rows.push(("guided", best(&|| bare(guided_hook(&model)))));
        // Conflict-provenance enabled: the same telemetry-disabled window
        // plus one `ContentionTracker::record` per abort (sketch hit +
        // matrix bump). A/B partner: the plain `guided` row above, which
        // executes the bundle's `Option` branch with no tracker.
        rows.push((
            "guided+ctn",
            best(&|| {
                let tracker = Some(Arc::new(ContentionTracker::new()));
                let instruments = Instruments::new(guided_hook(&model), None, None, tracker);
                (instruments, None)
            }),
        ));
        // Drift-enabled mode: per-commit observed-transition recording
        // (one state swap + binary search + relaxed add), no telemetry.
        rows.push((
            "guided+drift",
            best(&|| {
                let drift = Arc::new(DriftTracker::new(&model));
                bare(Arc::new(GuidedHook::with_robustness(
                    Arc::clone(&model),
                    GuidanceConfig::default(),
                    None,
                    Some(drift),
                    None,
                    None,
                )))
            }),
        ));
        // Adaptive mode, quiescent: the epoch cell resolves on every
        // gate/commit, the sliding window records every commit, the
        // epoch's drift tracker sees every transition, and the guardian
        // polls in the background — but `min_transitions: u64::MAX` pins
        // the verdict at Insufficient so no regeneration ever fires.
        // A/B partner: guided+drift (same observer-path commit).
        rows.push((
            "guided+adapt",
            best(&|| {
                let adapt = AdaptConfig {
                    drift: DriftConfig {
                        min_transitions: u64::MAX,
                    },
                    ..AdaptConfig::default()
                };
                let hook =
                    GuidedHook::adaptive(Arc::clone(&model), GuidanceConfig::default(), adapt, None);
                bare(hook)
            }),
        ));
        // Enabled mode: counters + histograms + the bundle's timestamps
        // (counters_only keeps the trace ring out of the picture, matching
        // the steady-state harness configuration).
        rows.push((
            "guided+tel",
            best(&|| {
                let tel = Arc::new(Telemetry::counters_only());
                (telemetry_instruments(&model, tel), None)
            }),
        ));
        // Live ops plane on top of enabled-mode telemetry: a roller
        // thread snapshots the collector every 50 ms and an HTTP service
        // thread polls its listener — both entirely off the commit path,
        // which touches only the same relaxed counters as `guided+tel`.
        // A/B partner: `guided+tel`; the delta is the ops plane's whole
        // hot-path bill and must be noise.
        rows.push((
            "guided+ops",
            best(&|| {
                let tel = Arc::new(Telemetry::counters_only());
                let plane = Arc::new(OpsPlane::new(
                    SloSpec::parse("window-ms=50").expect("static spec"),
                ));
                plane.attach(&tel);
                let roller =
                    ops::start_roller(Arc::clone(&plane), std::time::Duration::from_millis(50));
                let server = ops::serve(Arc::clone(&plane), "127.0.0.1:0").ok();
                let rig = OpsRig {
                    _plane: plane,
                    _roller: roller,
                    _server: server,
                };
                (telemetry_instruments(&model, tel), Some(rig))
            }),
        ));
        for (name, ns) in rows {
            println!("{name:<12} {threads:>8} {ns:>12.1} {:>9.2}x", legacy / ns);
        }
    }
    component_micro();
}
