//! The profile → model → analyze → measure pipeline for one STAMP
//! benchmark (the paper's Section II-C framework).

use gstm_core::prelude::*;
use gstm_core::{analyzer, metrics};
use gstm_stamp::{Benchmark, InputSize, RunConfig};
use gstm_tl2::{StmBuilder, StmConfig};
use std::sync::Arc;

/// Parameters of one benchmark experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Worker threads (the paper evaluates 8 and 16).
    pub threads: u16,
    /// Profiling runs used to train the model (paper: 20).
    pub profile_runs: usize,
    /// Measurement runs per mode (paper: 20).
    pub measure_runs: usize,
    /// Input preset for profiling (the paper trains on medium).
    pub train_size: InputSize,
    /// Input preset for measurement (the artifact tests on small by
    /// default).
    pub test_size: InputSize,
    /// Interleave injection exponent (see
    /// [`gstm_tl2::StmConfig::yield_prob_log2`]); `Some(2)` reproduces
    /// dense interleaving on a host with fewer cores than threads.
    pub yield_k: Option<u32>,
    /// Guidance tunables (Tfactor etc.).
    pub guidance: GuidanceConfig,
    /// Input seed.
    pub seed: u64,
    /// Online model regeneration for the guided phase: `Some(window)`
    /// gates through an adaptive hook whose [`ModelManager`] rebuilds
    /// the model from a `window`-state sliding window when the drift
    /// ladder reaches Drifting/Stale (the `--adaptive[=window]` flag);
    /// `None` keeps the offline fixed-model pipeline.
    pub adaptive: Option<usize>,
    /// Profile at a different thread count than measurement (the
    /// `--profile-threads` flag). Deliberately mismatching it trains a
    /// stale model — the drift/adaptation demo scenario.
    pub profile_threads: Option<u16>,
}

impl ExperimentConfig {
    /// A scaled-down default suitable for this reproduction's host.
    pub fn quick(threads: u16) -> Self {
        ExperimentConfig {
            threads,
            profile_runs: 6,
            measure_runs: 8,
            train_size: InputSize::Small,
            test_size: InputSize::Small,
            yield_k: Some(2),
            guidance: GuidanceConfig::default(),
            seed: 0x5eed_cafe,
            adaptive: None,
            profile_threads: None,
        }
    }
}

/// Chaos-campaign plumbing for one experiment (the `--chaos` /
/// `--breaker` flags): a deterministic fault plan armed during the
/// *guided* measurement phase — profiling and the default baseline stay
/// clean so the model is trained honestly and the comparison remains
/// valid — and the guidance circuit breaker that degrades gating to
/// fail-open unguided execution when the model misbehaves under fire.
#[derive(Clone, Default)]
pub struct Robustness {
    /// Deterministic fault plan (`--chaos=SEED[:PLAN]`); `None` = no
    /// injection.
    pub faults: Option<Arc<FaultPlan>>,
    /// Arm one circuit breaker per guided run (`--breaker`).
    pub breaker: bool,
}

/// A measurement repetition that panicked instead of completing.
#[derive(Clone, Debug)]
pub struct RepFailure {
    /// Index in the phase's attempt sequence (0-based, counting failed
    /// and successful repetitions alike).
    pub rep: usize,
    /// The panic payload, rendered as a string.
    pub cause: String,
}

/// Measurements of one execution mode (default or guided) across runs.
#[derive(Clone, Debug, Default)]
pub struct ModeMeasurement {
    /// `[run][thread]` execution time of each thread function, seconds.
    pub per_thread_times: Vec<Vec<f64>>,
    /// Per-thread abort histograms, merged across runs.
    pub per_thread_hists: Vec<AbortHistogram>,
    /// `[run][thread]` abort histograms before merging — the per-run
    /// commit/abort accounting `gstm-analyze` cross-checks against.
    pub per_run_hists: Vec<Vec<AbortHistogram>>,
    /// Wall-clock time of each run.
    pub wall_secs: Vec<f64>,
    /// Number of distinct thread transactional states observed across all
    /// runs — the paper's non-determinism measure.
    pub non_determinism: usize,
    /// Repetitions that panicked. Every other vector here covers only the
    /// successful repetitions, so a chaos campaign with casualties still
    /// yields a well-formed (if smaller) sample.
    pub failed: Vec<RepFailure>,
}

impl ModeMeasurement {
    /// Attempt indices of the successful repetitions, in order: run `r`
    /// of every per-run vector here is attempt `ok_reps().nth(r)`.
    pub fn ok_reps(&self) -> impl Iterator<Item = usize> + '_ {
        let attempts = self.per_run_hists.len() + self.failed.len();
        (0..attempts).filter(|&rep| self.failed.iter().all(|f| f.rep != rep))
    }

    /// Per-thread standard deviation of execution time over runs.
    pub fn per_thread_std_dev(&self) -> Vec<f64> {
        let threads = self
            .per_thread_times
            .first()
            .map(Vec::len)
            .unwrap_or(0);
        (0..threads)
            .map(|t| {
                let series: Vec<f64> =
                    self.per_thread_times.iter().map(|run| run[t]).collect();
                metrics::std_dev(&series)
            })
            .collect()
    }

    /// Mean wall-clock time over runs.
    pub fn mean_wall(&self) -> f64 {
        metrics::mean(&self.wall_secs)
    }

    /// Per-thread abort-tail metrics.
    pub fn per_thread_tails(&self) -> Vec<u64> {
        self.per_thread_hists
            .iter()
            .map(AbortHistogram::tail_metric)
            .collect()
    }

    /// Total aborts across threads and runs.
    pub fn total_aborts(&self) -> u64 {
        self.per_thread_hists
            .iter()
            .map(AbortHistogram::total_aborts)
            .sum()
    }

    /// Total commits across threads and runs.
    pub fn total_commits(&self) -> u64 {
        self.per_thread_hists
            .iter()
            .map(AbortHistogram::total_commits)
            .sum()
    }
}

/// Everything the pipeline produced for one benchmark at one thread count.
#[derive(Clone, Debug)]
pub struct BenchExperiment {
    /// Benchmark name.
    pub name: &'static str,
    /// Worker threads.
    pub threads: u16,
    /// Number of states in the trained model (Table III).
    pub model_states: usize,
    /// Size of the model in the compact on-disk encoding, in bytes (the
    /// paper quotes ~118 KB at 8 threads, ~1.3 MB at 16).
    pub model_bytes: usize,
    /// The analyzer's report on the trained model (Table I).
    pub analyzer: AnalyzerReport,
    /// Default (unguided) measurements.
    pub default_m: ModeMeasurement,
    /// Guided measurements.
    pub guided_m: ModeMeasurement,
    /// Gate behaviour during the successful guided runs.
    pub gate: gstm_core::guidance::GateStats,
    /// Guided-model hot-swaps across the successful guided runs (0 unless the
    /// experiment ran with [`ExperimentConfig::adaptive`]).
    pub model_swaps: u64,
    /// Whether the round-tripped model file was rejected at load (the
    /// chaos corrupt-model site fired and the integrity header caught
    /// it), starting the guided phase fail-open.
    pub model_rejected: bool,
    /// Breaker trips (Closed/Half-Open → Open) summed over successful
    /// guided runs.
    pub breaker_trips: u64,
    /// Breaker re-closes (Half-Open → Closed) summed over successful
    /// guided runs.
    pub breaker_recloses: u64,
}

impl BenchExperiment {
    /// Per-thread percentage improvement in execution-time standard
    /// deviation, guided over default (Figures 4/6; negative =
    /// degradation, as for ssca2 in Figure 8).
    pub fn variance_improvement_pct(&self) -> Vec<f64> {
        self.default_m
            .per_thread_std_dev()
            .iter()
            .zip(self.guided_m.per_thread_std_dev())
            .map(|(&d, g)| metrics::pct_improvement(d, g))
            .collect()
    }

    /// Average percentage improvement of the abort-tail metric across
    /// threads (Table IV).
    pub fn tail_improvement_pct(&self) -> f64 {
        let d = self.default_m.per_thread_tails();
        let g = self.guided_m.per_thread_tails();
        let per: Vec<f64> = d
            .iter()
            .zip(&g)
            .map(|(&d, &g)| metrics::pct_improvement(d as f64, g as f64))
            .collect();
        metrics::mean(&per)
    }

    /// Percentage reduction in non-determinism (Figure 9).
    pub fn nondeterminism_reduction_pct(&self) -> f64 {
        metrics::pct_improvement(
            self.default_m.non_determinism as f64,
            self.guided_m.non_determinism as f64,
        )
    }

    /// Slowdown (×) of guided over default (Figure 10).
    pub fn slowdown(&self) -> f64 {
        metrics::slowdown(self.default_m.mean_wall(), self.guided_m.mean_wall())
    }
}

fn stm_config(cfg: &ExperimentConfig) -> StmConfig {
    StmConfig {
        yield_prob_log2: cfg.yield_k,
        ..StmConfig::default()
    }
}

/// Render a `catch_unwind` payload for the failures record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// What the runs of one measured phase execute under.
struct Phase {
    runs: usize,
    size: InputSize,
    faults: Option<Arc<FaultPlan>>,
}

impl Phase {
    /// Profiling: the training input, fault-free.
    fn training(cfg: &ExperimentConfig) -> Self {
        Phase {
            runs: cfg.profile_runs,
            size: cfg.train_size,
            faults: None,
        }
    }
}

/// Run `phase.runs` measured executions, collecting timings, histograms,
/// and recorded state sequences. `hook_for_run(rep)` supplies the guidance
/// hook and `telemetry_for_run(rep)` the (optional) telemetry collector
/// for attempt `rep` — a constant closure shares one instance across
/// runs; per-attempt instances give each run its own artifacts, and keep
/// a casualty's partial trace and states out of the next run's (compact
/// the successes with [`ModeMeasurement::ok_reps`]).
fn measure<H: GuidanceHook + 'static>(
    bench: &dyn Benchmark,
    cfg: &ExperimentConfig,
    phase: &Phase,
    hook_for_run: impl Fn(usize) -> Arc<H>,
    telemetry_for_run: impl Fn(usize) -> Option<Arc<Telemetry>>,
    take_run: impl Fn(&H) -> Vec<StateKey>,
) -> (ModeMeasurement, Vec<Vec<StateKey>>) {
    let mut m = ModeMeasurement {
        per_thread_hists: vec![AbortHistogram::new(); cfg.threads as usize],
        ..Default::default()
    };
    let mut recorded = Vec::new();
    for rep in 0..phase.runs {
        let hook = hook_for_run(rep);
        let tel = telemetry_for_run(rep);
        // Each telemetry-collected run gets its own contention tracker,
        // so the per-run snapshot's attribution partitions exactly
        // against that run's abort counters; uncollected runs pay only
        // the disabled-path branch.
        let contention = tel.as_ref().map(|_| Arc::new(ContentionTracker::new()));
        let stm = StmBuilder::new(stm_config(cfg))
            .hook(hook.clone())
            .telemetry(tel.clone())
            .faults(phase.faults.clone())
            .contention(contention.clone())
            .build();
        let run_cfg = RunConfig {
            threads: cfg.threads,
            size: phase.size,
            // Identical input every run: variation comes from scheduling.
            seed: cfg.seed,
        };
        let result = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bench.run(&stm, &run_cfg)
        })) {
            Ok(r) => r,
            Err(payload) => {
                // Campaign resilience: one poisoned repetition must not
                // void the rest. Record it with its cause and drain the
                // hook so a partial state sequence cannot leak into the
                // next repetition's non-determinism accounting.
                let _ = take_run(&hook);
                m.failed.push(RepFailure {
                    rep,
                    cause: panic_message(payload.as_ref()),
                });
                continue;
            }
        };
        m.per_thread_times.push(result.per_thread_secs.clone());
        m.wall_secs.push(result.wall_secs);
        let mut run_hists = vec![AbortHistogram::new(); cfg.threads as usize];
        for (t, stats) in result.per_thread_stats.iter().enumerate() {
            m.per_thread_hists[t].merge(&stats.abort_hist);
            run_hists[t].merge(&stats.abort_hist);
        }
        m.per_run_hists.push(run_hists);
        recorded.push(take_run(&hook));
        if let (Some(tel), Some(ct)) = (&tel, &contention) {
            tel.set_contention(ct.snapshot());
        }
    }
    m.non_determinism = metrics::non_determinism(&recorded);
    (m, recorded)
}

/// Profile a benchmark: record `cfg.profile_runs` fault-free runs of the
/// training input (the artifact's `mcmc_data` option) into the automaton
/// its guided model is built from. `profile_threads` lets the model be
/// trained at a different thread count than it is asked to guide — the
/// canonical way to hand the guided phase a stale model (drift_demo /
/// the adapt-smoke CI job).
fn profile(bench: &dyn Benchmark, cfg: &ExperimentConfig) -> Tsa {
    let profile_cfg = ExperimentConfig {
        threads: cfg.profile_threads.unwrap_or(cfg.threads),
        ..*cfg
    };
    let recorder = Arc::new(RecorderHook::new());
    let (_, train_runs) = measure(
        bench,
        &profile_cfg,
        &Phase::training(cfg),
        |_| recorder.clone(),
        |_| None,
        |h| h.take_run(),
    );
    Tsa::from_runs(&train_runs)
}

/// Profile a benchmark and build its guided model without measuring —
/// used by `gstm-repro inspect` for model exploration.
pub fn train_model(bench: &dyn Benchmark, cfg: &ExperimentConfig) -> GuidedModel {
    GuidedModel::build(profile(bench, cfg), &cfg.guidance)
}

/// Run the full pipeline for one benchmark at one thread count.
pub fn run_experiment(bench: &dyn Benchmark, cfg: &ExperimentConfig) -> BenchExperiment {
    run_experiment_chaos(bench, cfg, |_| None, &Robustness::default())
}

/// [`run_experiment`] with a telemetry collector *per guided run*, under
/// an optional chaos campaign.
///
/// `telemetry_for_run(rep)` supplies the collector for guided attempt
/// `rep` (return a clone of one `Arc` to share it across runs, or
/// distinct instances so every run exports its own artifacts — what
/// `--telemetry` does). A repetition that panics leaves its collector
/// behind: the next attempt gets the next collector, and
/// [`ModeMeasurement::ok_reps`] maps successful runs to them. Scoping
/// telemetry to the guided phase makes each snapshot directly checkable
/// against the harness's own per-thread statistics.
/// When any run is collected, a fixed-model campaign feeds one
/// [`DriftTracker`] over the freshly trained model from every guided
/// run's hook and attaches it to every collector, so each exported
/// snapshot carries the cumulative [`gstm_core::drift::ModelDrift`]
/// report up to that run.
///
/// Under chaos the fault plan is armed for the guided measurement phase
/// (the trained model and the default baseline stay clean), the model is
/// round-tripped through its on-disk encoding with the corrupt-model site
/// given a shot at the bytes, and — when requested or when the model file
/// was rejected — every guided run gates through its own circuit breaker,
/// attached to that run's telemetry collector so each exported snapshot
/// carries its own trip/re-close history.
pub fn run_experiment_chaos(
    bench: &dyn Benchmark,
    cfg: &ExperimentConfig,
    telemetry_for_run: impl Fn(usize) -> Option<Arc<Telemetry>>,
    robust: &Robustness,
) -> BenchExperiment {
    // ---- Phases 1-2: profile, then model generation + analysis ----
    let tsa = profile(bench, cfg);
    let model_states = tsa.num_states();
    // Round-trip the model through its on-disk encoding exactly as a
    // load from disk would see it, letting the chaos plan's corrupt-model
    // site tamper with the bytes in between. The integrity header must
    // then reject the file at decode; the campaign proceeds on the
    // in-memory model with every guided run's breaker pre-tripped
    // (fail-open), which half-open probes can later re-close — the
    // degradation ladder, never a panic.
    let mut encoded = gstm_core::model_io::encode(&tsa);
    let model_bytes = encoded.len();
    let mut model_rejected = false;
    if let Some(mode) = robust.faults.as_ref().and_then(|f| f.corrupt_model(&mut encoded)) {
        if gstm_core::model_io::decode(&encoded).is_err() {
            eprintln!("[harness] model file rejected at load (chaos corruption: {mode})");
            model_rejected = true;
        }
    }
    let model = Arc::new(GuidedModel::build(tsa, &cfg.guidance));
    let analyzer_report = analyzer::analyze_with(&model, &cfg.guidance);

    // ---- Phase 3: default measurement (`default` + `ND_only`) ----
    // The recorder stays installed so default and guided runs carry the
    // same instrumentation overhead and both yield state sequences for
    // the non-determinism comparison.
    let default_rec = Arc::new(RecorderHook::new());
    let mut phase = Phase {
        runs: cfg.measure_runs,
        size: cfg.test_size,
        faults: None,
    };
    let (default_m, _) = measure(
        bench,
        cfg,
        &phase,
        |_| default_rec.clone(),
        |_| None,
        |h| h.take_run(),
    );

    // ---- Phase 4: guided measurement (`model` + `ND_mcmc`) ----
    // One hook per attempt, so each binds its own collector and a
    // casualty's hook is never reused. Drift accumulates across runs in
    // one shared tracker.
    let tels: Vec<Option<Arc<Telemetry>>> =
        (0..cfg.measure_runs).map(&telemetry_for_run).collect();
    // Fixed-model observability shares one drift tracker across runs;
    // adaptive hooks instead carry a tracker per model epoch (the
    // manager re-attaches the live epoch's tracker to telemetry at
    // every swap).
    let drift = (cfg.adaptive.is_none() && tels.iter().any(Option::is_some))
        .then(|| Arc::new(DriftTracker::new(&model)));
    // One breaker per guided run (paired with that run's collector). A
    // model-file rejection arms breakers even without `--breaker` and
    // trips each one before its run starts: the run opens fail-open and
    // re-admits guidance only via half-open probes.
    let breakers: Vec<Option<Arc<Breaker>>> = tels
        .iter()
        .map(|tel| {
            (robust.breaker || model_rejected).then(|| {
                let b = Arc::new(Breaker::new(BreakerConfig::default(), tel.clone()));
                if model_rejected {
                    b.reject_model();
                }
                b
            })
        })
        .collect();
    let guided_hooks: Vec<Arc<GuidedHook>> = tels
        .iter()
        .zip(&breakers)
        .map(|(tel, breaker)| match cfg.adaptive {
            Some(window) => GuidedHook::adaptive_with_robustness(
                model.clone(),
                cfg.guidance,
                AdaptConfig::with_window(window),
                tel.clone(),
                breaker.clone(),
                robust.faults.clone(),
            ),
            None => {
                if let (Some(t), Some(d)) = (tel, &drift) {
                    t.attach_drift(d.clone());
                }
                Arc::new(GuidedHook::with_robustness(
                    model.clone(),
                    cfg.guidance,
                    tel.clone(),
                    drift.clone(),
                    breaker.clone(),
                    robust.faults.clone(),
                ))
            }
        })
        .collect();
    phase.faults = robust.faults.clone();
    let (guided_m, _) = measure(
        bench,
        cfg,
        &phase,
        |r| guided_hooks[r].clone(),
        |r| tels[r].clone(),
        |h| h.take_run(),
    );
    for hook in &guided_hooks {
        if let Some(mgr) = hook.manager() {
            // Join the guardian before reading the final swap count so
            // no regeneration lands after the experiment is reported.
            mgr.stop();
        }
    }
    // Gate outcomes, swaps and breaker transitions cover the reported
    // runs only, like every other guided measurement.
    let mut gate = gstm_core::guidance::GateStats::default();
    let mut model_swaps = 0u64;
    let (mut breaker_trips, mut breaker_recloses) = (0u64, 0u64);
    for rep in guided_m.ok_reps() {
        let hook = &guided_hooks[rep];
        gate.merge(&hook.stats());
        model_swaps += hook.manager().map_or(0, |mgr| mgr.swaps());
        if let Some(b) = &breakers[rep] {
            breaker_trips += b.trips();
            breaker_recloses += b.recloses();
        }
    }

    BenchExperiment {
        name: bench.name(),
        threads: cfg.threads,
        model_states,
        model_bytes,
        analyzer: analyzer_report,
        default_m,
        guided_m,
        gate,
        model_swaps,
        model_rejected,
        breaker_trips,
        breaker_recloses,
    }
}

/// Mean and sample standard deviation of a derived metric across
/// repeated campaigns.
#[derive(Clone, Copy, Debug)]
pub struct MeanSd {
    /// Mean over repeats.
    pub mean: f64,
    /// Sample standard deviation over repeats.
    pub sd: f64,
}

impl MeanSd {
    fn of(xs: &[f64]) -> Self {
        MeanSd {
            mean: metrics::mean(xs),
            sd: metrics::std_dev(xs),
        }
    }
}

impl std::fmt::Display for MeanSd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} ± {:.1}", self.mean, self.sd)
    }
}

/// Derived metrics aggregated over repeated pipelines — the antidote to
/// single-campaign sampling noise on this reproduction's host (see
/// EXPERIMENTS.md's reading guide).
#[derive(Clone, Debug)]
pub struct AggregatedExperiment {
    /// Benchmark name.
    pub name: &'static str,
    /// Worker threads.
    pub threads: u16,
    /// How many full pipelines were run.
    pub repeats: usize,
    /// Analyzer guidance metric %.
    pub metric_pct: MeanSd,
    /// Per-thread variance improvement %, averaged over threads then
    /// aggregated over repeats.
    pub var_improvement: MeanSd,
    /// Non-determinism reduction %.
    pub nd_reduction: MeanSd,
    /// Abort-tail improvement %.
    pub tail_improvement: MeanSd,
    /// Slowdown ×.
    pub slowdown: MeanSd,
}

/// Run the full pipeline `repeats` times and aggregate the derived
/// metrics. Each repeat retrains its own model (scheduling differs), so
/// the spread covers the whole pipeline, not just measurement.
pub fn run_repeated(
    bench: &dyn Benchmark,
    cfg: &ExperimentConfig,
    repeats: usize,
) -> AggregatedExperiment {
    let mut metric = Vec::new();
    let mut var = Vec::new();
    let mut nd = Vec::new();
    let mut tail = Vec::new();
    let mut slow = Vec::new();
    let mut name = "";
    for _ in 0..repeats.max(1) {
        let e = run_experiment(bench, cfg);
        name = e.name;
        metric.push(e.analyzer.guidance_metric_pct);
        var.push(metrics::mean(&e.variance_improvement_pct()));
        nd.push(e.nondeterminism_reduction_pct());
        tail.push(e.tail_improvement_pct());
        slow.push(e.slowdown());
    }
    AggregatedExperiment {
        name,
        threads: cfg.threads,
        repeats: repeats.max(1),
        metric_pct: MeanSd::of(&metric),
        var_improvement: MeanSd::of(&var),
        nd_reduction: MeanSd::of(&nd),
        tail_improvement: MeanSd::of(&tail),
        slowdown: MeanSd::of(&slow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstm_stamp::by_name;
    use gstm_tl2::Stm;

    fn tiny_cfg(threads: u16) -> ExperimentConfig {
        ExperimentConfig {
            threads,
            profile_runs: 2,
            measure_runs: 3,
            train_size: InputSize::Small,
            test_size: InputSize::Small,
            yield_k: Some(3),
            guidance: GuidanceConfig::default(),
            seed: 77,
            adaptive: None,
            profile_threads: None,
        }
    }

    #[test]
    fn pipeline_produces_complete_experiment() {
        let bench = by_name("kmeans").unwrap();
        let e = run_experiment(&*bench, &tiny_cfg(2));
        assert_eq!(e.name, "kmeans");
        assert!(e.model_states > 0, "profiling saw states");
        assert_eq!(e.default_m.per_thread_times.len(), 3);
        assert_eq!(e.default_m.per_thread_times[0].len(), 2);
        assert_eq!(e.guided_m.per_thread_times.len(), 3);
        assert!(e.default_m.non_determinism > 0);
        assert!(e.slowdown() > 0.0);
        assert_eq!(e.variance_improvement_pct().len(), 2);
    }

    #[test]
    fn repeated_aggregation_reports_spread() {
        let bench = by_name("ssca2").unwrap();
        let agg = run_repeated(&*bench, &tiny_cfg(2), 2);
        assert_eq!(agg.repeats, 2);
        assert_eq!(agg.name, "ssca2");
        assert!(agg.slowdown.mean > 0.0);
        assert!(agg.metric_pct.mean >= 0.0 && agg.metric_pct.mean <= 100.0);
        // Display renders mean ± sd.
        assert!(agg.slowdown.to_string().contains('±'));
    }

    #[test]
    fn telemetry_totals_match_harness_counts() {
        // The acceptance check behind `--telemetry`: the snapshot's
        // commit/abort totals must equal what the harness's own
        // per-thread statistics count for the guided phase.
        let bench = by_name("kmeans").unwrap();
        let tel = Arc::new(Telemetry::new());
        let e = run_experiment_chaos(
            &*bench,
            &tiny_cfg(2),
            |_| Some(tel.clone()),
            &Robustness::default(),
        );
        let snap = tel.snapshot();
        assert_eq!(snap.commits, e.guided_m.total_commits());
        assert_eq!(snap.aborts_total(), e.guided_m.total_aborts());
        assert!(snap.commit_ns.count == snap.commits);
        // Gate outcomes recorded by the hook partition the gate calls:
        // one gate call per attempt = commits + aborts.
        assert_eq!(snap.gate_total(), snap.commits + snap.aborts_total());
        let prom = snap.render_prometheus();
        assert!(prom.contains("gstm_commits_total"));
    }

    #[test]
    fn per_run_collectors_partition_guided_totals() {
        // Per-run telemetry (what `--telemetry` writes as run-stamped
        // artifacts): each run's snapshot must match the harness's own
        // accounting for that run, the per-run histograms must sum to
        // the merged ones, and every snapshot must carry a drift report.
        let bench = by_name("kmeans").unwrap();
        let cfg = tiny_cfg(2);
        let tels: Vec<Arc<Telemetry>> =
            (0..cfg.measure_runs).map(|_| Arc::new(Telemetry::new())).collect();
        let e = run_experiment_chaos(
            &*bench,
            &cfg,
            |r| tels.get(r).cloned(),
            &Robustness::default(),
        );
        assert_eq!(e.guided_m.per_run_hists.len(), cfg.measure_runs);
        let (mut commits, mut aborts) = (0u64, 0u64);
        for (r, tel) in tels.iter().enumerate() {
            let snap = tel.snapshot();
            let run_commits: u64 =
                e.guided_m.per_run_hists[r].iter().map(|h| h.total_commits()).sum();
            let run_aborts: u64 =
                e.guided_m.per_run_hists[r].iter().map(|h| h.total_aborts()).sum();
            assert_eq!(snap.commits, run_commits, "run {r} commits");
            assert_eq!(snap.aborts_total(), run_aborts, "run {r} aborts");
            assert_eq!(snap.gate_total(), snap.commits + snap.aborts_total());
            assert!(snap.model_drift.is_some(), "drift attached to run {r}");
            commits += snap.commits;
            aborts += snap.aborts_total();
        }
        assert_eq!(commits, e.guided_m.total_commits());
        assert_eq!(aborts, e.guided_m.total_aborts());
        // The drift tracker is shared: the last run's report covers all
        // guided transitions (one per commit).
        let d = tels.last().unwrap().snapshot().model_drift.unwrap();
        assert_eq!(d.transitions_total(), commits);
    }

    #[test]
    fn adaptive_pipeline_completes_and_reports_swaps() {
        // The guided phase runs through an adaptive hook (guardian
        // polling in the background); whether a swap actually fires
        // depends on drift, so the invariants here are structural: the
        // pipeline completes, totals still partition, and the swap count
        // agrees with what telemetry recorded.
        let bench = by_name("kmeans").unwrap();
        let cfg = ExperimentConfig {
            adaptive: Some(512),
            // Train at 1 thread, measure at 2: a deliberately stale
            // model, so drift has something to find.
            profile_threads: Some(1),
            ..tiny_cfg(2)
        };
        let tel = Arc::new(Telemetry::counters_only());
        let e = run_experiment_chaos(&*bench, &cfg, |_| Some(tel.clone()), &Robustness::default());
        assert_eq!(e.guided_m.per_thread_times.len(), 3);
        let snap = tel.snapshot();
        assert_eq!(snap.commits, e.guided_m.total_commits());
        assert_eq!(snap.gate_total(), snap.commits + snap.aborts_total());
        assert_eq!(snap.model_swaps, e.model_swaps, "harness and telemetry agree");
        assert!(snap.model_drift.is_some(), "live epoch's tracker attached");
        // Fixed-model experiments never swap.
        let fixed = run_experiment(&*bench, &tiny_cfg(2));
        assert_eq!(fixed.model_swaps, 0);
    }

    #[test]
    fn profile_threads_trains_at_the_requested_width() {
        // Profiling at 1 thread yields solo-commit states only from one
        // thread id; the model must reflect that narrower state space
        // compared to profiling at the measurement width.
        let bench = by_name("kmeans").unwrap();
        let narrow = train_model(
            &*bench,
            &ExperimentConfig { profile_threads: Some(1), ..tiny_cfg(2) },
        );
        let wide = train_model(&*bench, &tiny_cfg(2));
        assert!(narrow.num_states() >= 1);
        assert!(
            narrow.num_states() <= wide.num_states(),
            "1-thread profile ({}) cannot see more states than 2-thread ({})",
            narrow.num_states(),
            wide.num_states()
        );
    }

    #[test]
    fn chaos_campaign_rejects_model_and_completes_fail_open() {
        // corrupt-model fires at permille 1000: the round-tripped model
        // file must be rejected at load, every guided run's breaker
        // starts tripped (fail-open), forced aborts ride the ordinary
        // rollback path, and the campaign still completes with a
        // well-formed experiment.
        let bench = by_name("kmeans").unwrap();
        let faults =
            Arc::new(FaultPlan::parse_spec("42:forced-aborts+corrupt-model").unwrap());
        let robust = Robustness {
            faults: Some(faults.clone()),
            breaker: true,
        };
        let cfg = tiny_cfg(2);
        let e = run_experiment_chaos(&*bench, &cfg, |_| None, &robust);
        assert!(e.model_rejected, "corruption at permille 1000 must reject");
        assert_eq!(faults.injected(FaultSite::ModelCorrupt), 1);
        assert!(
            faults.injected(FaultSite::Tl2Abort) > 0,
            "forced aborts fired during the guided phase"
        );
        assert!(
            e.breaker_trips >= cfg.measure_runs as u64,
            "each guided run's breaker starts tripped on model rejection"
        );
        assert_eq!(
            e.guided_m.per_thread_times.len() + e.guided_m.failed.len(),
            cfg.measure_runs
        );
        assert!(e.default_m.failed.is_empty(), "baseline runs clean");
    }

    #[test]
    fn breaker_without_faults_stays_closed() {
        // A clean campaign with the breaker armed must behave like an
        // unarmed one: full-size samples, and the breaker never blames
        // the model. Two kmeans threads can still hit a real abort storm
        // or starve at the gate on a busy host; those execution-health
        // trips are by design, so every trip out of Closed must carry
        // one of their causes (a failed half-open probe can only follow
        // such a trip). Per-run traces record every transition's cause.
        let bench = by_name("kmeans").unwrap();
        let cfg = tiny_cfg(2);
        let robust = Robustness {
            faults: None,
            breaker: true,
        };
        let tels: Vec<Arc<Telemetry>> = (0..cfg.measure_runs)
            .map(|_| Arc::new(Telemetry::with_trace_capacity(1 << 16)))
            .collect();
        let e = run_experiment_chaos(&*bench, &cfg, |r| tels.get(r).cloned(), &robust);
        assert!(!e.model_rejected);
        assert_eq!(e.guided_m.per_thread_times.len(), 3);
        assert!(e.guided_m.failed.is_empty());
        let mut trips = 0u64;
        for tel in &tels {
            assert_eq!(tel.trace_dropped(), 0, "every transition retained");
            for ev in tel.trace_events() {
                if let TraceKind::Breaker { from, to, cause } = ev.kind {
                    if to != BreakerState::Open.code() {
                        continue;
                    }
                    trips += 1;
                    assert!(
                        from != BreakerState::Closed.code()
                            || cause == BreakerCause::AbortStorm.code()
                            || cause == BreakerCause::Starvation.code(),
                        "no faults, no model-health trip: {}",
                        BreakerCause::label_for(cause)
                    );
                }
            }
        }
        assert_eq!(trips, e.breaker_trips, "traces cover every trip");
    }

    /// Wraps a real benchmark and panics on chosen global call indices —
    /// the campaign-resilience fixture.
    struct Flaky {
        inner: Arc<dyn Benchmark>,
        calls: std::sync::atomic::AtomicUsize,
        panic_on: Vec<usize>,
        /// Panic after running the benchmark instead of before it, so the
        /// casualty leaves a full run of commits behind.
        late: bool,
    }

    impl Benchmark for Flaky {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn num_txn_sites(&self) -> u16 {
            self.inner.num_txn_sites()
        }
        fn run(&self, stm: &Arc<Stm>, cfg: &RunConfig) -> gstm_stamp::BenchResult {
            let n = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            assert!(self.late || !self.panic_on.contains(&n), "synthetic rep failure");
            let result = self.inner.run(stm, cfg);
            assert!(!self.panic_on.contains(&n), "synthetic rep failure");
            result
        }
    }

    #[test]
    fn panicking_rep_is_recorded_and_campaign_continues() {
        // tiny_cfg call layout: profile reps are calls 0-1, default reps
        // 2-4, guided reps 5-7. Kill guided rep 1 (call 6): the campaign
        // must finish with 2 successful guided reps and one recorded
        // casualty carrying the panic message.
        let flaky = Flaky {
            inner: by_name("kmeans").unwrap(),
            calls: std::sync::atomic::AtomicUsize::new(0),
            panic_on: vec![6],
            late: false,
        };
        let e = run_experiment(&flaky, &tiny_cfg(2));
        assert!(e.default_m.failed.is_empty());
        assert_eq!(e.guided_m.failed.len(), 1);
        assert_eq!(e.guided_m.failed[0].rep, 1);
        assert!(
            e.guided_m.failed[0].cause.contains("synthetic rep failure"),
            "cause must carry the panic message, got {:?}",
            e.guided_m.failed[0].cause
        );
        assert_eq!(e.guided_m.per_thread_times.len(), 2);
        assert_eq!(e.guided_m.per_run_hists.len(), 2);
        assert_eq!(e.guided_m.wall_secs.len(), 2);
        assert_eq!(e.guided_m.ok_reps().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn run_after_a_casualty_traces_only_its_own_commits() {
        // Guided rep 1 (call 6) runs kmeans to the end and then panics,
        // so its collector holds a whole run of commits and states. The
        // next run gets a fresh hook and collector: its trace holds one
        // traced state per commit the harness counted for that run.
        let flaky = Flaky {
            inner: by_name("kmeans").unwrap(),
            calls: std::sync::atomic::AtomicUsize::new(0),
            panic_on: vec![6],
            late: true,
        };
        let cfg = tiny_cfg(2);
        let tels: Vec<Arc<Telemetry>> = (0..cfg.measure_runs)
            .map(|_| Arc::new(Telemetry::with_trace_capacity(1 << 17)))
            .collect();
        let e = run_experiment_chaos(
            &flaky,
            &cfg,
            |r| tels.get(r).cloned(),
            &Robustness::default(),
        );
        assert_eq!(e.guided_m.ok_reps().collect::<Vec<_>>(), vec![0, 2]);
        let count = |tel: &Telemetry, state: bool| {
            tel.trace_events()
                .iter()
                .filter(|ev| match ev.kind {
                    TraceKind::State { .. } => state,
                    TraceKind::Commit { .. } => !state,
                    _ => false,
                })
                .count() as u64
        };
        assert!(count(&tels[1], true) > 0, "the casualty committed before it panicked");
        for (r, rep) in e.guided_m.ok_reps().enumerate() {
            let tel = &tels[rep];
            assert_eq!(tel.trace_dropped(), 0, "run {r}: the ring must hold the run");
            let commits: u64 =
                e.guided_m.per_run_hists[r].iter().map(|h| h.total_commits()).sum();
            assert_eq!(count(tel, false), commits, "run {r}: traced commits");
            assert_eq!(count(tel, true), commits, "run {r}: traced states");
        }
        let gate = e.gate.passed + e.gate.waited + e.gate.released;
        assert_eq!(gate, e.guided_m.total_commits() + e.guided_m.total_aborts());
    }

    #[test]
    fn contention_rides_telemetry_and_partitions_aborts() {
        // End-to-end observability contract behind `--telemetry`: every
        // collected guided run gets its own contention tracker, the
        // stamped snapshot's attribution partitions that run's abort
        // counter exactly, and the Prometheus export carries the
        // gstm_contention_* families.
        let bench = by_name("kmeans").unwrap();
        let cfg = tiny_cfg(2);
        let tels: Vec<Arc<Telemetry>> =
            (0..cfg.measure_runs).map(|_| Arc::new(Telemetry::counters_only())).collect();
        let e = run_experiment_chaos(
            &*bench,
            &cfg,
            |r| tels.get(r).cloned(),
            &Robustness::default(),
        );
        assert!(e.guided_m.total_commits() > 0);
        for (r, tel) in tels.iter().enumerate() {
            let snap = tel.snapshot();
            let c = snap.contention.as_ref().expect("contention stamped per run");
            assert_eq!(
                c.attributed + c.unattributed,
                snap.aborts_total(),
                "run {r}: attribution partitions the abort counter"
            );
            let top_sum: u64 = c.top.iter().map(|h| h.count).sum();
            assert_eq!(top_sum + c.residual, c.attributed, "run {r}: sketch conserves");
            let pair_sum: u64 = c.pairs.iter().map(|p| p.count).sum();
            assert_eq!(
                pair_sum + c.owner_unknown,
                c.total(),
                "run {r}: matrix conserves"
            );
            let prom = snap.render_prometheus();
            assert!(prom.contains("gstm_contention_attributed_total"));
        }
    }

    #[test]
    fn ssca2_model_is_low_information() {
        // The shape the paper reports: ssca2 barely aborts, so its states
        // are almost all solo commits and the analyzer metric is high.
        let bench = by_name("ssca2").unwrap();
        let e = run_experiment(&*bench, &tiny_cfg(2));
        assert!(
            e.default_m.total_aborts() * 10 <= e.default_m.per_thread_hists.iter().map(|h| h.total_commits()).sum::<u64>(),
            "ssca2 must be low-contention"
        );
    }
}
