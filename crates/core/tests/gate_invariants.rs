//! Gate-outcome accounting invariants under randomized guided schedules.
//!
//! Every `gate` call resolves to exactly one of passed / waited /
//! released, so over any schedule the three [`GateStats`] counters must
//! partition the calls — and the per-thread telemetry cells must agree
//! with both the global stats and each thread's own call count. Two
//! tests pin the wake-up rule: once another thread has gated, a
//! fixed-model waiter keeps waiting even while that thread is parked
//! between attempts, and a commit by that thread still rescues it. The
//! last one runs two OS threads under one `ThreadId` on an adaptive hook
//! while its model is hot-swapped: the epoch cache must stay sound.

use gstm_core::prelude::*;
use gstm_core::sync::SLOTS;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn p(t: u16, th: u16) -> Pair {
    Pair::new(TxnId(t), ThreadId(th))
}

/// xorshift64* — deterministic per-seed schedule randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Train a model from randomized profiling runs so gating exercises
/// allowed, disallowed, and unknown current states.
fn random_model(seed: u64, threads: u16, txns: u16) -> Arc<GuidedModel> {
    let mut rng = Rng(seed | 1);
    let mut runs = Vec::new();
    for _ in 0..4 {
        let mut run = Vec::new();
        for _ in 0..200 {
            let committer = p(
                rng.below(txns as u64) as u16,
                rng.below(threads as u64) as u16,
            );
            let mut aborts = Vec::new();
            for th in 0..threads {
                if rng.below(4) == 0 {
                    aborts.push(p(rng.below(txns as u64) as u16, th));
                }
            }
            aborts.sort();
            aborts.dedup();
            run.push(StateKey::new(aborts, committer));
        }
        runs.push(run);
    }
    let tsa = Tsa::from_runs(&runs);
    Arc::new(GuidedModel::build(tsa, &GuidanceConfig::with_tfactor(2.0)))
}

/// Drive `threads` workers through a randomized schedule of
/// gate/abort/commit calls against one guided hook, returning the
/// per-thread (gate calls, commits, aborts) they actually made.
fn run_schedule(hook: &Arc<GuidedHook>, seed: u64, threads: u16, txns: u16) -> Vec<(u64, u64, u64)> {
    let mut per_thread = vec![(0u64, 0u64, 0u64); threads as usize];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for th in 0..threads {
            let hook = Arc::clone(hook);
            handles.push(s.spawn(move || {
                let mut rng = Rng(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(th as u64 + 1)));
                let (mut gates, mut commits, mut aborts) = (0u64, 0u64, 0u64);
                for _ in 0..300 {
                    let who = p(rng.below(txns as u64) as u16, th);
                    hook.gate(who);
                    gates += 1;
                    // Each attempt aborts a geometric number of times
                    // before committing, like a real retry loop.
                    while rng.below(3) == 0 {
                        hook.gate(who);
                        gates += 1;
                        hook.on_abort(who, AbortCause::Validation);
                        aborts += 1;
                    }
                    hook.on_commit(who);
                    commits += 1;
                }
                (th, gates, commits, aborts)
            }));
        }
        for h in handles {
            let (th, g, c, a) = h.join().unwrap();
            per_thread[th as usize] = (g, c, a);
        }
    });
    per_thread
}

#[test]
fn gate_outcomes_partition_calls_over_randomized_schedules() {
    for seed in [3u64, 77, 2024] {
        let threads = 4u16;
        let model = random_model(seed, threads, 6);
        let cfg = GuidanceConfig {
            k_retries: 2,
            wait_spins: 8,
            ..GuidanceConfig::default()
        };
        let tel = Arc::new(Telemetry::counters_only());
        let hook = Arc::new(GuidedHook::with_robustness(
        model,
        cfg,
        Some(tel.clone()),
        None,
        None,
        None,
    ));
        let per_thread = run_schedule(&hook, seed, threads, 6);

        let total_gates: u64 = per_thread.iter().map(|&(g, _, _)| g).sum();
        let total_commits: u64 = per_thread.iter().map(|&(_, c, _)| c).sum();
        let total_aborts: u64 = per_thread.iter().map(|&(_, _, a)| a).sum();

        // The three outcomes partition the gate entries.
        let stats = hook.stats();
        assert_eq!(
            stats.passed + stats.waited + stats.released,
            total_gates,
            "outcome partition broken (seed {seed}): {stats:?}"
        );

        // Telemetry's aggregate agrees with GateStats, counter by counter.
        let snap = tel.snapshot();
        assert_eq!(snap.gate_passed, stats.passed, "seed {seed}");
        assert_eq!(snap.gate_waited, stats.waited, "seed {seed}");
        assert_eq!(snap.gate_released, stats.released, "seed {seed}");
        assert_eq!(snap.gate_total(), total_gates, "seed {seed}");

        // And each thread's cell counts exactly its own calls (thread ids
        // here are below SLOTS, so cells don't alias).
        assert!(threads as usize <= SLOTS);
        for (th, &(gates, _, _)) in per_thread.iter().enumerate() {
            let cell = snap
                .per_thread
                .iter()
                .find(|c| c.cell == th)
                .unwrap_or_else(|| panic!("thread {th} missing from snapshot (seed {seed})"));
            assert_eq!(cell.gate_total(), gates, "thread {th}, seed {seed}");
        }

        // Commit/abort accounting: the hook does not count these (the STM
        // runtimes do), so the snapshot must show gate outcomes only.
        assert_eq!(snap.commits, 0);
        assert_eq!(snap.aborts_total(), 0);
        let _ = (total_commits, total_aborts);
    }
}

#[test]
fn gate_invariants_hold_with_runtime_attached() {
    // Same invariant, but through a real TL2 runtime so commits/aborts
    // are counted too: gate calls == attempts == commits + aborts.
    use std::sync::atomic::AtomicU64;

    let threads = 3u16;
    let model = random_model(11, threads, 4);
    let cfg = GuidanceConfig {
        k_retries: 2,
        wait_spins: 8,
        ..GuidanceConfig::default()
    };
    let tel = Arc::new(Telemetry::counters_only());
    let hook = Arc::new(GuidedHook::with_robustness(
            model,
            cfg,
            Some(tel.clone()),
            None,
            None,
            None,
        ));

    // Drive the hook the way a runtime does: gate precedes every attempt,
    // and every attempt ends in exactly one on_abort or on_commit.
    let attempts = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for th in 0..threads {
            let hook = Arc::clone(&hook);
            let attempts = Arc::clone(&attempts);
            let tel = Arc::clone(&tel);
            s.spawn(move || {
                let mut rng = Rng(0xdead_beef ^ th as u64);
                for i in 0..200u16 {
                    let who = p(i % 4, th);
                    loop {
                        hook.gate(who);
                        attempts.fetch_add(1, Ordering::Relaxed);
                        if rng.below(4) == 0 {
                            hook.on_abort(who, AbortCause::ReadVersion);
                            tel.record_abort(who, AbortCause::ReadVersion);
                        } else {
                            hook.on_commit(who);
                            tel.record_commit(who, 100);
                            break;
                        }
                    }
                }
            });
        }
    });

    let snap = tel.snapshot();
    let stats = hook.stats();
    let total = attempts.load(Ordering::Relaxed);
    assert_eq!(stats.passed + stats.waited + stats.released, total);
    assert_eq!(snap.gate_total(), total);
    assert_eq!(snap.commits + snap.aborts_total(), total);
    assert_eq!(snap.commits, (threads as u64) * 200);
}

/// A model cycling through the solo commits of threads 0, 1 and 2: its
/// state "thread 0 committed" allows only thread 1, so the gate of
/// `p(0, 2)` from that state waits until `p(0, 1)` commits. Returns the
/// model and the pair whose commit enters the state.
fn blocking_model() -> (Arc<GuidedModel>, Pair) {
    let cycle = [p(0, 0), p(0, 1), p(0, 2)].map(StateKey::solo);
    let run: Vec<StateKey> = (0..20).flat_map(|_| cycle.clone()).collect();
    let model = GuidedModel::build(Tsa::from_runs(&[run]), &GuidanceConfig::with_tfactor(1.0));
    (Arc::new(model), p(0, 0))
}

/// A budget no test could sit out: a gate that returns at all within
/// the test's lifetime did not spend it.
fn endless() -> GuidanceConfig {
    GuidanceConfig { k_retries: 1_000_000, wait_spins: 1_000_000, ..GuidanceConfig::default() }
}

#[test]
fn waiter_is_rescued_by_another_gating_thread() {
    let (model, enter) = blocking_model();
    let hook = Arc::new(GuidedHook::new(model, endless()));
    let rescuer = p(3, 3);
    hook.gate(rescuer); // passes on the unknown state
    hook.gate(enter);
    hook.on_commit(enter); // the word now blocks p(0, 2)
    let at_gate = Arc::new(std::sync::Barrier::new(2));
    let waiter = {
        let (hook, at_gate) = (Arc::clone(&hook), Arc::clone(&at_gate));
        std::thread::spawn(move || {
            at_gate.wait();
            hook.gate(p(0, 2));
        })
    };
    at_gate.wait();
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(!waiter.is_finished(), "a possible waker must keep the waiter waiting");
    hook.on_commit(rescuer); // an unmodeled state: everything passes
    waiter.join().unwrap();
    let stats = hook.stats();
    assert_eq!((stats.passed, stats.waited, stats.released), (2, 1, 0));
}

#[test]
fn waiter_keeps_waiting_while_the_other_thread_is_parked_between_attempts() {
    // The frame-end shape: the other thread committed and parks at a
    // barrier. It has gated before, so it can gate and commit again and
    // change the state: the waiter keeps its full budget meanwhile, and
    // the other thread's next commit, `p(0, 1)`, rescues it.
    let (model, enter) = blocking_model();
    let hook = Arc::new(GuidedHook::new(model, endless()));
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let waiter = {
        let (hook, barrier) = (Arc::clone(&hook), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait(); // the other thread has committed `enter`
            hook.gate(p(0, 2));
        })
    };
    hook.gate(enter);
    hook.on_commit(enter); // the word now blocks p(0, 2)
    barrier.wait(); // committed; now parked outside any attempt
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(!waiter.is_finished(), "a thread that gated before is a possible waker");
    let next = p(0, 1); // allowed from the blocking state
    hook.gate(next);
    hook.on_commit(next);
    waiter.join().unwrap();
    let stats = hook.stats();
    assert_eq!((stats.passed, stats.waited, stats.released), (2, 1, 0));
}

#[test]
fn shared_thread_id_on_an_adaptive_hook_survives_concurrent_swaps() {
    // Two OS threads gate and commit as ThreadId(0) while this thread
    // hot-swaps the model as fast as it can. Each OS thread has its own
    // epoch cache, so sharing an id shares no cache entry.
    const SWAPS: u32 = 200_000;
    let (model, _) = blocking_model();
    let cfg = GuidanceConfig {
        k_retries: 1,
        wait_spins: 1,
        ..GuidanceConfig::default()
    };
    let adapt = AdaptConfig {
        background: false,
        ..AdaptConfig::default()
    };
    let hook = GuidedHook::adaptive(Arc::clone(&model), cfg, adapt, None);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (hook, stop) = (Arc::clone(&hook), Arc::clone(&stop));
            std::thread::spawn(move || {
                let me = p(0, 0);
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    hook.gate(me);
                    hook.on_commit(me);
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();
    let mgr = Arc::clone(hook.manager().expect("adaptive hook"));
    for _ in 0..SWAPS {
        mgr.swap_in(Arc::clone(&model), DriftVerdict::Drifting);
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let stats = hook.stats();
    assert_eq!(stats.passed + stats.waited + stats.released, rounds);
    assert_eq!(mgr.swaps(), SWAPS as u64);
    assert!(
        hook.current_tag().0 <= SWAPS,
        "no commit ran ahead of the swaps"
    );
}
