//! End-to-end tests for the model checker (`gstm_core::mck`): the
//! acceptance configuration is explored exhaustively and clean, every
//! mutation site is caught with a bit-identically replayable
//! counterexample, and — the part that makes the abstract machine worth
//! trusting — a **conformance bridge** drives the machine and the real
//! `GuidedHook` through the same op schedules and demands identical
//! observable behavior (gate counters, recorded Tseq, swap count, epoch
//! generation, and the packed current word after every single op).
//!
//! The bridge runs with the breaker disabled on both sides: the real
//! adaptive hook attaches a drift tracker whose `Fresh` verdict suppresses
//! trips, which the verdict-less machine deliberately does not model
//! (the machine's breaker is lock-stepped against the real `Breaker`
//! directly in the unit tier instead).

use gstm_core::mck::{
    explore, Counterexample, ExploreOptions, MachineState, MckConfig, Mutation,
};
use gstm_core::prelude::*;
use gstm_core::rng::SplitMix64;

// ---------------------------------------------------------------------------
// Exhaustive trunk + mutation teeth
// ---------------------------------------------------------------------------

/// The acceptance configuration — 3 threads × 2 windows, breaker on,
/// hot-swap on, one scripted abort — is explored exhaustively: zero
/// violations, no truncation, and a large measured POR reduction.
#[test]
fn acceptance_configuration_is_exhaustively_clean() {
    let cfg = MckConfig::ci();
    let r = explore(&cfg, ExploreOptions::default());
    assert!(r.violation.is_none(), "trunk violation: {:?}", r.violation);
    assert!(!r.truncated, "search truncated at {} states", r.states);
    assert!(r.states > 100_000, "suspiciously small space: {} states", r.states);
    let naive = r.naive_interleavings.expect("naive pass ran");
    assert!(
        naive / 1000 >= r.transitions as u128,
        "POR reduction should be >1000x here: naive {naive}, reduced {}",
        r.transitions
    );
    assert!(r.persistent_hits > 0 && r.sleep_skips > 0, "both reductions fire");
}

/// Every mutation site must produce a violation of its documented kind,
/// and the captured counterexample must survive serialize → parse →
/// replay twice with the same trace fingerprint.
#[test]
fn every_mutation_site_is_caught_with_a_replayable_counterexample() {
    use gstm_core::mck::ViolationKind::*;
    let expected = [
        (Mutation::SkipReleaseRecheck, ReleasedWhileAllowed),
        (Mutation::NoRelease, GateUnbounded),
        (Mutation::TwoRungClose, IllegalBreakerTransition),
        (Mutation::ProbeNoJudge, HalfOpenStuck),
        (Mutation::TornRetag, TornEpochTag),
    ];
    for (m, kind) in expected {
        let cfg = MckConfig { mutation: Some(m), ..MckConfig::ci() };
        let opts = ExploreOptions { count_naive: false, ..ExploreOptions::default() };
        let r = explore(&cfg, opts);
        let (schedule, v) = r.violation.unwrap_or_else(|| panic!("{m}: not caught"));
        assert_eq!(v.kind, kind, "{m}: wrong violation kind");
        let ce = Counterexample::capture(&cfg, schedule, v).expect("captures");
        let text = ce.to_text();
        let parsed = Counterexample::parse(&text).unwrap_or_else(|e| panic!("{m}: {e}"));
        let a = parsed.verify().unwrap_or_else(|e| panic!("{m}: first replay: {e}"));
        let b = parsed.verify().unwrap_or_else(|e| panic!("{m}: second replay: {e}"));
        assert_eq!(a.fingerprint, b.fingerprint, "{m}: replays disagree");
        assert_eq!(a.fingerprint, ce.fingerprint, "{m}: capture disagrees");
    }
}

// ---------------------------------------------------------------------------
// Deterministic "final retry races the hot-swap" corner
// ---------------------------------------------------------------------------

/// The interleaving the real-time suites can only hit by luck, pinned as
/// an explicit machine schedule: thread 0 is gated (disallowed) with its
/// final re-examination still pending; a hot-swap publishes epoch 1 and a
/// competing commit re-tags the current word with it. The final retry
/// must observe the new tag (epoch mismatch ⇒ allowed) and resolve
/// **Waited**, not Released.
#[test]
fn final_retry_racing_a_hot_swap_waits_instead_of_releasing() {
    let cfg = MckConfig {
        threads: 2,
        windows: 2,
        abort_mask: 0,
        breaker: None,
        ..MckConfig::ci()
    };
    let mut m = MachineState::initial(&cfg);
    // t0 commits window 0: the word now allows only t1.
    assert!(m.run_op(0, 64).is_none());
    assert!(m.run_op(0, 64).is_none());
    assert!(m.at_gate(0));
    // t0 enters its window-1 gate (pins epoch 0) and burns the non-final
    // check: disallowed, so it waits with one examination left.
    let eff = m.step(0); // GateEntry
    m = eff.state;
    let eff = m.step(0); // non-final GateCheck: disallowed, waits
    m = eff.state;
    assert_eq!(m.passed + m.waited + m.released, m.gate_calls - 1, "gate unresolved");
    // The race: the manager swaps (epoch 1 published), then t1 gates and
    // commits window 0, re-tagging the current word with epoch 1.
    assert!(m.run_op(cfg.manager_agent().unwrap(), 64).is_none());
    assert_eq!(m.generation(), 1);
    assert!(m.run_op(1, 64).is_none()); // t1 gate (allowed by the old word)
    assert!(m.run_op(1, 64).is_none()); // t1 commit: word now tagged epoch 1
    assert_eq!(m.current_tag().0, 1, "commit re-tagged the word");
    // t0's final re-examination: pinned epoch 0, word tagged epoch 1 —
    // the mismatch means the model verdict is void, so the gate opens.
    let (waited, released) = (m.waited, m.released);
    let eff = m.step(0);
    assert!(eff.violation.is_none(), "{:?}", eff.violation);
    m = eff.state;
    assert!(m.at_commit(0), "t0 proceeded to its commit");
    assert_eq!(m.waited, waited + 1, "the rescued gate counts as Waited");
    assert_eq!(m.released, released, "no release: the swap rescued the final retry");
}

/// The same schedule without the rescue: nobody moves the word, so the
/// final re-examination must give up and count Released — exactly once.
#[test]
fn final_retry_without_the_swap_releases_exactly_once() {
    let cfg = MckConfig {
        threads: 2,
        windows: 2,
        abort_mask: 0,
        breaker: None,
        ..MckConfig::ci()
    };
    let mut m = MachineState::initial(&cfg);
    assert!(m.run_op(0, 64).is_none());
    assert!(m.run_op(0, 64).is_none());
    let released_before = m.released;
    assert!(m.run_op(0, 64).is_none(), "k-retry release must terminate the gate");
    assert_eq!(m.released, released_before + 1, "released exactly once");
    assert!(m.at_commit(0), "a released thread proceeds");
}

// ---------------------------------------------------------------------------
// Conformance bridge: abstract machine vs. real GuidedHook
// ---------------------------------------------------------------------------

/// Mirror of the real hook driven op-by-op next to the machine.
fn hook_for(cfg: &MckConfig) -> std::sync::Arc<GuidedHook> {
    let gcfg = GuidanceConfig {
        tfactor: cfg.tfactor,
        k_retries: cfg.k_retries,
        wait_spins: 2,
    };
    let adapt = AdaptConfig {
        window: 4096, // never evicts: the machine records full history
        min_window: 1,
        background: false,
        ..AdaptConfig::default()
    };
    GuidedHook::adaptive(cfg.seed_model(), gcfg, adapt, None)
}

/// Drive machine and hook through the same seeded op schedule and demand
/// identical observables after every op. Returns ops executed.
fn conformance_run(cfg: &MckConfig, seed: u64) -> u32 {
    let mut m = MachineState::initial(cfg);
    let hook = hook_for(cfg);
    let mgr = hook.manager().expect("adaptive hook").clone();
    let mut rng = SplitMix64::new(seed);
    let mut windows = vec![0u16; cfg.threads as usize];
    let mut ops = 0u32;
    loop {
        let enabled = m.enabled_agents();
        if enabled.is_empty() {
            break;
        }
        let agent = enabled[rng.below(enabled.len() as u64) as usize];
        if Some(agent) == cfg.manager_agent() {
            assert!(m.run_op(agent, 64).is_none());
            let before = mgr.epoch_id();
            let id = mgr
                .regenerate_from(&hook, DriftVerdict::Drifting)
                .expect("machine swapped, so the real window is non-empty");
            assert_eq!(id, before.wrapping_add(1));
        } else {
            let t = agent as usize;
            let who = cfg.who(agent, windows[t]);
            let was_abort = m.at_abort(agent);
            let was_gate = m.at_gate(agent);
            assert!(m.run_op(agent, 64).is_none(), "trunk op hit a violation");
            if was_gate {
                hook.gate(who);
            } else if was_abort {
                hook.on_abort(who, AbortCause::Validation);
            } else {
                hook.on_commit(who);
                windows[t] += 1;
            }
        }
        ops += 1;
        // The packed current word is the protocol's whole shared state:
        // byte-equality after every op means both sides classified the
        // same commit against the same epoch's model and resolved every
        // gate identically.
        assert_eq!(
            m.current_tag(),
            hook.current_tag(),
            "seed {seed}: current word diverged after op {ops} (agent {agent})"
        );
        assert_eq!(m.generation(), mgr.epoch_id(), "seed {seed}: epoch id diverged");
    }
    let stats = hook.stats();
    assert_eq!(
        (m.passed, m.waited, m.released),
        (stats.passed, stats.waited, stats.released),
        "seed {seed}: gate counters diverged"
    );
    assert_eq!(m.swaps_done() as u64, mgr.swaps(), "seed {seed}: swap count diverged");
    assert_eq!(m.recorded(), &hook.take_run()[..], "seed {seed}: recorded Tseq diverged");
    ops
}

/// The machine is only as good as its fidelity to the implementation:
/// across many seeded schedules and several geometries (aborts on and
/// off, hot-swap on and off), every op-level observable matches the real
/// `GuidedHook` exactly.
#[test]
fn machine_conforms_to_the_real_hook_op_for_op() {
    let geometries = [
        MckConfig { breaker: None, ..MckConfig::ci() },
        MckConfig { breaker: None, abort_mask: 0, ..MckConfig::ci() },
        MckConfig { breaker: None, threads: 2, windows: 3, abort_mask: 0b10, ..MckConfig::ci() },
        MckConfig { breaker: None, swaps: 0, ..MckConfig::ci() },
        MckConfig { breaker: None, threads: 4, windows: 2, k_retries: 2, ..MckConfig::ci() },
    ];
    let mut total_ops = 0u32;
    for (g, cfg) in geometries.iter().enumerate() {
        cfg.validate().unwrap_or_else(|e| panic!("geometry {g}: {e}"));
        for seed in 0..40u64 {
            total_ops += conformance_run(cfg, seed * 31 + g as u64);
        }
    }
    assert!(total_ops > 2000, "bridge barely ran: {total_ops} ops");
}
