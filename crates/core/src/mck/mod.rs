//! # mck — exhaustive-interleaving model checker for the guidance protocol
//!
//! The adaptive guidance stack is a concurrency protocol with three moving
//! parts: the **guided gate** (bounded spin + k-retry release), the
//! **circuit breaker** (Closed → Open → Half-Open automaton), and the
//! **EpochCell hot-swap** (generation-tagged model replacement). PR 4/PR 5
//! validate it by replaying *single* seeded schedules; this module turns
//! that harness into a verifier: it drives N logical threads through a
//! faithful small-step model of the protocol and enumerates **all**
//! interleavings of a bounded configuration, checking safety and bounded
//! liveness in every reachable state.
//!
//! ## The pieces
//!
//! * `machine` — the deterministic small-step operational model: each
//!   step is one atomic action on the shared words the real implementation
//!   touches (the current-state word, the breaker state, the EpochCell
//!   generation, the per-thread abort shards, the recorded Tseq). Invariant
//!   monitors are evaluated on every state and every transition.
//! * `explore` — stateful DFS with dynamic partial-order reduction:
//!   sleep sets (Godefroid) plus a persistent/stubborn singleton rule keyed
//!   on the shared-word footprint of each step, with an exact
//!   path-counting pass so the POR reduction factor is a measured claim,
//!   not an estimate.
//! * `schedule` — counterexample schedules: minimized, serialized to a
//!   text file, and replayable bit-identically (the replay is a pure
//!   function of the schedule, so two replays produce the same trace
//!   fingerprint or the file is broken).
//!
//! ## Teeth
//!
//! A checker that cannot find bugs proves nothing, so the machine has a
//! built-in mutation mode: [`Mutation`] flips exactly one protocol decision
//! (skip the release re-check, never release, jump the breaker two rungs,
//! never judge the Half-Open probe, tag a commit with the wrong epoch,
//! count a peer blocked on a stale word as unable to wake a waiter) and
//! the explorer must produce a counterexample for every site. The mutation
//! list is the regression suite for the checker itself.
//!
//! ## What the invariants mean
//!
//! * **Gate outcomes partition calls** — every gate call resolves exactly
//!   once, to exactly one of passed/waited/released (structural monitor +
//!   end-state counter check). This is the accounting PR 1 fixed.
//! * **Released implies disallowed** — a release must follow a *final
//!   re-examination* of the current word; releasing a pair the model
//!   allows is the PR 1 bug reintroduced.
//! * **Breaker walks one rung at a time** — transitions are confined to
//!   Closed→Open, Open→Half-Open, Half-Open→{Closed, Open}.
//! * **No torn model reads** — the current word's `(epoch, state)` tag
//!   always names a published generation, and the state id is the id the
//!   *tagged* epoch's model assigns to the committed key.
//! * **No futile-only early release** — on a fixed model, a gate skips
//!   its budget only while every other gater is parked or blocked on the
//!   current word, so no thread that could still wake it is running.
//! * **Bounded liveness** — no thread is gated past `k_retries + 1`
//!   examinations (the k-retry release fires on every path), and Half-Open
//!   judges within `probe_window` calls (it always reaches Closed or
//!   Open).

pub(crate) mod explore;
pub(crate) mod machine;
mod schedule;

pub use explore::{explore, ExploreOptions, ExploreReport};
pub use machine::{MachineState, MckConfig, Violation, ViolationKind};
pub use schedule::Counterexample;

/// One flipped protocol decision. The checker must find a violation for
/// every site — that is the proof it has teeth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// The final retry releases *without* re-examining the current word
    /// (the PR 1 bug): caught by `ReleasedWhileAllowed`.
    SkipReleaseRecheck,
    /// The retry budget is ignored — a disallowed gate re-examines
    /// forever: caught by `GateUnbounded`.
    NoRelease,
    /// Cooldown completion jumps Open→Closed directly, skipping the
    /// Half-Open probe: caught by `IllegalBreakerTransition`.
    TwoRungClose,
    /// The Half-Open probe window fills but is never judged: caught by
    /// `HalfOpenStuck`.
    ProbeNoJudge,
    /// A commit classifies against the epoch pinned at entry but tags the
    /// current word with the *latest* generation: caught by
    /// `TornEpochTag`.
    TornRetag,
    /// A fixed-model gate's scan counts a peer blocked on *any* word as
    /// unable to wake it, without comparing that word to the current
    /// one: caught by `ReleasedWhileWakeable`.
    StaleBlockedWord,
}

impl Mutation {
    /// Every mutation site, in CLI/reporting order.
    pub const ALL: [Mutation; 6] = [
        Mutation::SkipReleaseRecheck,
        Mutation::NoRelease,
        Mutation::TwoRungClose,
        Mutation::ProbeNoJudge,
        Mutation::TornRetag,
        Mutation::StaleBlockedWord,
    ];

    /// Stable name used by `--mutate=SITE` and the schedule file header.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SkipReleaseRecheck => "skip-release-recheck",
            Mutation::NoRelease => "no-release",
            Mutation::TwoRungClose => "two-rung-close",
            Mutation::ProbeNoJudge => "probe-no-judge",
            Mutation::TornRetag => "torn-retag",
            Mutation::StaleBlockedWord => "stale-blocked-word",
        }
    }

    /// Whether the site exists only on a fixed-model hook (see
    /// [`MckConfig::reaching`]).
    pub(crate) fn needs_fixed_model(self) -> bool {
        self == Mutation::StaleBlockedWord
    }

    /// Inverse of [`Mutation::name`].
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::ALL.into_iter().find(|m| m.name() == s)
    }
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_names_round_trip() {
        for m in Mutation::ALL {
            assert_eq!(Mutation::parse(m.name()), Some(m), "{m}");
        }
        assert_eq!(Mutation::parse("definitely-not-a-site"), None);
    }
}
