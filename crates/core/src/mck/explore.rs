//! Exhaustive exploration with dynamic partial-order reduction.
//!
//! The explorer is a stateful DFS over the machine's (acyclic) state
//! graph with two reductions layered on top:
//!
//! * **Sleep sets** (Godefroid): after exploring sibling `t`, agents
//!   whose next step is independent of `t`'s are put to sleep in `t`'s
//!   subtree — the interleaving that runs them first was already covered
//!   by the earlier sibling. With state matching, a revisited state
//!   re-explores only the transitions a previous visit slept through
//!   (the stored explored-mask), which keeps the combination sound.
//! * **Persistent singletons** (stubborn-set rule): when an enabled
//!   agent's next step has a footprint disjoint from the *future*
//!   footprint of every other live agent, that step commutes with
//!   everything the rest of the system can ever do, so exploring it alone
//!   covers every trace from this state. This fires constantly near the
//!   end of threads' programs and turns long deterministic tails into
//!   straight lines.
//!
//! **Soundness** (details in DESIGN.md §15): the machine's state graph is
//! finite and acyclic (every step strictly consumes budgeted work), all
//! checked properties are violations attached to a single transition
//! (bounded liveness is encoded as a ceiling-exceeded safety check), and
//! dependency is keyed on exact per-step footprints logged by the machine
//! itself — two steps with disjoint footprints commute and leave each
//! other's footprint unchanged. Every Mazurkiewicz trace therefore keeps
//! at least one explored representative, the violating transition occurs
//! in that representative with the same reads (hence the same verdict),
//! and a violation reported on trunk or missed under mutation is
//! machine-reality, not search noise.
//!
//! The **naive interleaving count** is computed exactly (no enumeration)
//! by a memoized path-count over the full graph: `paths(s) = Σ_enabled
//! paths(step(s, a))`, with violations and complete states counting one
//! path each. The POR reduction factor is that count divided by the
//! number of transitions the reduced search executed — a measured claim.

use std::collections::{HashMap, VecDeque};

use super::machine::{MachineState, MckConfig, StepEffect, Violation};

/// Exploration knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Apply the reductions (sleep sets + persistent singletons). Off =
    /// full stateful search (still state-merging, never path-enumerating).
    pub por: bool,
    /// Also run the exact naive path-count pass.
    pub count_naive: bool,
    /// Safety valve: abort exploration after this many distinct states.
    pub max_states: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions { por: true, count_naive: true, max_states: 50_000_000 }
    }
}

/// What an exploration measured and found.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Distinct states visited by the (reduced) search.
    pub states: u64,
    /// Transitions executed by the (reduced) search.
    pub transitions: u64,
    /// Complete (maximal) executions the search ran to the end.
    pub complete_paths: u64,
    /// Transitions skipped because the agent was asleep.
    pub sleep_skips: u64,
    /// States expanded through a persistent singleton.
    pub persistent_hits: u64,
    /// Exact number of interleavings a naive enumeration would walk
    /// (`None` when the pass is disabled).
    pub naive_interleavings: Option<u128>,
    /// Distinct states in the *full* graph (from the naive pass).
    pub naive_states: Option<u64>,
    /// `naive_interleavings / transitions` (None without the naive pass).
    pub reduction_factor: Option<f64>,
    /// First violation found, with the schedule that reaches it.
    pub violation: Option<(Vec<u16>, Violation)>,
    /// True if `max_states` stopped the search early.
    pub truncated: bool,
}

struct Explorer {
    opts: ExploreOptions,
    /// State → mask of agents already explored from it.
    visited: HashMap<Vec<u64>, u32>,
    states: u64,
    transitions: u64,
    complete_paths: u64,
    sleep_skips: u64,
    persistent_hits: u64,
    violation: Option<(Vec<u16>, Violation)>,
    truncated: bool,
}

fn bit(a: u16) -> u32 {
    1 << a
}

impl Explorer {
    fn dfs(&mut self, state: &MachineState, sleep: u32, path: &mut Vec<u16>) {
        if self.violation.is_some() || self.truncated {
            return;
        }
        let enabled = state.enabled_agents();
        if enabled.is_empty() {
            // Terminal states are states too (the naive DP memoizes them,
            // so the full stateful search must count them to match).
            let key = state.encode();
            if !self.visited.contains_key(&key) {
                if self.states >= self.opts.max_states {
                    self.truncated = true;
                    return;
                }
                self.states += 1;
                self.visited.insert(key, u32::MAX);
            }
            self.complete_paths += 1;
            if let Some(v) = state.check_complete() {
                self.violation = Some((path.clone(), v));
            }
            return;
        }
        let key = state.encode();
        let explored_mask = match self.visited.get(&key) {
            Some(&m) => m,
            None => {
                if self.states >= self.opts.max_states {
                    self.truncated = true;
                    return;
                }
                self.states += 1;
                self.visited.insert(key.clone(), 0);
                0
            }
        };
        // Compute every enabled effect once: the successors drive the
        // recursion and the footprints drive both reductions.
        let effects: Vec<(u16, StepEffect)> =
            enabled.iter().map(|&a| (a, state.step(a))).collect();
        let enabled_mask =
            enabled.iter().fold(0u32, |m, &a| m | bit(a));
        let mut need = enabled_mask & !sleep;
        self.sleep_skips += (enabled_mask & sleep).count_ones() as u64;
        let mut persistent = false;
        if self.opts.por && self.violation.is_none() {
            // Persistent singleton: a step whose footprint cannot ever be
            // interfered with covers all traces on its own.
            if let Some(&(a, ref eff)) = effects.iter().find(|&&(a, ref eff)| {
                state.live_agents().iter().all(|&u| {
                    u == a || !eff.footprint.conflicts(&state.future_footprint(u))
                })
            }) {
                let _ = eff;
                need = bit(a);
                persistent = true;
                self.persistent_hits += 1;
            }
        }
        let todo = need & !explored_mask;
        if todo == 0 {
            return;
        }
        let mut done_here = 0u32;
        for &(a, ref eff) in &effects {
            if todo & bit(a) == 0 {
                continue;
            }
            self.transitions += 1;
            path.push(a);
            if let Some(v) = &eff.violation {
                if self.violation.is_none() {
                    self.violation = Some((path.clone(), v.clone()));
                }
                path.pop();
                break;
            }
            // Sleep for the child: agents slept here (or already explored
            // as earlier siblings) stay asleep iff independent of `a`.
            let mut child_sleep = 0u32;
            for &(u, ref ueff) in &effects {
                if (sleep | done_here) & bit(u) != 0
                    && self.opts.por
                    && !ueff.footprint.conflicts(&eff.footprint)
                {
                    child_sleep |= bit(u);
                }
            }
            self.dfs(&eff.state, child_sleep, path);
            path.pop();
            done_here |= bit(a);
            if self.violation.is_some() || self.truncated {
                break;
            }
        }
        let mark = if persistent && self.violation.is_none() && !self.truncated {
            // The singleton covered every trace from here: no future
            // visit needs to expand the siblings.
            enabled_mask
        } else {
            done_here
        };
        *self.visited.get_mut(&key).unwrap() |= mark;
    }
}

/// Exact interleaving count of the full graph by memoized DP (no path is
/// ever enumerated, so astronomically large counts are fine). Returns
/// `(paths, distinct_states)`; counts saturate at `u128::MAX`.
fn naive_interleavings(cfg: &MckConfig) -> (u128, u64) {
    fn count(
        state: &MachineState,
        memo: &mut HashMap<Vec<u64>, u128>,
    ) -> u128 {
        let key = state.encode();
        if let Some(&c) = memo.get(&key) {
            return c;
        }
        let enabled = state.enabled_agents();
        let total = if enabled.is_empty() {
            1
        } else {
            let mut sum = 0u128;
            for a in enabled {
                let eff = state.step(a);
                let c = if eff.violation.is_some() {
                    1
                } else {
                    count(&eff.state, memo)
                };
                sum = sum.saturating_add(c);
            }
            sum
        };
        memo.insert(key, total);
        total
    }
    let mut memo = HashMap::new();
    let paths = count(&MachineState::initial(cfg), &mut memo);
    (paths, memo.len() as u64)
}

/// Explore `cfg` exhaustively and report. Stops at the first violation
/// (the schedule prefix reaching it is in the report); when a violation
/// is found it is minimized — shortest length by BFS over the full
/// graph, then greedy context-switch reduction — before being returned.
pub fn explore(cfg: &MckConfig, opts: ExploreOptions) -> ExploreReport {
    let initial = MachineState::initial(cfg);
    let mut ex = Explorer {
        opts,
        visited: HashMap::new(),
        states: 0,
        transitions: 0,
        complete_paths: 0,
        sleep_skips: 0,
        persistent_hits: 0,
        violation: None,
        truncated: false,
    };
    ex.dfs(&initial, 0, &mut Vec::new());
    let violation = ex.violation.take().map(|(schedule, v)| {
        let short = shortest_violation(cfg, v.kind, schedule.len())
            .unwrap_or((schedule, v));
        minimize_switches(cfg, short)
    });
    let (naive, naive_states) = if opts.count_naive && !ex.truncated {
        let (p, s) = naive_interleavings(cfg);
        (Some(p), Some(s))
    } else {
        (None, None)
    };
    let reduction = naive.map(|n| {
        let t = ex.transitions.max(1) as f64;
        n as f64 / t
    });
    ExploreReport {
        states: ex.states,
        transitions: ex.transitions,
        complete_paths: ex.complete_paths,
        sleep_skips: ex.sleep_skips,
        persistent_hits: ex.persistent_hits,
        naive_interleavings: naive,
        naive_states,
        reduction_factor: reduction,
        violation,
        truncated: ex.truncated,
    }
}

/// Shortest schedule (by BFS over the full graph) reaching any violation
/// of `kind`, bounded by the DFS witness length (so the search cannot be
/// slower than re-walking the graph to that depth).
fn shortest_violation(
    cfg: &MckConfig,
    kind: super::machine::ViolationKind,
    max_len: usize,
) -> Option<(Vec<u16>, Violation)> {
    struct Node {
        parent: usize,
        agent: u16,
        state: MachineState,
    }
    let initial = MachineState::initial(cfg);
    let mut arena = vec![Node { parent: usize::MAX, agent: u16::MAX, state: initial }];
    let mut seen: HashMap<Vec<u64>, ()> = HashMap::new();
    seen.insert(arena[0].state.encode(), ());
    let mut queue = VecDeque::from([(0usize, 0usize)]);
    while let Some((idx, depth)) = queue.pop_front() {
        if depth >= max_len {
            continue;
        }
        let agents = arena[idx].state.enabled_agents();
        for a in agents {
            let eff = arena[idx].state.step(a);
            if let Some(v) = eff.violation {
                if v.kind == kind {
                    // Rebuild the schedule from the parent chain.
                    let mut schedule = vec![a];
                    let mut at = idx;
                    while arena[at].parent != usize::MAX {
                        schedule.push(arena[at].agent);
                        at = arena[at].parent;
                    }
                    schedule.reverse();
                    return Some((schedule, v));
                }
                continue;
            }
            let key = eff.state.encode();
            if seen.contains_key(&key) {
                continue;
            }
            seen.insert(key, ());
            arena.push(Node { parent: idx, agent: a, state: eff.state });
            queue.push_back((arena.len() - 1, depth + 1));
        }
    }
    None
}

/// Greedy context-switch reduction: try to bubble steps toward their
/// same-agent neighbours; a candidate is kept when replaying it still
/// ends in the same violation kind. Purely cosmetic — the schedule stays
/// the same length — but the emitted counterexample reads as a handful of
/// thread runs instead of a shuffle.
fn minimize_switches(
    cfg: &MckConfig,
    witness: (Vec<u16>, Violation),
) -> (Vec<u16>, Violation) {
    let (mut schedule, mut violation) = witness;
    let switches = |s: &[u16]| s.windows(2).filter(|w| w[0] != w[1]).count();
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..schedule.len().saturating_sub(1) {
            if schedule[i] == schedule[i + 1] {
                continue;
            }
            let mut cand = schedule.clone();
            cand.swap(i, i + 1);
            if switches(&cand) >= switches(&schedule) {
                continue;
            }
            if let Some(v) = run_schedule(cfg, &cand) {
                if v.kind == violation.kind {
                    schedule = cand;
                    violation = v;
                    improved = true;
                }
            }
        }
    }
    (schedule, violation)
}

/// Run a schedule to its end; `None` if it completes without violation
/// or dispatches a disabled agent.
fn run_schedule(cfg: &MckConfig, schedule: &[u16]) -> Option<Violation> {
    let mut state = MachineState::initial(cfg);
    for &a in schedule {
        if !state.enabled(a) {
            return None;
        }
        let eff = state.step(a);
        if eff.violation.is_some() {
            return eff.violation;
        }
        state = eff.state;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::machine::ViolationKind;
    use super::super::Mutation;
    use super::*;

    /// A configuration small enough for the unit-test tier: 2 threads ×
    /// 2 windows, one swap, breaker on. Two windows matter: with a single
    /// window the cyclic seed model always happens to allow the only
    /// other thread, so nothing is ever gated and the gate mutations are
    /// unreachable. A second window makes a thread re-gate right after
    /// its own commit, against a state that allows only its successor.
    fn tiny() -> MckConfig {
        MckConfig { threads: 2, windows: 2, abort_mask: 0, ..MckConfig::ci() }
    }

    #[test]
    fn tiny_trunk_is_clean_and_por_agrees_with_full_search() {
        let with_por = explore(&tiny(), ExploreOptions::default());
        assert!(with_por.violation.is_none(), "{:?}", with_por.violation);
        assert!(!with_por.truncated);
        let full = explore(
            &tiny(),
            ExploreOptions { por: false, ..ExploreOptions::default() },
        );
        assert!(full.violation.is_none());
        // The reduced search must touch no more than the full one.
        assert!(with_por.transitions <= full.transitions);
        assert!(with_por.states <= full.states);
        // And the full stateful search must cover the whole graph.
        assert_eq!(Some(full.states), full.naive_states);
    }

    #[test]
    fn naive_count_dominates_reduced_transitions() {
        let r = explore(&tiny(), ExploreOptions::default());
        let naive = r.naive_interleavings.unwrap();
        assert!(naive >= r.transitions as u128);
        assert!(r.reduction_factor.unwrap() >= 1.0);
    }

    #[test]
    fn mutations_are_caught_in_the_tiny_model_where_reachable() {
        // The gate-protocol mutations need only the gate + swap machinery
        // and are reachable even at 2×1.
        for (m, kind) in [
            (Mutation::SkipReleaseRecheck, ViolationKind::ReleasedWhileAllowed),
            (Mutation::NoRelease, ViolationKind::GateUnbounded),
        ] {
            let cfg = MckConfig { mutation: Some(m), ..tiny() };
            let r = explore(&cfg, ExploreOptions { count_naive: false, ..Default::default() });
            let (schedule, v) = r.violation.unwrap_or_else(|| panic!("{m} not caught"));
            assert_eq!(v.kind, kind, "{m}");
            // The minimized witness must still replay to the violation.
            let replayed = run_schedule(&cfg, &schedule).expect("witness replays");
            assert_eq!(replayed.kind, kind, "{m}: minimized witness diverged");
        }
    }

    #[test]
    fn shortest_witness_is_no_longer_than_the_dfs_witness() {
        let cfg = MckConfig { mutation: Some(Mutation::NoRelease), ..tiny() };
        let r = explore(&cfg, ExploreOptions { count_naive: false, ..Default::default() });
        let (schedule, _) = r.violation.unwrap();
        // Re-run the raw DFS (no minimization) by checking the registered
        // schedule replays — and that BFS could not have missed a shorter
        // one at half the length (sanity bound, not an exact oracle).
        assert!(run_schedule(&cfg, &schedule).is_some());
        assert!(schedule.len() >= 3, "a violation needs at least entry+checks");
    }
}
