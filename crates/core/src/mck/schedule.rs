//! Replayable counterexample schedules.
//!
//! When exploration finds a violation the witness is a **schedule** — the
//! sequence of agent ids dispatched from the initial state. Because the
//! machine is a pure function of `(config, schedule)`, a schedule file is
//! a complete, self-contained reproduction: parse it, replay it, and you
//! land on the same violation with the same trace fingerprint, on any
//! platform, forever. "Bit-identical" is checked literally — the replay
//! folds every post-step state fingerprint into a chain hash, and two
//! replays of the same file must produce the same chain.
//!
//! ## File format (`gstm-mck-counterexample v1`)
//!
//! A line-oriented text format, one `key value` pair per header line:
//!
//! ```text
//! gstm-mck-counterexample v1
//! config threads=3 windows=2 txns=1 k=1 abort-mask=0x1 swaps=1 tfactor=4 mutation=no-release
//! breaker window=4 released=50 abort=75 starve=2 streak=3 cooldown=1 probe=1
//! violation kind=gate-unbounded agent=0 step=9
//! fingerprint 0xdeadbeefdeadbeef
//! detail thread 0 re-examined the gate 3 times with k=1
//! schedule 0 0 0 1 2
//! ```
//!
//! The `config` line carries `model=fixed` only for a fixed-model
//! configuration. The `breaker` line is omitted when the breaker is off; floats use
//! Rust's shortest round-trip `Display`, so parsing is exact.

use std::fmt::Write as _;

use super::machine::{MachineState, MckBreakerConfig, MckConfig, Violation, ViolationKind};
use super::Mutation;

/// Magic first line of a schedule file.
const MAGIC: &str = "gstm-mck-counterexample v1";

/// Everything a violation reproduction needs, serializable to text.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The configuration the machine was built with (mutation included).
    pub(crate) config: MckConfig,
    /// Agent ids dispatched in order from the initial state.
    pub schedule: Vec<u16>,
    /// The violation the schedule ends in.
    pub violation: Violation,
    /// Chain hash over every post-step state fingerprint.
    pub fingerprint: u64,
}

/// What replaying a schedule produced.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Violation hit while replaying (the schedule's final step, if any).
    violation: Option<Violation>,
    /// Chain hash over every post-step state fingerprint. For a schedule
    /// ending in a violation the chain covers the steps *before* it (the
    /// violating step has no post-state — the machine stops there).
    pub fingerprint: u64,
    /// Steps actually dispatched (may be short of the schedule if an
    /// agent was disabled — that is an `Err` from [`replay_schedule`]).
    pub steps: u32,
}

/// Replay `schedule` against a fresh machine for `cfg`. Pure function:
/// same inputs, same outcome, bit for bit. Errors when the schedule
/// dispatches an agent that is not enabled (a corrupt or mismatched
/// file), naming the offending index.
fn replay_schedule(cfg: &MckConfig, schedule: &[u16]) -> Result<ReplayOutcome, String> {
    let mut state = MachineState::initial(cfg);
    let mut chain: u64 = 0xcbf2_9ce4_8422_2325;
    let mut steps = 0u32;
    for (i, &a) in schedule.iter().enumerate() {
        if !state.enabled(a) {
            return Err(format!(
                "schedule step {i} dispatches agent {a}, which is not enabled \
                 (wrong config, or file corrupted)"
            ));
        }
        let eff = state.step(a);
        steps += 1;
        if let Some(v) = eff.violation {
            if i + 1 != schedule.len() {
                return Err(format!(
                    "schedule hit {} at step {i} but has {} more steps",
                    v.kind.name(),
                    schedule.len() - i - 1
                ));
            }
            return Ok(ReplayOutcome { violation: Some(v), fingerprint: chain, steps });
        }
        state = eff.state;
        chain = chain
            .rotate_left(7)
            .wrapping_mul(0x100_0000_01b3)
            ^ state.fingerprint();
    }
    Ok(ReplayOutcome { violation: None, fingerprint: chain, steps })
}

impl Counterexample {
    /// Build a counterexample from an explorer witness, computing the
    /// reference fingerprint by replaying it once. Errors if the schedule
    /// does not actually reproduce the violation (an explorer bug).
    pub fn capture(
        cfg: &MckConfig,
        schedule: Vec<u16>,
        violation: Violation,
    ) -> Result<Counterexample, String> {
        let outcome = replay_schedule(cfg, &schedule)?;
        match &outcome.violation {
            Some(v) if *v == violation => Ok(Counterexample {
                config: cfg.clone(),
                schedule,
                violation,
                fingerprint: outcome.fingerprint,
            }),
            Some(v) => Err(format!(
                "witness replayed to {} but the explorer reported {}",
                v.kind.name(),
                violation.kind.name()
            )),
            None => Err("witness schedule replays clean — explorer bug".into()),
        }
    }

    /// Serialize to the v1 text format.
    pub fn to_text(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = write!(
            out,
            "config threads={} windows={} txns={} k={} abort-mask={:#x} swaps={} tfactor={}",
            c.threads, c.windows, c.txns, c.k_retries, c.abort_mask, c.swaps, c.tfactor
        );
        if c.fixed_model {
            out.push_str(" model=fixed");
        }
        if let Some(m) = c.mutation {
            let _ = write!(out, " mutation={}", m.name());
        }
        out.push('\n');
        if let Some(b) = &c.breaker {
            let _ = writeln!(
                out,
                "breaker window={} released={} abort={} starve={} streak={} cooldown={} probe={}",
                b.window,
                b.max_released_pct,
                b.max_abort_pct,
                b.starvation_releases,
                b.abort_streak,
                b.cooldown,
                b.probe_window
            );
        }
        let v = &self.violation;
        let _ = writeln!(
            out,
            "violation kind={} agent={} step={}",
            v.kind.name(),
            v.agent,
            v.step
        );
        let _ = writeln!(out, "fingerprint {:#018x}", self.fingerprint);
        let _ = writeln!(out, "detail {}", v.detail);
        let _ = write!(out, "schedule");
        for a in &self.schedule {
            let _ = write!(out, " {a}");
        }
        out.push('\n');
        out
    }

    /// Parse the v1 text format. Strict: unknown lines, missing fields,
    /// and malformed numbers are errors, because a counterexample that
    /// half-parses would "replay" something other than what was found.
    pub fn parse(text: &str) -> Result<Counterexample, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.trim() == MAGIC => {}
            other => return Err(format!("bad magic line: {other:?}")),
        }
        let mut config: Option<MckConfig> = None;
        let mut breaker: Option<MckBreakerConfig> = None;
        let mut violation: Option<(ViolationKind, u16, u32)> = None;
        let mut fingerprint: Option<u64> = None;
        let mut detail: Option<String> = None;
        let mut schedule: Option<Vec<u16>> = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "config" => {
                    let mut c = MckConfig {
                        breaker: None,
                        mutation: None,
                        ..MckConfig::default()
                    };
                    for field in rest.split_whitespace() {
                        let (k, v) = field
                            .split_once('=')
                            .ok_or_else(|| format!("bad config field {field:?}"))?;
                        match k {
                            "threads" => c.threads = num(v)? as u16,
                            "windows" => c.windows = num(v)? as u16,
                            "txns" => c.txns = num(v)? as u16,
                            "k" => c.k_retries = num(v)? as u32,
                            "abort-mask" => c.abort_mask = num(v)?,
                            "swaps" => c.swaps = num(v)? as u32,
                            "tfactor" => {
                                c.tfactor = v
                                    .parse()
                                    .map_err(|_| format!("bad tfactor {v:?}"))?
                            }
                            "model" => {
                                c.fixed_model = match v {
                                    "fixed" => true,
                                    "adaptive" => false,
                                    _ => return Err(format!("unknown model {v:?}")),
                                }
                            }
                            "mutation" => {
                                c.mutation = Some(
                                    Mutation::parse(v)
                                        .ok_or_else(|| format!("unknown mutation {v:?}"))?,
                                )
                            }
                            _ => return Err(format!("unknown config key {k:?}")),
                        }
                    }
                    config = Some(c);
                }
                "breaker" => {
                    let mut b = MckBreakerConfig::default();
                    for field in rest.split_whitespace() {
                        let (k, v) = field
                            .split_once('=')
                            .ok_or_else(|| format!("bad breaker field {field:?}"))?;
                        match k {
                            "window" => b.window = num(v)?,
                            "released" => {
                                b.max_released_pct =
                                    v.parse().map_err(|_| format!("bad pct {v:?}"))?
                            }
                            "abort" => {
                                b.max_abort_pct =
                                    v.parse().map_err(|_| format!("bad pct {v:?}"))?
                            }
                            "starve" => b.starvation_releases = num(v)? as u32,
                            "streak" => b.abort_streak = num(v)? as u32,
                            "cooldown" => b.cooldown = num(v)?,
                            "probe" => b.probe_window = num(v)?,
                            _ => return Err(format!("unknown breaker key {k:?}")),
                        }
                    }
                    breaker = Some(b);
                }
                "violation" => {
                    let mut kind = None;
                    let mut agent = 0u16;
                    let mut step = 0u32;
                    for field in rest.split_whitespace() {
                        let (k, v) = field
                            .split_once('=')
                            .ok_or_else(|| format!("bad violation field {field:?}"))?;
                        match k {
                            "kind" => {
                                kind = Some(
                                    ViolationKind::parse(v)
                                        .ok_or_else(|| format!("unknown kind {v:?}"))?,
                                )
                            }
                            "agent" => agent = num(v)? as u16,
                            "step" => step = num(v)? as u32,
                            _ => return Err(format!("unknown violation key {k:?}")),
                        }
                    }
                    let kind = kind.ok_or("violation line missing kind")?;
                    violation = Some((kind, agent, step));
                }
                "fingerprint" => fingerprint = Some(num(rest.trim())?),
                "detail" => detail = Some(rest.to_string()),
                "schedule" => {
                    let mut s = Vec::new();
                    for tok in rest.split_whitespace() {
                        s.push(num(tok)? as u16);
                    }
                    schedule = Some(s);
                }
                _ => return Err(format!("unknown line tag {tag:?}")),
            }
        }
        let mut config = config.ok_or("missing config line")?;
        config.breaker = breaker;
        config.validate()?;
        let (kind, agent, step) = violation.ok_or("missing violation line")?;
        Ok(Counterexample {
            config,
            schedule: schedule.ok_or("missing schedule line")?,
            violation: Violation {
                kind,
                agent,
                step,
                detail: detail.ok_or("missing detail line")?,
            },
            fingerprint: fingerprint.ok_or("missing fingerprint line")?,
        })
    }

    /// Replay this counterexample and check it is bit-identical: same
    /// violation kind/agent/step and the same trace fingerprint as when
    /// it was captured. Returns the outcome for reporting.
    pub fn verify(&self) -> Result<ReplayOutcome, String> {
        let outcome = replay_schedule(&self.config, &self.schedule)?;
        let v = outcome
            .violation
            .as_ref()
            .ok_or("replay completed without a violation")?;
        if v.kind != self.violation.kind
            || v.agent != self.violation.agent
            || v.step != self.violation.step
        {
            return Err(format!(
                "replay diverged: file says {} agent={} step={}, replay hit {} agent={} step={}",
                self.violation.kind.name(),
                self.violation.agent,
                self.violation.step,
                v.kind.name(),
                v.agent,
                v.step
            ));
        }
        if outcome.fingerprint != self.fingerprint {
            return Err(format!(
                "trace fingerprint mismatch: file {:#018x}, replay {:#018x}",
                self.fingerprint, outcome.fingerprint
            ));
        }
        Ok(outcome)
    }
}

fn num(s: &str) -> Result<u64, String> {
    let r = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| format!("bad number {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::super::explore::{explore, ExploreOptions};
    use super::*;

    fn witness(mutation: Mutation) -> Counterexample {
        let cfg = MckConfig { threads: 2, windows: 2, abort_mask: 0, ..MckConfig::ci() }
            .reaching(mutation);
        let r = explore(
            &cfg,
            ExploreOptions { count_naive: false, ..ExploreOptions::default() },
        );
        let (schedule, v) = r.violation.expect("mutation produces a violation");
        Counterexample::capture(&cfg, schedule, v).expect("witness captures")
    }

    #[test]
    fn capture_serialize_parse_verify_round_trips() {
        for m in [Mutation::NoRelease, Mutation::StaleBlockedWord] {
            let ce = witness(m);
            let text = ce.to_text();
            let parsed = Counterexample::parse(&text).expect("parses");
            assert_eq!(parsed.config.fixed_model, m.needs_fixed_model(), "{m}");
            assert_eq!(parsed.schedule, ce.schedule);
            assert_eq!(parsed.violation, ce.violation);
            assert_eq!(parsed.fingerprint, ce.fingerprint);
            // Bit-identical replay, twice, from the parsed copy.
            let a = parsed.verify().expect("first replay");
            let b = parsed.verify().expect("second replay");
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.fingerprint, ce.fingerprint);
        }
    }

    #[test]
    fn tampered_files_are_rejected() {
        let ce = witness(Mutation::SkipReleaseRecheck);
        let text = ce.to_text();
        // Flip a fingerprint bit: replay must refuse.
        let mut parsed = Counterexample::parse(&text).unwrap();
        parsed.fingerprint ^= 1;
        assert!(parsed.verify().is_err(), "tampered fingerprint accepted");
        // Truncate the schedule: the violation is never reached.
        let mut parsed = Counterexample::parse(&text).unwrap();
        parsed.schedule.pop();
        assert!(parsed.verify().is_err(), "truncated schedule accepted");
    }

    #[test]
    fn trailing_steps_after_the_violation_are_an_error() {
        let mut ce = witness(Mutation::NoRelease);
        ce.schedule.push(0);
        assert!(replay_schedule(&ce.config, &ce.schedule).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Counterexample::parse("not a counterexample").is_err());
        let ce = witness(Mutation::NoRelease);
        let text = ce.to_text();
        assert!(Counterexample::parse(&text.replace("schedule", "sched")).is_err());
        assert!(Counterexample::parse(&text.replace("kind=", "kind=bogus-")).is_err());
    }
}
