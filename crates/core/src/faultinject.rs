//! Deterministic, seeded fault injection for chaos testing the guided
//! STM stack.
//!
//! A [`FaultPlan`] is a *replayable* schedule of adverse events: forced
//! aborts and commit-time delays in the STM backends, gate-wait stalls
//! and state-transition storms in the guidance layer, model-file
//! corruption in `model_io`, and guardian-thread panics in `adapt`.
//! Each injection point is a named [`FaultSite`]; the code under test
//! holds an `Option<Arc<FaultPlan>>` and probes it with
//! [`FaultPlan::should_fire`] — the same zero-cost-when-disabled
//! pattern as telemetry: a disabled plan is `None` and costs one
//! branch per site.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, site, thread-slot, n)`
//! where `n` is the number of earlier probes of that site from that
//! thread slot. The generator is the same splitmix64 finalizer the
//! `schedule_replay` interleaver uses, so a chaos replay under a fixed
//! interleaving reproduces a bit-identical fault schedule: same probes
//! in the same order → same fires with the same entropy. A thread's slot
//! is its [`PerThread`] slot, so threads [`crate::sync::SLOTS`] apart
//! alias one slot; per-slot streams stay independent of each other and
//! of probe order on other slots.
//!
//! # Plan syntax
//!
//! [`FaultPlan::parse_spec`] accepts `SEED[:PLAN]` (the harness
//! `--chaos` argument). `SEED` is decimal or `0x` hex. `PLAN` is a
//! `+`-separated list of site names or plan aliases, each optionally
//! with a rate and budget: `site@PERMILLE` fires with probability
//! `PERMILLE/1000` per probe, and `site@PERMILLExBUDGET` additionally
//! disarms the site after `BUDGET` injections — how chaos runs model
//! "faults that stop", letting the breaker's half-open probe re-admit
//! guidance. Omitting `:PLAN` means `forced-aborts`.

use crate::rng::{finalize, GOLDEN};
use crate::sync::{slot_of, Mutex, PerThread};
use std::sync::atomic::{AtomicU64, Ordering};

/// Named injection points threaded through the stack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// Force a TL2 transaction attempt to abort just before commit.
    Tl2Abort = 0,
    /// Busy-delay a TL2 attempt at commit time.
    Tl2CommitDelay = 1,
    /// Force a LibTM transaction attempt to abort just before commit.
    LibtmAbort = 2,
    /// Busy-delay a LibTM attempt at commit time.
    LibtmCommitDelay = 3,
    /// Busy-stall a thread entering the guidance gate.
    GateStall = 4,
    /// Flood the live drift tracker with off-model transitions and
    /// scramble the published TSA state word.
    TransitionStorm = 5,
    /// Corrupt an encoded model (bit flip, truncation, or a tampered
    /// thread-count header) before it is decoded.
    ModelCorrupt = 6,
    /// Panic the adapt background guardian thread.
    GuardianPanic = 7,
    /// Stall the network server's accept loop for one polling round
    /// (new connections queue in the kernel backlog).
    AcceptStall = 8,
    /// Clamp one socket read or write to a prefix (short I/O — the
    /// peer's bytes arrive fragmented across polling rounds).
    PartialIo = 9,
    /// Drop a session mid-frame: the server closes the connection with
    /// bytes still buffered, as if the peer vanished.
    Disconnect = 10,
    /// Corrupt a received byte run before it reaches the frame decoder
    /// (garbage on the wire; the codec must resynchronize or hang up).
    MalformedFrame = 11,
    /// Turn a session into a slow-loris reader: its write queue stops
    /// draining, so backpressure must cap the buffering and
    /// eventually hang up.
    SlowLoris = 12,
}

/// Number of distinct [`FaultSite`]s.
const NUM_SITES: usize = 13;

/// Every site, in discriminant order.
const ALL_SITES: [FaultSite; NUM_SITES] = [
    FaultSite::Tl2Abort,
    FaultSite::Tl2CommitDelay,
    FaultSite::LibtmAbort,
    FaultSite::LibtmCommitDelay,
    FaultSite::GateStall,
    FaultSite::TransitionStorm,
    FaultSite::ModelCorrupt,
    FaultSite::GuardianPanic,
    FaultSite::AcceptStall,
    FaultSite::PartialIo,
    FaultSite::Disconnect,
    FaultSite::MalformedFrame,
    FaultSite::SlowLoris,
];

impl FaultSite {
    /// Dense index of this site.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name used in plan specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Tl2Abort => "tl2-abort",
            FaultSite::Tl2CommitDelay => "tl2-commit-delay",
            FaultSite::LibtmAbort => "libtm-abort",
            FaultSite::LibtmCommitDelay => "libtm-commit-delay",
            FaultSite::GateStall => "gate-stall",
            FaultSite::TransitionStorm => "transition-storm",
            FaultSite::ModelCorrupt => "model-corrupt",
            FaultSite::GuardianPanic => "guardian-panic",
            FaultSite::AcceptStall => "accept-stall",
            FaultSite::PartialIo => "partial-io",
            FaultSite::Disconnect => "disconnect",
            FaultSite::MalformedFrame => "malformed-frame",
            FaultSite::SlowLoris => "slow-loris",
        }
    }

    /// Inverse of [`FaultSite::name`].
    fn from_name(name: &str) -> Option<FaultSite> {
        ALL_SITES.iter().copied().find(|s| s.name() == name)
    }

    /// Default fire rate (permille) when a plan names the site without
    /// an explicit `@rate`.
    fn default_permille(self) -> u16 {
        match self {
            FaultSite::Tl2Abort | FaultSite::LibtmAbort => 125,
            FaultSite::Tl2CommitDelay | FaultSite::LibtmCommitDelay => 125,
            FaultSite::GateStall => 125,
            FaultSite::TransitionStorm => 60,
            FaultSite::ModelCorrupt => 1000,
            FaultSite::GuardianPanic => 250,
            FaultSite::AcceptStall => 60,
            FaultSite::PartialIo => 200,
            FaultSite::Disconnect => 15,
            FaultSite::MalformedFrame => 30,
            FaultSite::SlowLoris => 10,
        }
    }

    /// Default intensity: busy-wait iterations for delay/stall sites,
    /// synthetic transitions per storm. Zero for sites whose effect has
    /// no magnitude (aborts, corruption, panics).
    fn default_payload(self) -> u32 {
        match self {
            FaultSite::Tl2CommitDelay | FaultSite::LibtmCommitDelay => 2_000,
            FaultSite::GateStall => 4_000,
            FaultSite::TransitionStorm => 8,
            // Accept stalls are polling rounds skipped, not spins.
            FaultSite::AcceptStall => 2,
            // Slow-loris: polling rounds the session's reader stays
            // stuck (its write queue stops draining meanwhile).
            FaultSite::SlowLoris => 50,
            _ => 0,
        }
    }
}

/// Per-site arming: fire rate, intensity, and an optional injection
/// budget after which the site disarms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SiteConfig {
    /// Fire probability per probe, in thousandths. 0 disarms the site.
    permille: u16,
    /// Site-specific intensity (spin iterations / storm length); the
    /// actual fired value is deterministically perturbed in
    /// `[payload, 2·payload)`.
    payload: u32,
    /// Maximum injections before the site disarms; 0 = unlimited.
    budget: u64,
}

impl SiteConfig {
    fn disarmed() -> SiteConfig {
        SiteConfig { permille: 0, payload: 0, budget: 0 }
    }
}

/// One fired fault, as recorded by a logging plan (chaos replay tests
/// compare these sequences bit-for-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Which site fired.
    pub site: FaultSite,
    /// Thread slot that probed.
    pub slot: usize,
    /// Probe ordinal within that `(site, slot)` stream.
    pub n: u64,
    /// Raw entropy drawn for the fire (drives mode/intensity choices).
    pub entropy: u64,
}

/// A fired fault handed back to the injection site.
#[derive(Clone, Copy, Debug)]
pub struct InjectedFault {
    /// Raw deterministic entropy; sites derive any further choices
    /// (corruption mode, offsets) from this.
    pub entropy: u64,
    /// Busy-wait iterations / storm length, already perturbed.
    pub spins: u32,
}

/// A seeded, deterministic fault schedule. See the module docs for the
/// determinism argument and the plan syntax.
pub struct FaultPlan {
    seed: u64,
    sites: [SiteConfig; NUM_SITES],
    /// Probe ordinals: each thread slot holds one per site.
    counters: PerThread<[AtomicU64; NUM_SITES]>,
    /// Fired-injection counts per site.
    injected: [AtomicU64; NUM_SITES],
    /// When present, every fire is appended here (replay tests).
    log: Option<Mutex<Vec<FaultRecord>>>,
}

impl FaultPlan {
    /// A plan with explicit per-site arming.
    pub(crate) fn new(seed: u64, sites: [SiteConfig; NUM_SITES]) -> FaultPlan {
        FaultPlan {
            seed,
            sites,
            counters: PerThread::default(),
            injected: Default::default(),
            log: None,
        }
    }

    /// Parse `SEED[:PLAN]` (the harness `--chaos` argument).
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let (seed_s, plan_s) = match spec.split_once(':') {
            Some((a, b)) => (a, b),
            None => (spec, "forced-aborts"),
        };
        let seed = parse_u64(seed_s).ok_or_else(|| format!("bad chaos seed: {seed_s:?}"))?;
        let mut sites = [SiteConfig::disarmed(); NUM_SITES];
        let mut arm = |site: FaultSite, permille: u16, budget: u64| {
            sites[site.index()] = SiteConfig {
                permille,
                payload: site.default_payload(),
                budget,
            };
        };
        let plan_s = if plan_s.is_empty() { "forced-aborts" } else { plan_s };
        for token in plan_s.split('+') {
            let (name, rate_s) = match token.split_once('@') {
                Some((n, r)) => (n, Some(r)),
                None => (token, None),
            };
            let (permille, budget) = match rate_s {
                None => (None, 0),
                Some(r) => {
                    let (p_s, b_s) = match r.split_once('x') {
                        Some((p, b)) => (p, Some(b)),
                        None => (r, None),
                    };
                    let p: u16 = p_s
                        .parse()
                        .ok()
                        .filter(|&p| p <= 1000)
                        .ok_or_else(|| format!("bad fault rate (0..=1000 permille): {token:?}"))?;
                    let b: u64 = match b_s {
                        None => 0,
                        Some(b) => b
                            .parse()
                            .map_err(|_| format!("bad fault budget: {token:?}"))?,
                    };
                    (Some(p), b)
                }
            };
            let one = |site: FaultSite| (site, permille.unwrap_or(site.default_permille()));
            let members: Vec<(FaultSite, u16)> = match name {
                "forced-aborts" => vec![one(FaultSite::Tl2Abort), one(FaultSite::LibtmAbort)],
                "commit-delays" => vec![
                    one(FaultSite::Tl2CommitDelay),
                    one(FaultSite::LibtmCommitDelay),
                ],
                "gate-stalls" => vec![one(FaultSite::GateStall)],
                "storms" => vec![one(FaultSite::TransitionStorm)],
                "corrupt-model" => vec![one(FaultSite::ModelCorrupt)],
                "guardian-panic" => vec![one(FaultSite::GuardianPanic)],
                "socket" => vec![
                    one(FaultSite::AcceptStall),
                    one(FaultSite::PartialIo),
                    one(FaultSite::Disconnect),
                    one(FaultSite::MalformedFrame),
                    one(FaultSite::SlowLoris),
                ],
                "all" => ALL_SITES.iter().map(|&s| one(s)).collect(),
                other => match FaultSite::from_name(other) {
                    Some(site) => vec![one(site)],
                    None => return Err(format!("unknown fault site or plan: {other:?}")),
                },
            };
            for (site, permille) in members {
                arm(site, permille, budget);
            }
        }
        Ok(FaultPlan::new(seed, sites))
    }

    /// Enable the fire log (used by replay tests to compare schedules).
    pub fn with_log(mut self) -> FaultPlan {
        self.log = Some(Mutex::new(Vec::new()));
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of the fire log (empty unless [`FaultPlan::with_log`]).
    pub fn log(&self) -> Vec<FaultRecord> {
        self.log.as_ref().map(|l| l.lock().clone()).unwrap_or_default()
    }

    /// Deterministic draw for probe `n` of `(site, slot)`.
    fn draw(&self, site: FaultSite, slot: usize, n: u64) -> u64 {
        let stream = self.seed ^ finalize(((site.index() as u64) << 32) | (slot as u64 + 1));
        finalize(stream.wrapping_add(n.wrapping_add(1).wrapping_mul(GOLDEN)))
    }

    /// Probe `site` from `thread`. Returns the fired fault, or `None`
    /// (not armed / out of budget / this probe's draw says no).
    pub fn should_fire(&self, site: FaultSite, thread: usize) -> Option<InjectedFault> {
        let cfg = self.sites[site.index()];
        if cfg.permille == 0 {
            return None;
        }
        let slot = slot_of(thread);
        let n = self.counters.get(slot)[site.index()].fetch_add(1, Ordering::Relaxed);
        let entropy = self.draw(site, slot, n);
        if entropy % 1000 >= cfg.permille as u64 {
            return None;
        }
        // Claim a budget slot *after* the draw so the per-slot streams
        // stay pure functions of (seed, site, slot, n).
        let fired_before = self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        if cfg.budget != 0 && fired_before >= cfg.budget {
            self.injected[site.index()].fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        let spins = if cfg.payload == 0 {
            0
        } else {
            cfg.payload + ((entropy >> 32) % cfg.payload as u64) as u32
        };
        if let Some(log) = &self.log {
            log.lock().push(FaultRecord { site, slot, n, entropy });
        }
        Some(InjectedFault { entropy, spins })
    }

    /// Probe the model-corruption site and, on fire, deterministically
    /// mutate `bytes` — a bit flip, a truncation, or a tampered
    /// thread-count header byte. Returns the corruption mode applied.
    pub fn corrupt_model(&self, bytes: &mut Vec<u8>) -> Option<&'static str> {
        let fault = self.should_fire(FaultSite::ModelCorrupt, 0)?;
        if bytes.is_empty() {
            return Some("noop");
        }
        let e = fault.entropy;
        Some(match e % 3 {
            0 => {
                let off = ((e / 3) % bytes.len() as u64) as usize;
                bytes[off] ^= 1 << ((e >> 17) % 8);
                "bit-flip"
            }
            1 => {
                let keep = ((e / 3) % bytes.len() as u64) as usize;
                bytes.truncate(keep);
                "truncate"
            }
            _ => {
                // The thread-count varint sits right after MAGIC+version
                // (offset 5 in the v2 header); tampering with it must be
                // caught by the decoder's thread-count consistency check.
                let off = 5.min(bytes.len() - 1);
                bytes[off] = bytes[off].wrapping_add(1);
                "thread-count"
            }
        })
    }
}

/// Busy-wait `spins` iterations (the delay/stall payload).
#[inline]
pub(crate) fn spin_for(spins: u32) {
    for _ in 0..spins {
        std::hint::spin_loop();
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_config(p: &FaultPlan, site: FaultSite) -> SiteConfig {
        p.sites[site.index()]
    }

    fn armed(p: &FaultPlan, site: FaultSite) -> bool {
        site_config(p, site).permille > 0
    }

    #[test]
    fn parse_seed_only_defaults_to_forced_aborts() {
        let p = FaultPlan::parse_spec("42").unwrap();
        assert_eq!(p.seed(), 42);
        assert!(armed(&p, FaultSite::Tl2Abort));
        assert!(armed(&p, FaultSite::LibtmAbort));
        assert!(!armed(&p, FaultSite::GateStall));
        assert!(!armed(&p, FaultSite::ModelCorrupt));
    }

    #[test]
    fn parse_hex_seed_and_explicit_plan() {
        let p = FaultPlan::parse_spec("0xfeed:gate-stalls+corrupt-model").unwrap();
        assert_eq!(p.seed(), 0xfeed);
        assert!(armed(&p, FaultSite::GateStall));
        assert!(armed(&p, FaultSite::ModelCorrupt));
        assert!(!armed(&p, FaultSite::Tl2Abort));
    }

    #[test]
    fn parse_rates_and_budgets() {
        let p = FaultPlan::parse_spec("7:tl2-abort@500x100+storms@30").unwrap();
        let a = site_config(&p, FaultSite::Tl2Abort);
        assert_eq!((a.permille, a.budget), (500, 100));
        let s = site_config(&p, FaultSite::TransitionStorm);
        assert_eq!((s.permille, s.budget), (30, 0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse_spec("nope").is_err());
        assert!(FaultPlan::parse_spec("1:warp-core-breach").is_err());
        assert!(FaultPlan::parse_spec("1:tl2-abort@1001").is_err());
        assert!(FaultPlan::parse_spec("1:tl2-abort@5xq").is_err());
    }

    #[test]
    fn site_names_round_trip() {
        for site in ALL_SITES {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("bogus"), None);
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let fire_seq = |seed: u64| -> Vec<FaultRecord> {
            let p = FaultPlan::parse_spec(&format!("{seed}:all")).unwrap().with_log();
            for t in 0..3usize {
                for _ in 0..200 {
                    p.should_fire(FaultSite::Tl2Abort, t);
                    p.should_fire(FaultSite::GateStall, t);
                }
            }
            p.log()
        };
        let a = fire_seq(1234);
        let b = fire_seq(1234);
        assert_eq!(a, b, "same seed must reproduce the fault schedule");
        assert!(!a.is_empty(), "default rates must fire within 600 probes");
        let c = fire_seq(4321);
        assert_ne!(a, c, "distinct seeds must yield distinct schedules");
    }

    #[test]
    fn per_slot_streams_are_independent_of_probe_interleaving() {
        let probes = |order: &[usize]| -> Vec<(usize, u64)> {
            let p = FaultPlan::parse_spec("99:gate-stalls@900").unwrap().with_log();
            for &t in order {
                p.should_fire(FaultSite::GateStall, t);
            }
            let mut per_slot: Vec<(usize, u64)> =
                p.log().iter().map(|r| (r.slot, r.entropy)).collect();
            per_slot.sort_unstable();
            per_slot
        };
        let a = probes(&[0, 1, 0, 1, 0, 1]);
        let b = probes(&[0, 0, 0, 1, 1, 1]);
        assert_eq!(a, b, "a slot's draws must not depend on other slots' probes");
    }

    #[test]
    fn budget_disarms_site() {
        let p = FaultPlan::parse_spec("5:tl2-abort@1000x3").unwrap();
        let mut fired = 0;
        for _ in 0..100 {
            if p.should_fire(FaultSite::Tl2Abort, 0).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 3, "site must disarm after its budget");
        assert_eq!(p.injected(FaultSite::Tl2Abort), 3);
    }

    #[test]
    fn disarmed_site_never_fires_or_counts() {
        let p = FaultPlan::parse_spec("5:gate-stalls").unwrap();
        for _ in 0..1000 {
            assert!(p.should_fire(FaultSite::Tl2Abort, 0).is_none());
        }
        assert_eq!(p.injected(FaultSite::Tl2Abort), 0);
        assert!(p.injected(FaultSite::GateStall) == 0, "unprobed site");
    }

    #[test]
    fn fire_rate_tracks_permille() {
        let p = FaultPlan::parse_spec("77:tl2-abort@250").unwrap();
        let n = 10_000;
        for _ in 0..n {
            p.should_fire(FaultSite::Tl2Abort, 0);
        }
        let fired = p.injected(FaultSite::Tl2Abort) as f64;
        let rate = fired / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.02,
            "observed fire rate {rate} too far from 0.25"
        );
    }

    #[test]
    fn delay_payload_is_bounded_and_deterministic() {
        let p = FaultPlan::parse_spec("3:commit-delays@1000").unwrap();
        let f1 = p.should_fire(FaultSite::Tl2CommitDelay, 0).unwrap();
        let base = FaultSite::Tl2CommitDelay.default_payload();
        assert!(f1.spins >= base && f1.spins < 2 * base);
        let q = FaultPlan::parse_spec("3:commit-delays@1000").unwrap();
        let f2 = q.should_fire(FaultSite::Tl2CommitDelay, 0).unwrap();
        assert_eq!(f1.spins, f2.spins);
    }
}
