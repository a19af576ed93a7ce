//! Admission control and the graceful-degradation ladder.
//!
//! The engine measures each tick's cost against a budget in cost units:
//! in real mode one unit is one microsecond of elapsed tick time, in
//! deterministic replay mode a synthetic cost model produces them as a
//! pure function of the work. Sustained over-budget ticks climb the
//! ladder one rung at a time; sustained headroom climbs back down:
//!
//! | rung | label          | effect                                        |
//! |------|----------------|-----------------------------------------------|
//! | 0    | `full-tick`    | everything                                    |
//! | 1    | `reduced-aoi`  | tick reports shrink to the player's own cell  |
//! | 2    | `guided-bypass`| the guidance breaker is forced open           |
//! | 3    | `load-shed`    | action cap quartered, new sessions rejected   |
//!
//! Hysteresis (escalate/de-escalate streaks) keeps one noisy tick from
//! flapping the rung, mirroring the SLO watchdog's design. Within a
//! tick, admission itself is priority-ordered: the engine sorts offered
//! actions and sheds the lowest priorities first.

/// Ladder rungs, mild to drastic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Rung {
    /// Normal service.
    #[default]
    FullTick = 0,
    /// Tick reports cover only the player's own cell.
    ReducedAoi = 1,
    /// Guidance cost shed: the breaker is forced open (fail-open
    /// unguided STM); recovery rides the breaker's own probe path.
    GuidedBypass = 2,
    /// Action cap quartered and new sessions rejected.
    LoadShed = 3,
}

impl Rung {
    /// Stable numeric code (metrics).
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// Decode a code (clamped into range).
    fn from_code(code: u8) -> Rung {
        match code {
            0 => Rung::FullTick,
            1 => Rung::ReducedAoi,
            2 => Rung::GuidedBypass,
            _ => Rung::LoadShed,
        }
    }

    /// Stable label (metrics/logs).
    pub fn label(self) -> &'static str {
        match self {
            Rung::FullTick => "full-tick",
            Rung::ReducedAoi => "reduced-aoi",
            Rung::GuidedBypass => "guided-bypass",
            Rung::LoadShed => "load-shed",
        }
    }

    fn up(self) -> Rung {
        Rung::from_code(self.code().saturating_add(1).min(3))
    }

    fn down(self) -> Rung {
        Rung::from_code(self.code().saturating_sub(1))
    }
}

/// Admission/ladder tunables.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Tick budget in cost units.
    pub tick_budget: u64,
    /// Estimated cost units per admitted action.
    pub action_cost: u64,
    /// Fixed per-tick overhead in cost units (deterministic cost model).
    pub base_cost: u64,
    /// Maximum live sessions; beyond this new sessions get `Overloaded`
    /// regardless of rung.
    pub max_sessions: usize,
    /// Consecutive over-budget ticks per rung climbed.
    pub escalate_after: u32,
    /// Consecutive low-water ticks per rung descended.
    pub deescalate_after: u32,
    /// De-escalation low-water mark, percent of budget.
    pub low_water_pct: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tick_budget: 1_000,
            action_cost: 10,
            base_cost: 50,
            max_sessions: 64,
            escalate_after: 2,
            deescalate_after: 4,
            low_water_pct: 60,
        }
    }
}

/// The admission controller: per-tick action caps plus the ladder state
/// machine.
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    rung: Rung,
    over_streak: u32,
    under_streak: u32,
}

impl Admission {
    /// A controller at `full-tick`.
    pub(crate) fn new(cfg: AdmissionConfig) -> Admission {
        Admission {
            cfg,
            rung: Rung::FullTick,
            over_streak: 0,
            under_streak: 0,
        }
    }

    /// Current rung.
    pub(crate) fn rung(&self) -> Rung {
        self.rung
    }

    /// How many of `offered` actions to admit this tick; the rest are
    /// shed (lowest priority first — the caller orders them).
    pub(crate) fn admit(&self, offered: usize) -> usize {
        let budget_actions =
            (self.cfg.tick_budget.saturating_sub(self.cfg.base_cost) / self.cfg.action_cost.max(1))
                .max(1) as usize;
        let cap = if self.rung == Rung::LoadShed {
            (budget_actions / 4).max(1)
        } else {
            budget_actions
        };
        offered.min(cap)
    }

    /// Whether a new session may be admitted with `live` already
    /// connected.
    pub(crate) fn accepts_sessions(&self, live: usize) -> bool {
        live < self.cfg.max_sessions && self.rung < Rung::LoadShed
    }

    /// Synthetic cost of a tick that admitted `admitted` actions and
    /// shed `shed` — the deterministic replay's clock. Shed actions
    /// still cost a quarter unit each: shedding is cheaper than
    /// executing, not free, which is what lets sustained overload climb
    /// past the shedding rungs.
    pub(crate) fn synthetic_cost(&self, admitted: usize, shed: usize) -> u64 {
        self.cfg.base_cost
            + admitted as u64 * self.cfg.action_cost
            + shed as u64 * self.cfg.action_cost.div_ceil(4)
    }

    /// Feed one tick's measured cost; hysteresis may move the rung one
    /// step. Returns the transition, if any.
    pub(crate) fn observe_tick(&mut self, cost: u64) -> Option<(Rung, Rung)> {
        let low_water = self.cfg.tick_budget * self.cfg.low_water_pct as u64 / 100;
        if cost > self.cfg.tick_budget {
            self.under_streak = 0;
            self.over_streak += 1;
            if self.over_streak >= self.cfg.escalate_after && self.rung < Rung::LoadShed {
                let from = self.rung;
                self.rung = self.rung.up();
                self.over_streak = 0;
                return Some((from, self.rung));
            }
        } else if cost < low_water {
            self.over_streak = 0;
            self.under_streak += 1;
            if self.under_streak >= self.cfg.deescalate_after && self.rung > Rung::FullTick {
                let from = self.rung;
                self.rung = self.rung.down();
                self.under_streak = 0;
                return Some((from, self.rung));
            }
        } else {
            self.over_streak = 0;
            self.under_streak = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            tick_budget: 100,
            action_cost: 10,
            base_cost: 10,
            max_sessions: 4,
            escalate_after: 2,
            deescalate_after: 3,
            low_water_pct: 60,
        }
    }

    #[test]
    fn ladder_climbs_one_rung_at_a_time_with_hysteresis() {
        let mut a = Admission::new(cfg());
        assert_eq!(a.observe_tick(200), None, "one hot tick is noise");
        assert_eq!(a.observe_tick(200), Some((Rung::FullTick, Rung::ReducedAoi)));
        assert_eq!(a.observe_tick(200), None);
        assert_eq!(a.observe_tick(200), Some((Rung::ReducedAoi, Rung::GuidedBypass)));
        assert_eq!(a.observe_tick(200), None);
        assert_eq!(a.observe_tick(200), Some((Rung::GuidedBypass, Rung::LoadShed)));
        // Saturates at load-shed.
        assert_eq!(a.observe_tick(200), None);
        assert_eq!(a.observe_tick(200), None);
        assert_eq!(a.rung(), Rung::LoadShed);
    }

    #[test]
    fn ladder_descends_on_sustained_headroom() {
        let mut a = Admission::new(cfg());
        for _ in 0..4 {
            a.observe_tick(200);
        }
        assert_eq!(a.rung(), Rung::GuidedBypass);
        assert_eq!(a.observe_tick(20), None);
        assert_eq!(a.observe_tick(20), None);
        assert_eq!(a.observe_tick(20), Some((Rung::GuidedBypass, Rung::ReducedAoi)));
        // Mid-band cost resets both streaks.
        assert_eq!(a.observe_tick(80), None);
        assert_eq!(a.observe_tick(20), None);
        assert_eq!(a.observe_tick(20), None);
        assert_eq!(a.observe_tick(20), Some((Rung::ReducedAoi, Rung::FullTick)));
    }

    #[test]
    fn load_shed_quarters_the_cap_and_rejects_sessions() {
        let mut a = Admission::new(cfg());
        assert_eq!(a.admit(100), 9, "budget (100-10)/10 actions");
        assert!(a.accepts_sessions(3));
        assert!(!a.accepts_sessions(4), "session cap");
        for _ in 0..6 {
            a.observe_tick(500);
        }
        assert_eq!(a.rung(), Rung::LoadShed);
        assert_eq!(a.admit(100), 2, "quartered cap");
        assert!(!a.accepts_sessions(0), "load-shed rejects all new sessions");
    }

    #[test]
    fn synthetic_cost_charges_shedding_a_quarter_rate() {
        let a = Admission::new(cfg());
        assert_eq!(a.synthetic_cost(5, 0), 10 + 50);
        assert_eq!(a.synthetic_cost(5, 8), 10 + 50 + 8 * 3);
    }
}
