//! The online policy trait and the three shipped policies.
//!
//! A [`Policy`] is the partial-information counterpart of an oracle
//! governor: each interval it sees only the device's own
//! [`SettingCatalog`], the current [`StepContext`] (battery, temperature,
//! load, deadline, energy allowance), and [`Feedback`] from the *previous*
//! interval — never the characterization grid, never the future. Decisions
//! are flat catalog indices, so policies are agnostic to how many DVFS
//! domains the device has.
//!
//! Predictions extrapolate the last observation by per-domain frequency
//! scaling ([`SettingCatalog::scale_time`] /
//! [`SettingCatalog::scale_energy`]), blended by the per-domain energy
//! attribution the feedback carries. Everything is pure `f64` arithmetic
//! over fixed iteration orders, so every policy is bit-deterministic.
//!
//! A search builds one [`Prediction`](crate::Prediction) per decision —
//! each domain's time and energy term for every level on its axis — so
//! scoring a candidate is `n_domains` table loads with no allocation.

use crate::catalog::SettingCatalog;
use mcdvfs_core::ratelimit::RateLimiter;
use mcdvfs_types::{Joules, Seconds, Watts};

/// What the device observed about the previous interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Feedback {
    /// Catalog index the interval executed at.
    pub index: usize,
    /// Measured execution time, seconds.
    pub time: f64,
    /// Measured energy, joules.
    pub energy: f64,
    /// Per-domain energy attribution (one weight per catalog domain,
    /// summing to 1) — the device's rail meters, not oracle knowledge.
    pub domain_weights: Vec<f64>,
}

/// The device context an online policy may consult for one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepContext {
    /// Remaining battery charge fraction, `[0, 1]`.
    pub battery_fraction: f64,
    /// Die temperature, °C.
    pub temperature_c: f64,
    /// Offered utilisation, `[0, 1]`.
    pub load: f64,
    /// Absolute deadline for this interval, seconds.
    pub deadline: f64,
    /// Energy granted to this interval, joules (∞ when unconstrained).
    pub energy_allowance: f64,
}

/// One policy decision: a catalog index plus accounting hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyDecision {
    /// Chosen flat catalog index.
    pub index: usize,
    /// Candidate settings the policy evaluated (0 = reused without search;
    /// charged as tuning overhead by the governed runner).
    pub evaluated: usize,
    /// `true` when no setting fit the remaining energy envelope and the
    /// policy fell back to its cheapest prediction.
    pub budget_exhausted: bool,
}

/// A deterministic online setting-selection policy.
///
/// Contract: `decide` is called once per interval in trace order with no
/// lookahead; `feedback` is `None` only on the first interval. A policy
/// must be a pure function of its own state and these arguments — no
/// clocks, no randomness — so replays are bit-identical.
pub trait Policy {
    /// Stable policy name (used for reporting and cache hashing).
    fn name(&self) -> &str;

    /// Picks the catalog index for the next interval.
    fn decide(
        &mut self,
        catalog: &SettingCatalog,
        ctx: &StepContext,
        feedback: Option<&Feedback>,
    ) -> PolicyDecision;
}

fn decision(index: usize, evaluated: usize) -> PolicyDecision {
    PolicyDecision {
        index,
        evaluated,
        budget_exhausted: false,
    }
}

/// Cheapest setting whose predicted time meets the deadline, falling back
/// to the fastest setting when none does (SNIPPETS.md `selectForDeadline`).
#[derive(Debug, Clone, Default)]
pub struct DeadlineDriven {
    _private: (),
}

impl DeadlineDriven {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for DeadlineDriven {
    fn name(&self) -> &str {
        "deadline"
    }

    fn decide(
        &mut self,
        catalog: &SettingCatalog,
        ctx: &StepContext,
        feedback: Option<&Feedback>,
    ) -> PolicyDecision {
        let Some(fb) = feedback else {
            // No observation yet: the only deadline-safe choice is fastest.
            return decision(catalog.fastest(), catalog.len());
        };
        let prediction = catalog.predict(fb.time, fb.energy, fb.index, &fb.domain_weights);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..catalog.len() {
            if prediction.time_at(i) > ctx.deadline {
                continue;
            }
            let e = prediction.energy_at(i);
            if best.is_none_or(|(_, be)| e < be) {
                best = Some((i, e));
            }
        }
        let index = best.map_or(catalog.fastest(), |(i, _)| i);
        decision(index, catalog.len())
    }
}

/// Fastest setting whose predicted energy fits the remaining envelope,
/// with unspent allowance carried over — and overdraft carried forward —
/// across intervals (SNIPPETS.md `selectForEnergy`; Trehan et al.'s
/// energy-budgeted selection).
#[derive(Debug, Clone, Default)]
pub struct EnergyBudgetDriven {
    carryover: f64,
}

impl EnergyBudgetDriven {
    /// Unspent allowance may bank up to this many intervals' worth.
    pub const MAX_BANK_INTERVALS: f64 = 4.0;

    /// Creates the policy with an empty bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Policy for EnergyBudgetDriven {
    fn name(&self) -> &str {
        "energy_budget"
    }

    fn decide(
        &mut self,
        catalog: &SettingCatalog,
        ctx: &StepContext,
        feedback: Option<&Feedback>,
    ) -> PolicyDecision {
        self.carryover += ctx.energy_allowance;
        if let Some(fb) = feedback {
            self.carryover -= fb.energy;
        }
        if ctx.energy_allowance.is_finite() {
            self.carryover = self
                .carryover
                .min(Self::MAX_BANK_INTERVALS * ctx.energy_allowance);
        }
        let Some(fb) = feedback else {
            // No observation to predict from: spend nothing we cannot
            // account for and start at the slowest setting.
            return decision(catalog.slowest(), catalog.len());
        };
        let prediction = catalog.predict(fb.time, fb.energy, fb.index, &fb.domain_weights);
        let mut best_fit: Option<(usize, f64)> = None;
        let mut cheapest: (usize, f64) = (catalog.slowest(), f64::INFINITY);
        for i in 0..catalog.len() {
            let e = prediction.energy_at(i);
            if e < cheapest.1 {
                cheapest = (i, e);
            }
            if e <= self.carryover {
                let s = catalog.speed_factor(i);
                if best_fit.is_none_or(|(_, bs)| s > bs) {
                    best_fit = Some((i, s));
                }
            }
        }
        match best_fit {
            Some((i, _)) => decision(i, catalog.len()),
            None => PolicyDecision {
                index: cheapest.0,
                evaluated: catalog.len(),
                budget_exhausted: true,
            },
        }
    }
}

/// Hysteresis-banded reaction to battery/thermal/load context with
/// rate-limited, one-level-per-domain transitions (Rizvandi-style monotone
/// stepping). The battery power cap is computed through
/// [`mcdvfs_core::ratelimit::RateLimiter`], the same per-window energy
/// accounting the rate-limited replay uses.
#[derive(Debug, Clone)]
pub struct Reactive {
    min_dwell: usize,
    dwell: usize,
    current: Option<usize>,
    target_frac: f64,
}

impl Default for Reactive {
    fn default() -> Self {
        Self::new()
    }
}

impl Reactive {
    /// Load above which the policy targets full speed.
    pub const LOAD_HIGH: f64 = 0.75;
    /// Load below which the policy targets the low band.
    pub const LOAD_LOW: f64 = 0.35;
    /// Intervals a chosen setting must dwell before the next transition.
    pub const MIN_DWELL: usize = 3;
    /// Idle draw assumed when deriving the power cap from the allowance.
    pub const IDLE_POWER_W: f64 = 0.01;

    /// Creates the policy with the default dwell of [`Self::MIN_DWELL`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_min_dwell(Self::MIN_DWELL)
    }

    /// Creates the policy with an explicit transition rate limit: at most
    /// one transition per `min_dwell` intervals (≥ 1).
    #[must_use]
    pub fn with_min_dwell(min_dwell: usize) -> Self {
        Self {
            min_dwell: min_dwell.max(1),
            dwell: 0,
            current: None,
            target_frac: 1.0,
        }
    }

    /// Speed-fraction ceiling imposed by context bands: thermal throttle
    /// levels and battery-saver levels, whichever is tightest.
    fn context_cap(ctx: &StepContext) -> f64 {
        let thermal: f64 = if ctx.temperature_c >= 85.0 {
            0.55
        } else if ctx.temperature_c >= 70.0 {
            0.8
        } else {
            1.0
        };
        let battery = if ctx.battery_fraction < 0.15 {
            0.5
        } else if ctx.battery_fraction < 0.3 {
            0.75
        } else {
            1.0
        };
        thermal.min(battery)
    }

    /// Average-power cap for the interval, derived from the energy
    /// allowance over the deadline window via [`RateLimiter`]; `None` when
    /// the run is unconstrained.
    fn power_cap(ctx: &StepContext) -> Option<f64> {
        if !ctx.energy_allowance.is_finite() {
            return None;
        }
        RateLimiter::new(
            Joules::new(ctx.energy_allowance),
            Seconds::new(ctx.deadline),
            Watts::new(Self::IDLE_POWER_W),
        )
        .ok()
        .map(|limiter| limiter.average_power_cap().value())
    }
}

impl Policy for Reactive {
    fn name(&self) -> &str {
        "reactive"
    }

    fn decide(
        &mut self,
        catalog: &SettingCatalog,
        ctx: &StepContext,
        feedback: Option<&Feedback>,
    ) -> PolicyDecision {
        let Some(current) = self.current else {
            // Boot at the platform's power-on setting; the runner boots the
            // controller at maximum, so this avoids a gratuitous first hop.
            self.current = Some(catalog.fastest());
            return decision(catalog.fastest(), catalog.len());
        };

        // Hysteresis: only loads outside the band move the target.
        if ctx.load >= Self::LOAD_HIGH {
            self.target_frac = 1.0;
        } else if ctx.load <= Self::LOAD_LOW {
            self.target_frac = 0.45;
        }
        let mut frac = self.target_frac.min(Self::context_cap(ctx));

        // Observed power above the rate-limited cap forces a step down
        // regardless of load.
        if let (Some(cap), Some(fb)) = (Self::power_cap(ctx), feedback) {
            if fb.time > 0.0 && fb.energy / fb.time > cap {
                let below = catalog.speed_factor(current) - 1.0 / catalog.len() as f64;
                frac = frac.min(below.max(0.0));
            }
        }

        let target = catalog.index_at_fraction(frac);
        self.dwell += 1;
        let mut next = current;
        if target != current && self.dwell >= self.min_dwell {
            next = catalog.step_toward(current, target);
            if next != current {
                self.dwell = 0;
            }
        }
        self.current = Some(next);
        let evaluated = usize::from(next != current) * catalog.n_domains();
        decision(next, evaluated)
    }
}

/// Names of the shipped policies, in presentation order.
pub const SHIPPED_POLICIES: [&str; 3] = ["deadline", "energy_budget", "reactive"];

/// Constructs a shipped policy by name with its default knobs, or `None`
/// for an unknown name.
#[must_use]
pub fn build_policy(name: &str) -> Option<Box<dyn Policy>> {
    match name {
        "deadline" => Some(Box::new(DeadlineDriven::new())),
        "energy_budget" => Some(Box::new(EnergyBudgetDriven::new())),
        "reactive" => Some(Box::new(Reactive::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_types::FrequencyGrid;

    fn catalog() -> SettingCatalog {
        SettingCatalog::from_grid(&FrequencyGrid::coarse())
    }

    fn ctx(deadline: f64, allowance: f64) -> StepContext {
        StepContext {
            battery_fraction: 0.8,
            temperature_c: 45.0,
            load: 0.5,
            deadline,
            energy_allowance: allowance,
        }
    }

    fn fb(catalog: &SettingCatalog, index: usize, time: f64, energy: f64) -> Feedback {
        let n = catalog.n_domains();
        let mut domain_weights = vec![0.4 / (n - 1) as f64; n];
        domain_weights[0] = 0.6;
        Feedback {
            index,
            time,
            energy,
            domain_weights,
        }
    }

    #[test]
    fn deadline_driven_starts_fastest_then_relaxes() {
        let c = catalog();
        let mut p = DeadlineDriven::new();
        let first = p.decide(&c, &ctx(1.0, f64::INFINITY), None);
        assert_eq!(first.index, c.fastest());
        // Loose deadline: a slower, cheaper setting is predicted feasible.
        let f = fb(&c, c.fastest(), 0.01, 0.05);
        let relaxed = p.decide(&c, &ctx(0.05, f64::INFINITY), Some(&f));
        assert!(relaxed.index < c.fastest());
        // Impossible deadline: falls back to fastest.
        let tight = p.decide(&c, &ctx(1e-9, f64::INFINITY), Some(&f));
        assert_eq!(tight.index, c.fastest());
        assert!(!tight.budget_exhausted);
    }

    #[test]
    fn energy_budget_spends_what_the_envelope_allows() {
        let c = catalog();
        let mut p = EnergyBudgetDriven::new();
        let first = p.decide(&c, &ctx(1.0, 1.0), None);
        assert_eq!(first.index, c.slowest(), "starts conservatively");
        // Generous allowance: runs fast.
        let f = fb(&c, c.slowest(), 0.05, 0.02);
        let rich = p.decide(&c, &ctx(1.0, 10.0), Some(&f));
        assert_eq!(rich.index, c.fastest());
        // Starved allowance after the bank drains: exhausts.
        let mut starving = EnergyBudgetDriven::new();
        let costly = fb(&c, c.slowest(), 0.05, 5.0);
        let d = starving.decide(&c, &ctx(1.0, 1e-6), Some(&costly));
        assert!(d.budget_exhausted);
        assert_eq!(d.index, c.slowest(), "cheapest prediction is slowest");
    }

    #[test]
    fn energy_budget_banks_carryover_but_caps_it() {
        let c = catalog();
        let mut p = EnergyBudgetDriven::new();
        let f = fb(&c, c.slowest(), 0.05, 0.1);
        for _ in 0..20 {
            let _ = p.decide(&c, &ctx(1.0, 1.0), Some(&f));
        }
        assert!(p.carryover <= EnergyBudgetDriven::MAX_BANK_INTERVALS * 1.0 + 1e-12);
        assert!(p.carryover > 1.0, "unspent allowance accumulated");
    }

    #[test]
    fn reactive_rate_limits_transitions() {
        let c = catalog();
        let mut p = Reactive::new();
        let mut low = ctx(1.0, f64::INFINITY);
        low.load = 0.1;
        let mut last = p.decide(&c, &low, None).index;
        let mut transitions = 0;
        for i in 0..12 {
            let f = fb(&c, last, 0.01, 0.02);
            let d = p.decide(&c, &low, Some(&f));
            if d.index != last {
                transitions += 1;
            } else {
                assert_eq!(d.evaluated, 0, "reuse is free at step {i}");
            }
            last = d.index;
        }
        assert!(transitions >= 1, "low load must step down eventually");
        assert!(
            transitions <= 12 / Reactive::MIN_DWELL + 1,
            "dwell bounds the transition rate: {transitions}"
        );
    }

    #[test]
    fn reactive_thermal_band_caps_speed() {
        let c = catalog();
        let mut p = Reactive::with_min_dwell(1);
        let mut hot = ctx(1.0, f64::INFINITY);
        hot.load = 0.95;
        hot.temperature_c = 90.0;
        let mut last = p.decide(&c, &hot, None).index;
        for _ in 0..c.len() {
            let f = fb(&c, last, 0.01, 0.02);
            last = p.decide(&c, &hot, Some(&f)).index;
        }
        assert!(
            c.speed_factor(last) <= 0.55 + 1e-9,
            "throttled to the hot band: {}",
            c.speed_factor(last)
        );
    }

    #[test]
    fn shipped_policy_factory_knows_every_name() {
        for name in SHIPPED_POLICIES {
            let p = build_policy(name).expect("shipped policy");
            assert_eq!(p.name(), name);
        }
        assert!(build_policy("nope").is_none());
    }
}
