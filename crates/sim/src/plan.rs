//! Plan-compiled sample evaluation — the characterization hot path.
//!
//! [`System::simulate_sample`] is written for clarity: every evaluation of
//! the CPU↔DRAM fixed point re-derives frequency-dependent latency terms,
//! bandwidths and power coefficients from the component models, and the
//! bisection performs ~67 such evaluations per `(sample, setting)` cell.
//! A full fine-grid characterization multiplies that by
//! `samples × 496 settings`, which is why `characterize/fine` dominates
//! every sweep, figure harness and serve cold-start.
//!
//! [`EvalPlan`] compiles a `(System, FrequencyGrid)` pair once: every
//! quantity that depends only on the *setting* (row-hit/miss latencies,
//! effective bandwidth, queueing service time, clock rates, voltage and
//! power coefficients, scaled standby currents, burst/refresh energies) is
//! hoisted into setting-major flat arrays, and every quantity that depends
//! only on the *sample* is hoisted per row. What remains in the bisection
//! inner loop is a handful of multiplies and divides over values already
//! in cache, contiguous and without a data-dependent branch (the bracket
//! update is a compare-and-blend, see `step`), so rows evaluate as tight
//! vector passes over the arrays. A row stops bisecting once a step moves
//! no bound in any cell, which is exact (see `bisect`).
//!
//! The plan is a *pure* reformulation: each cell performs the exact same
//! IEEE-754 operation sequence as [`System::simulate_sample`] (no
//! re-association, no factored constants, no reciprocal-multiply
//! substitutions), so its measurements are bit-identical to the
//! interpreted path. The equivalence suite pins this.

use crate::system::System;
use mcdvfs_dram::IddCurrents;
use mcdvfs_types::{
    FreqSetting, FrequencyGrid, Joules, SampleCharacteristics, SampleMeasurement, Seconds,
    BYTES_PER_DRAM_ACCESS, INSTRUCTIONS_PER_SAMPLE,
};

/// Per-sample constants hoisted out of the per-setting loop.
struct SamplePre {
    bytes: f64,
    accesses: f64,
    core_cycles: f64,
    stall_exposure: f64,
    mlp: f64,
    row_hit_rate: f64,
    one_minus_rhr: f64,
    activity: f64,
    write_frac: f64,
    one_minus_wf: f64,
}

/// A `(System, FrequencyGrid)` pair compiled for repeated row evaluation.
///
/// Build one with [`EvalPlan::compile`], then evaluate whole sample rows
/// with [`EvalPlan::eval_row_into`]. Results are bit-identical to calling
/// [`System::simulate_sample`] per cell.
///
/// # Examples
///
/// ```
/// use mcdvfs_sim::{EvalPlan, System};
/// use mcdvfs_types::{FrequencyGrid, SampleCharacteristics};
///
/// let system = System::galaxy_nexus_class();
/// let grid = FrequencyGrid::coarse();
/// let plan = EvalPlan::compile(&system, grid);
/// let sample = SampleCharacteristics::new(1.0, 6.0);
/// let mut row = Vec::new();
/// plan.eval_row_into(&sample, &mut row);
/// assert_eq!(row.len(), grid.len());
/// let direct = system.simulate_sample(&sample, grid.settings().next().unwrap());
/// assert_eq!(row[0], direct);
/// ```
#[derive(Debug, Clone)]
pub struct EvalPlan {
    system: System,
    settings: Vec<FreqSetting>,
    // Model-wide constants.
    ctrl_ns: f64,
    max_util: f64,
    min_cpi: f64,
    peak_dynamic_w: f64,
    activate_j: f64,
    bursts_per_access: f64,
    // Setting-major arrays, indexed by the grid's flat setting index.
    hit_ns: Vec<f64>,
    miss_mix_ns: Vec<f64>,
    service_ns: Vec<f64>,
    eff_bw: Vec<f64>,
    cpu_mhz_f: Vec<f64>,
    cpu_hz: Vec<f64>,
    v_ratio_sq: Vec<f64>,
    f_ratio: Vec<f64>,
    bg_w: Vec<f64>,
    leak_w: Vec<f64>,
    idd2n: Vec<IddCurrents>,
    idd3n: Vec<IddCurrents>,
    burst_read_j: Vec<f64>,
    burst_write_j: Vec<f64>,
    refresh_w: Vec<f64>,
}

impl EvalPlan {
    /// Compiles `system` over `grid`: one pass over the grid's settings
    /// evaluating every frequency-dependent model term exactly as the
    /// interpreted path would, stored setting-major.
    #[must_use]
    pub fn compile(system: &System, grid: FrequencyGrid) -> Self {
        let settings: Vec<FreqSetting> = grid.settings().collect();
        let n = settings.len();
        let latency = system.latency_model();
        let perf = system.perf_model();
        let cpu_power = system.cpu_power_model();
        let dram_power = system.dram_power_model();
        let vf = system.vf_curve();
        let f_ref_mhz = f64::from(cpu_power.reference_freq().mhz());

        let mut plan = Self {
            system: system.clone(),
            settings,
            ctrl_ns: latency.ctrl_overhead_ns(),
            max_util: latency.max_utilization(),
            min_cpi: perf.min_cpi(),
            peak_dynamic_w: cpu_power.peak_dynamic().value(),
            activate_j: dram_power.activate_energy().value(),
            bursts_per_access: (BYTES_PER_DRAM_ACCESS as f64
                / dram_power.timings().bytes_per_burst() as f64)
                .ceil(),
            hit_ns: Vec::with_capacity(n),
            miss_mix_ns: Vec::with_capacity(n),
            service_ns: Vec::with_capacity(n),
            eff_bw: Vec::with_capacity(n),
            cpu_mhz_f: Vec::with_capacity(n),
            cpu_hz: Vec::with_capacity(n),
            v_ratio_sq: Vec::with_capacity(n),
            f_ratio: Vec::with_capacity(n),
            bg_w: Vec::with_capacity(n),
            leak_w: Vec::with_capacity(n),
            idd2n: Vec::with_capacity(n),
            idd3n: Vec::with_capacity(n),
            burst_read_j: Vec::with_capacity(n),
            burst_write_j: Vec::with_capacity(n),
            refresh_w: Vec::with_capacity(n),
        };
        for &setting in &plan.settings {
            let (cpu, mem) = (setting.cpu, setting.mem);
            plan.hit_ns.push(latency.timings().row_hit_ns(mem));
            plan.miss_mix_ns.push(latency.miss_mix_ns(mem));
            plan.service_ns.push(latency.service_time_ns(mem));
            plan.eff_bw.push(latency.effective_bandwidth(mem));
            plan.cpu_mhz_f.push(f64::from(cpu.mhz()));
            plan.cpu_hz.push(cpu.hz());
            plan.v_ratio_sq.push(vf.voltage_ratio(cpu).powi(2));
            plan.f_ratio.push(f64::from(cpu.mhz()) / f_ref_mhz);
            // Activity 0 and busy 0 zero the dynamic term, leaving the
            // clocked background and leakage terms exactly as the
            // interpreted path computes them for this operating point.
            let idle = cpu_power.breakdown(cpu, vf, 0.0, 0.0);
            plan.bg_w.push(idle.background.value());
            plan.leak_w.push(idle.leakage.value());
            let (idd2n, idd3n) = dram_power.standby_currents(mem);
            plan.idd2n.push(idd2n);
            plan.idd3n.push(idd3n);
            plan.burst_read_j
                .push(dram_power.burst_energy(mem, false).value());
            plan.burst_write_j
                .push(dram_power.burst_energy(mem, true).value());
            plan.refresh_w.push(dram_power.refresh_power(mem).value());
        }
        plan
    }

    /// Number of settings (cells per row) the plan evaluates.
    #[must_use]
    pub fn n_settings(&self) -> usize {
        self.settings.len()
    }

    /// The settings the plan was compiled over, in grid order.
    #[must_use]
    pub fn settings(&self) -> &[FreqSetting] {
        &self.settings
    }

    fn pre(&self, chars: &SampleCharacteristics) -> SamplePre {
        SamplePre {
            bytes: chars.dram_bytes() as f64,
            accesses: chars.dram_accesses() as f64,
            core_cycles: INSTRUCTIONS_PER_SAMPLE as f64 * chars.base_cpi.max(self.min_cpi),
            stall_exposure: chars.stall_exposure,
            mlp: chars.mlp,
            row_hit_rate: chars.row_hit_rate,
            one_minus_rhr: 1.0 - chars.row_hit_rate,
            activity: chars.activity_factor,
            write_frac: chars.write_frac,
            one_minus_wf: 1.0 - chars.write_frac,
        }
    }

    /// Total cycles at a fixed queueing utilization ρ for setting `j`:
    /// the M/D/1 wait, the exposed latency and the stall-cycle
    /// conversion, in the same association order as the interpreted
    /// models. `base` is the ρ-independent latency for this row/setting.
    #[inline]
    fn total_at_rho(&self, pre: &SamplePre, base: f64, j: usize, rho: f64) -> f64 {
        let wait = rho * self.service_ns[j] / (2.0 * (1.0 - rho));
        let lat = base + wait;
        let exposed = lat * pre.stall_exposure / pre.mlp;
        let stall = pre.accesses * exposed * self.cpu_mhz_f[j] * 1e-3;
        pre.core_cycles + stall
    }

    /// Post-processes one cell's converged `(total cycles, model time)`
    /// into its measurement. Mirrors [`System::simulate_sample`] operation
    /// for operation.
    #[inline]
    fn finish_cell(
        &self,
        chars: &SampleCharacteristics,
        pre: &SamplePre,
        j: usize,
        total: f64,
        t_model: f64,
    ) -> SampleMeasurement {
        let eff_bw = self.eff_bw[j];
        let hz = self.cpu_hz[j];
        let busy_frac = pre.core_cycles / total;

        // Physical bandwidth floor, noise, busy fraction and CPI — the
        // same post-processing as the interpreted path.
        let bw_floor = if pre.bytes > 0.0 {
            pre.bytes / eff_bw
        } else {
            0.0
        };
        let time_exact = t_model.max(bw_floor);
        let time = time_exact * self.system.noise_factor(chars, self.settings[j], 1);
        let busy = (busy_frac * t_model / time_exact).min(1.0);
        let cpi = time * hz / INSTRUCTIONS_PER_SAMPLE as f64;

        // CPU energy: dynamic (scaled by activity and busy) + clocked
        // background + leakage, over the noise-free time.
        let dynamic =
            self.peak_dynamic_w * (pre.activity * busy * self.v_ratio_sq[j] * self.f_ratio[j]);
        let cpu_energy = (dynamic + self.bg_w[j] + self.leak_w[j]) * time_exact;

        // DRAM energy: utilization-blended standby, activates, bursts and
        // refresh, summed in the breakdown's component order.
        let rho_e = (pre.bytes / time_exact / eff_bw).min(self.max_util);
        let (i2, i3) = (self.idd2n[j], self.idd3n[j]);
        let blended = IddCurrents::new(
            i2.vdd1_ma + (i3.vdd1_ma - i2.vdd1_ma) * rho_e,
            i2.vdd2_ma + (i3.vdd2_ma - i2.vdd2_ma) * rho_e,
        );
        let background = self.system.dram_power_model().rail_power(blended).value() * time_exact;
        let activations = pre.accesses * pre.one_minus_rhr;
        let read_bursts = pre.accesses * self.bursts_per_access * pre.one_minus_wf;
        let write_bursts = pre.accesses * self.bursts_per_access * pre.write_frac;
        let activate = self.activate_j * activations;
        let rw = self.burst_read_j[j] * read_bursts + self.burst_write_j[j] * write_bursts;
        let refresh = self.refresh_w[j] * time_exact;
        let mem_energy = ((background + activate) + rw) + refresh;

        SampleMeasurement {
            time: Seconds::new(time),
            cpu_energy: Joules::new(cpu_energy),
            mem_energy: Joules::new(mem_energy),
            cpi,
        }
    }

    /// Evaluates one sample at every compiled setting, appending
    /// `n_settings` measurements to `out` in grid order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `chars` is invalid.
    pub fn eval_row_into(&self, chars: &SampleCharacteristics, out: &mut Vec<SampleMeasurement>) {
        let start = out.len();
        out.resize(start + self.settings.len(), SampleMeasurement::ZERO);
        self.eval_row_slice(chars, &mut out[start..]);
    }

    /// Evaluates one sample at every compiled setting, writing into a
    /// preallocated row slice of the characterization arena.
    ///
    /// The bisection runs *iteration-major*: each refinement step sweeps
    /// the whole row, so the divides of neighbouring settings overlap in
    /// the pipeline (and vectorize) instead of chaining through one cell's
    /// 64-step dependency before the next cell starts. Per cell, the
    /// operation sequence — and therefore every output bit — is unchanged
    /// from [`System::simulate_sample`]; only the interleaving across
    /// independent cells differs, and steps that provably change nothing
    /// are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != self.n_settings()`; in debug builds, when
    /// `chars` is invalid.
    pub fn eval_row_slice(&self, chars: &SampleCharacteristics, row: &mut [SampleMeasurement]) {
        debug_assert!(chars.is_valid(), "invalid sample characteristics");
        assert_eq!(row.len(), self.settings.len(), "row width mismatch");
        let pre = self.pre(chars);
        let (base, mut lo, mut hi) = self.brackets(&pre);
        self.bisect(&pre, &base, &mut lo, &mut hi);

        // Converged evaluation and per-cell post-processing.
        for (j, cell) in row.iter_mut().enumerate() {
            let t = 0.5 * (lo[j] + hi[j]);
            let rho = (pre.bytes / t / self.eff_bw[j]).min(self.max_util);
            let total = self.total_at_rho(&pre, base[j], j, rho);
            *cell = self.finish_cell(chars, &pre, j, total, total / self.cpu_hz[j]);
        }
    }

    /// The ρ-independent latency of every setting and the initial
    /// bisection brackets `(base, lo, hi)`: unloaded memory below,
    /// saturated memory above, widened to at least one part in 10¹² so the
    /// bracket is never empty.
    ///
    /// A zero-traffic sample needs no special case: ρ is exactly 0.0 at
    /// every step, so its converged cell equals the single-evaluation form
    /// the interpreted path uses.
    fn brackets(&self, pre: &SamplePre) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let w = self.settings.len();
        let mut base = vec![0.0f64; w];
        let mut lo = vec![0.0f64; w];
        let mut hi = vec![0.0f64; w];
        for j in 0..w {
            base[j] = (self.ctrl_ns + pre.row_hit_rate * self.hit_ns[j])
                + pre.one_minus_rhr * self.miss_mix_ns[j];
            let lo0 = self.total_at_rho(pre, base[j], j, 0.0) / self.cpu_hz[j];
            let hi0 = self.total_at_rho(pre, base[j], j, self.max_util) / self.cpu_hz[j];
            lo[j] = lo0;
            hi[j] = hi0.max(lo0 * (1.0 + 1e-12));
        }
        (base, lo, hi)
    }

    /// One bisection step of the fixed point T = core + stall(ρ(T)) for
    /// setting `j`: the bracket's midpoint replaces whichever bound keeps
    /// the fixed point inside.
    ///
    /// The select returns both bounds as one tuple, which compiles to a
    /// vector compare and bitwise blends. Keep it that way: two separate
    /// conditional writes (`lo = if grow { mid } else { lo }` and its
    /// mirror) compile to conditional stores behind a data-dependent
    /// branch per cell, and a bisection's decisions are close to coin
    /// flips.
    #[inline]
    fn step(&self, pre: &SamplePre, base: f64, j: usize, (l, h): (f64, f64)) -> (f64, f64) {
        let mid = 0.5 * (l + h);
        let rho = (pre.bytes / mid / self.eff_bw[j]).min(self.max_util);
        let t = self.total_at_rho(pre, base, j, rho) / self.cpu_hz[j];
        if t > mid {
            (mid, h)
        } else {
            (l, mid)
        }
    }

    /// Bisects every cell of the row in place, whole row per step, and
    /// returns how many steps moved a bound (at most 64).
    ///
    /// A step is a pure function of `(lo, hi)`, so once a whole step moves
    /// no bound every later step would repeat it unchanged: stopping there
    /// gives the same bits as running all 64 steps. Rows reach that point
    /// when every bracket has shrunk to adjacent floats. A NaN bound never
    /// compares equal, so such a row simply runs the full 64.
    fn bisect(&self, pre: &SamplePre, base: &[f64], lo: &mut [f64], hi: &mut [f64]) -> usize {
        let w = self.settings.len();
        assert!(
            base.len() == w && lo.len() == w && hi.len() == w,
            "bisection arrays must span the row"
        );
        for steps in 0..64 {
            let mut moved = false;
            for j in 0..w {
                let (l, h) = (lo[j], hi[j]);
                let (nl, nh) = self.step(pre, base[j], j, (l, h));
                moved |= (nl != l) | (nh != h);
                lo[j] = nl;
                hi[j] = nh;
            }
            if !moved {
                return steps;
            }
        }
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<SampleCharacteristics> {
        let mut v = vec![
            SampleCharacteristics::new(0.72, 0.6),
            SampleCharacteristics::new(0.55, 22.0),
            SampleCharacteristics::new(1.0, 6.0),
            SampleCharacteristics::new(0.8, 0.0), // no DRAM traffic
            SampleCharacteristics::new(0.01, 0.0), // CPI floor
        ];
        v[1].mlp = 4.0;
        v[1].row_hit_rate = 0.85;
        v[1].stall_exposure = 0.8;
        v[2].activity_factor = 0.8;
        v
    }

    /// Asserts the plan's row for `chars` equals [`System::simulate_sample`]
    /// at every setting, field by field through `to_bits`.
    fn assert_row_matches(system: &System, plan: &EvalPlan, chars: &SampleCharacteristics) {
        let mut row = Vec::new();
        plan.eval_row_into(chars, &mut row);
        assert_eq!(row.len(), plan.n_settings());
        for (cell, &setting) in row.iter().zip(plan.settings()) {
            let direct = system.simulate_sample(chars, setting);
            let bits = |m: &SampleMeasurement| {
                [
                    m.time.value().to_bits(),
                    m.cpu_energy.value().to_bits(),
                    m.mem_energy.value().to_bits(),
                    m.cpi.to_bits(),
                ]
            };
            assert_eq!(bits(cell), bits(&direct), "at {setting} for {chars:?}");
        }
    }

    #[test]
    fn plan_matches_simulate_sample_bit_for_bit() {
        for system in [
            System::galaxy_nexus_class(),
            System::galaxy_nexus_class().with_measurement_noise(0.0),
        ] {
            for grid in [
                FrequencyGrid::coarse(),
                FrequencyGrid::new(200, 1000, 200, 200, 800, 200).unwrap(),
            ] {
                let plan = EvalPlan::compile(&system, grid);
                for chars in samples() {
                    assert_row_matches(&system, &plan, &chars);
                }
            }
        }
    }

    /// Steps cell `j` alone until a step moves neither bound, as the row
    /// loop does for the whole row.
    fn cell_steps(
        plan: &EvalPlan,
        pre: &SamplePre,
        base: f64,
        j: usize,
        bracket: (f64, f64),
    ) -> usize {
        let mut bracket = bracket;
        for steps in 0..64 {
            let next = plan.step(pre, base, j, bracket);
            if next == bracket {
                return steps;
            }
            bracket = next;
        }
        64
    }

    #[test]
    fn rows_stop_at_their_slowest_cells_fixed_point() {
        let system = System::galaxy_nexus_class();
        let plan = EvalPlan::compile(&system, FrequencyGrid::fine());
        let mut chars = SampleCharacteristics::new(0.55, 22.0);
        chars.mlp = 4.0;
        let pre = plan.pre(&chars);
        let (base, mut lo, mut hi) = plan.brackets(&pre);
        let per_cell: Vec<usize> = (0..plan.n_settings())
            .map(|j| cell_steps(&plan, &pre, base[j], j, (lo[j], hi[j])))
            .collect();
        let slowest = *per_cell.iter().max().unwrap();
        assert!(
            *per_cell.iter().min().unwrap() < slowest,
            "cells must converge at different steps"
        );
        assert!(slowest < 64, "the row must stop early");
        assert_eq!(plan.bisect(&pre, &base, &mut lo, &mut hi), slowest);
        assert_row_matches(&system, &plan, &chars);
    }

    #[test]
    fn saturated_bracket_cells_match() {
        // Traffic with no exposed stall: the saturated bound equals the
        // unloaded one, so every bracket starts at the 1e-12 widening.
        let system = System::galaxy_nexus_class();
        let plan = EvalPlan::compile(&system, FrequencyGrid::coarse());
        let mut chars = SampleCharacteristics::new(1.0, 6.0);
        chars.stall_exposure = 0.0;
        assert!(chars.dram_bytes() > 0);
        let pre = plan.pre(&chars);
        let (base, lo, hi) = plan.brackets(&pre);
        for j in 0..plan.n_settings() {
            let hi0 = plan.total_at_rho(&pre, base[j], j, plan.max_util) / plan.cpu_hz[j];
            assert!(hi0 <= lo[j] * (1.0 + 1e-12), "setting {j} is not saturated");
            assert_eq!(hi[j], lo[j] * (1.0 + 1e-12));
        }
        assert_row_matches(&system, &plan, &chars);
    }

    #[test]
    fn zero_traffic_rows_stop_early_and_match() {
        let system = System::galaxy_nexus_class();
        let plan = EvalPlan::compile(&system, FrequencyGrid::fine());
        let chars = SampleCharacteristics::new(0.8, 0.0);
        let pre = plan.pre(&chars);
        let (base, mut lo, mut hi) = plan.brackets(&pre);
        assert!(plan.bisect(&pre, &base, &mut lo, &mut hi) < 64);
        assert_row_matches(&system, &plan, &chars);
    }

    #[test]
    fn slice_and_push_paths_agree() {
        let system = System::galaxy_nexus_class();
        let grid = FrequencyGrid::coarse();
        let plan = EvalPlan::compile(&system, grid);
        let chars = SampleCharacteristics::new(1.1, 4.0);
        let mut pushed = Vec::new();
        plan.eval_row_into(&chars, &mut pushed);
        let mut sliced = vec![SampleMeasurement::ZERO; plan.n_settings()];
        plan.eval_row_slice(&chars, &mut sliced);
        assert_eq!(pushed, sliced);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let plan = EvalPlan::compile(&System::galaxy_nexus_class(), FrequencyGrid::coarse());
        let mut row = Vec::new();
        plan.eval_row_slice(&SampleCharacteristics::new(1.0, 1.0), &mut row);
    }
}
