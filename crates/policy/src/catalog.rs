//! The setting catalog: what a device knows about its own knobs.
//!
//! Policies never see a characterization grid; they see a
//! [`SettingCatalog`] — the device's own frequency tables, one ascending
//! axis per DVFS domain, with every cross-product setting addressed by a
//! flat index. Nothing in the catalog (or in the [`Policy`] trait that
//! consumes it) names CPU or memory: a domain is just an axis position, so
//! the same policies run unchanged on an N-domain device.
//!
//! For the two-domain grids of this reproduction the flat index order
//! matches [`FrequencyGrid`] exactly (first axis major), which is what lets
//! the governor adapter map decisions back onto grid settings without a
//! lookup table.
//!
//! [`Policy`]: crate::Policy

use mcdvfs_types::FrequencyGrid;

/// Per-domain frequency axes with flat mixed-radix setting indices.
///
/// Construction precomputes every index's per-domain levels, term slots
/// and speed factor, so the per-candidate reads of a policy search are
/// table loads.
#[derive(Debug, Clone, PartialEq)]
pub struct SettingCatalog {
    /// Ascending frequency steps (MHz) per domain, outermost axis first.
    axes: Vec<Vec<f64>>,
    /// Per-domain levels of every flat index, `n_domains` entries each.
    levels: Vec<usize>,
    /// Like `levels`, but each entry is the position of that domain and
    /// level in a [`Prediction`]'s per-level terms (the domain's block
    /// offset plus the level).
    term_slots: Vec<usize>,
    /// [`Self::speed_factor`] of every flat index.
    speed: Vec<f64>,
}

/// Per-domain time term: the `weight` share of `time` observed at
/// `from_mhz`, stretched to `to_mhz` by inverse-frequency scaling.
fn time_term(weight: f64, time: f64, from_mhz: f64, to_mhz: f64) -> f64 {
    weight * time * from_mhz / to_mhz
}

/// Per-domain energy term: the `weight` share of `energy` observed at
/// `from_mhz`, scaled quadratically (dynamic energy ∝ V²·f per unit work
/// ≈ f²) to `to_mhz`.
fn energy_term(weight: f64, energy: f64, from_mhz: f64, to_mhz: f64) -> f64 {
    let r = to_mhz / from_mhz;
    weight * energy * r * r
}

impl SettingCatalog {
    /// Builds a catalog from explicit per-domain axes.
    ///
    /// # Panics
    ///
    /// Panics when there are no axes, any axis is empty, or any axis is not
    /// strictly ascending and positive.
    #[must_use]
    pub fn new(axes: Vec<Vec<f64>>) -> Self {
        assert!(!axes.is_empty(), "a catalog needs at least one domain");
        for (d, axis) in axes.iter().enumerate() {
            assert!(!axis.is_empty(), "domain {d} has no frequency steps");
            assert!(
                axis.windows(2).all(|w| w[0] < w[1]) && axis[0] > 0.0,
                "domain {d} steps must be positive and strictly ascending"
            );
        }
        let n = axes.len();
        let len: usize = axes.iter().map(Vec::len).product();
        let offsets: Vec<usize> = axes
            .iter()
            .scan(0, |start, axis| {
                let offset = *start;
                *start += axis.len();
                Some(offset)
            })
            .collect();
        let mut levels = vec![0usize; len * n];
        for (index, row) in levels.chunks_exact_mut(n).enumerate() {
            let mut rest = index;
            for (d, axis) in axes.iter().enumerate().rev() {
                row[d] = rest % axis.len();
                rest /= axis.len();
            }
        }
        let speed = levels
            .chunks_exact(n)
            .map(|row| {
                let sum: f64 = axes
                    .iter()
                    .zip(row)
                    .map(|(axis, &l)| axis[l] / axis[axis.len() - 1])
                    .sum();
                sum / n as f64
            })
            .collect();
        let term_slots = levels
            .iter()
            .enumerate()
            .map(|(k, &l)| offsets[k % n] + l)
            .collect();
        Self {
            axes,
            levels,
            term_slots,
            speed,
        }
    }

    /// Builds the catalog for a two-domain [`FrequencyGrid`]; flat indices
    /// coincide with the grid's.
    #[must_use]
    pub fn from_grid(grid: &FrequencyGrid) -> Self {
        Self::new(vec![
            grid.cpu_freqs().map(|f| f64::from(f.mhz())).collect(),
            grid.mem_freqs().map(|f| f64::from(f.mhz())).collect(),
        ])
    }

    /// Number of DVFS domains.
    #[must_use]
    pub fn n_domains(&self) -> usize {
        self.axes.len()
    }

    /// Number of settings (product of axis lengths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.speed.len()
    }

    /// Always `false`: construction rejects empty axes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of the all-minimum setting.
    #[must_use]
    pub fn slowest(&self) -> usize {
        0
    }

    /// Flat index of the all-maximum setting.
    #[must_use]
    pub fn fastest(&self) -> usize {
        self.len() - 1
    }

    /// Per-domain level indices of flat index `index` (outermost first).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn levels_of(&self, index: usize) -> &[usize] {
        assert!(index < self.len(), "setting index {index} out of bounds");
        let n = self.axes.len();
        &self.levels[index * n..(index + 1) * n]
    }

    /// Flat index of per-domain `levels` (outermost first).
    ///
    /// # Panics
    ///
    /// Panics when the level count or any level is out of bounds.
    #[must_use]
    pub fn index_of_levels(&self, levels: &[usize]) -> usize {
        assert_eq!(levels.len(), self.axes.len(), "one level per domain");
        self.index_where(|d| levels[d])
    }

    /// Flat index whose level on each domain `d` is `level(d)`.
    fn index_where(&self, mut level: impl FnMut(usize) -> usize) -> usize {
        self.axes.iter().enumerate().fold(0, |index, (d, axis)| {
            let l = level(d);
            assert!(l < axis.len(), "domain {d} level out of bounds");
            index * axis.len() + l
        })
    }

    /// Frequency (MHz) of `index` on `domain`.
    ///
    /// # Panics
    ///
    /// Panics when `index` or `domain` is out of bounds.
    #[must_use]
    pub fn frequency_mhz(&self, index: usize, domain: usize) -> f64 {
        self.axes[domain][self.levels_of(index)[domain]]
    }

    /// Mean over domains of the setting's frequency relative to that
    /// domain's maximum, in `(0, 1]`; `1.0` exactly at [`Self::fastest`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn speed_factor(&self, index: usize) -> f64 {
        self.speed[index]
    }

    /// Predicted execution time at `to`, given `time` observed at `from`:
    /// per-domain inverse-frequency scaling blended by `weights` (one per
    /// domain, summing to ~1 — the observed per-domain sensitivity).
    /// Bit-identical to [`Prediction::time_at`] over the same observation.
    ///
    /// # Panics
    ///
    /// Panics when `weights` does not have one entry per domain.
    #[must_use]
    pub fn scale_time(&self, time: f64, from: usize, to: usize, weights: &[f64]) -> f64 {
        self.scale_cell(time_term, time, from, to, weights)
    }

    /// Predicted energy at `to`, given `energy` observed at `from`:
    /// per-domain quadratic frequency scaling blended by `weights`.
    /// Bit-identical to [`Prediction::energy_at`] over the same
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics when `weights` does not have one entry per domain.
    #[must_use]
    pub fn scale_energy(&self, energy: f64, from: usize, to: usize, weights: &[f64]) -> f64 {
        self.scale_cell(energy_term, energy, from, to, weights)
    }

    /// One cell of a prediction: `term` summed over domains in axis order.
    fn scale_cell(
        &self,
        term: fn(f64, f64, f64, f64) -> f64,
        observed: f64,
        from: usize,
        to: usize,
        weights: &[f64],
    ) -> f64 {
        assert_eq!(weights.len(), self.axes.len(), "one weight per domain");
        let (from_l, to_l) = (self.levels_of(from), self.levels_of(to));
        self.axes
            .iter()
            .enumerate()
            .map(|(d, axis)| term(weights[d], observed, axis[from_l[d]], axis[to_l[d]]))
            .sum()
    }

    /// Extrapolates one observation — `time` and `energy` measured at
    /// `from`, attributed per domain by `weights` — to every setting at
    /// once: builds each domain's time and energy term for every level on
    /// its axis (O(Σ axis lengths)), after which a setting's prediction is
    /// `n_domains` table loads.
    ///
    /// # Panics
    ///
    /// Panics when `weights` does not have one entry per domain.
    #[must_use]
    pub fn predict(&self, time: f64, energy: f64, from: usize, weights: &[f64]) -> Prediction<'_> {
        assert_eq!(weights.len(), self.axes.len(), "one weight per domain");
        let from_l = self.levels_of(from);
        let cells = || {
            self.axes.iter().enumerate().flat_map(move |(d, axis)| {
                let from_mhz = axis[from_l[d]];
                axis.iter()
                    .map(move |&to_mhz| (weights[d], from_mhz, to_mhz))
            })
        };
        Prediction {
            catalog: self,
            time: cells()
                .map(|(w, from_mhz, to_mhz)| time_term(w, time, from_mhz, to_mhz))
                .collect(),
            energy: cells()
                .map(|(w, from_mhz, to_mhz)| energy_term(w, energy, from_mhz, to_mhz))
                .collect(),
        }
    }

    /// One hysteresis step from `from` toward `target`: every domain moves
    /// at most one level toward the target's level.
    #[must_use]
    pub fn step_toward(&self, from: usize, target: usize) -> usize {
        let (from_l, target_l) = (self.levels_of(from), self.levels_of(target));
        self.index_where(|d| match from_l[d].cmp(&target_l[d]) {
            std::cmp::Ordering::Less => from_l[d] + 1,
            std::cmp::Ordering::Greater => from_l[d] - 1,
            std::cmp::Ordering::Equal => from_l[d],
        })
    }

    /// The fastest setting whose every domain runs at no more than `frac`
    /// of that domain's maximum frequency (`frac` clamped to `[0, 1]`);
    /// domains with no step that low fall back to their minimum.
    #[must_use]
    pub fn index_at_fraction(&self, frac: f64) -> usize {
        let frac = frac.clamp(0.0, 1.0);
        self.index_where(|d| {
            let axis = &self.axes[d];
            let max = axis[axis.len() - 1];
            axis.iter()
                .rposition(|&f| f / max <= frac + 1e-12)
                .unwrap_or(0)
        })
    }
}

/// One observation extrapolated to every setting of a catalog: the
/// per-domain, per-level time and energy terms of
/// [`SettingCatalog::predict`].
#[derive(Debug, Clone)]
pub struct Prediction<'a> {
    catalog: &'a SettingCatalog,
    /// Time terms, one block of axis length per domain.
    time: Vec<f64>,
    /// Energy terms, laid out like `time`.
    energy: Vec<f64>,
}

impl Prediction<'_> {
    /// Predicted execution time at `index`; bit-identical to
    /// [`SettingCatalog::scale_time`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn time_at(&self, index: usize) -> f64 {
        self.sum_at(&self.time, index)
    }

    /// Predicted energy at `index`; bit-identical to
    /// [`SettingCatalog::scale_energy`].
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn energy_at(&self, index: usize) -> f64 {
        self.sum_at(&self.energy, index)
    }

    fn sum_at(&self, terms: &[f64], index: usize) -> f64 {
        let n = self.catalog.n_domains();
        self.catalog.term_slots[index * n..(index + 1) * n]
            .iter()
            .map(|&slot| terms[slot])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_types::SplitMix64;

    fn catalog() -> SettingCatalog {
        SettingCatalog::from_grid(&FrequencyGrid::coarse())
    }

    #[test]
    fn indices_coincide_with_the_grid() {
        let grid = FrequencyGrid::coarse();
        let c = SettingCatalog::from_grid(&grid);
        assert_eq!(c.len(), grid.len());
        assert_eq!(c.n_domains(), 2);
        for i in 0..grid.len() {
            let s = grid.get(i).unwrap();
            assert_eq!(c.frequency_mhz(i, 0), f64::from(s.cpu.mhz()), "cpu @ {i}");
            assert_eq!(c.frequency_mhz(i, 1), f64::from(s.mem.mhz()), "mem @ {i}");
        }
        assert_eq!(grid.get(c.fastest()).unwrap(), grid.max_setting());
        assert_eq!(grid.get(c.slowest()).unwrap(), grid.min_setting());
    }

    #[test]
    fn levels_round_trip() {
        let c = catalog();
        for i in 0..c.len() {
            assert_eq!(c.index_of_levels(c.levels_of(i)), i);
        }
    }

    #[test]
    fn speed_factor_is_one_only_at_fastest() {
        let c = catalog();
        assert!((c.speed_factor(c.fastest()) - 1.0).abs() < 1e-12);
        for i in 0..c.len() - 1 {
            assert!(c.speed_factor(i) < 1.0, "index {i}");
        }
    }

    #[test]
    fn scaling_is_identity_on_the_same_setting() {
        let c = catalog();
        let w = [0.6, 0.4];
        for i in [0, 7, c.fastest()] {
            assert!((c.scale_time(2.0, i, i, &w) - 2.0).abs() < 1e-12);
            assert!((c.scale_energy(3.0, i, i, &w) - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn slower_settings_predict_longer_and_cheaper() {
        let c = catalog();
        let w = [0.5, 0.5];
        let (fast, slow) = (c.fastest(), c.slowest());
        assert!(c.scale_time(1.0, fast, slow, &w) > 1.0);
        assert!(c.scale_energy(1.0, fast, slow, &w) < 1.0);
    }

    #[test]
    fn step_toward_moves_one_level_per_domain() {
        let c = catalog();
        let from = c.fastest();
        let target = c.slowest();
        let next = c.step_toward(from, target);
        let (fl, nl) = (c.levels_of(from), c.levels_of(next));
        for d in 0..c.n_domains() {
            assert_eq!(nl[d] + 1, fl[d], "domain {d} steps down by one");
        }
        assert_eq!(c.step_toward(from, from), from);
    }

    #[test]
    fn index_at_fraction_hits_the_extremes() {
        let c = catalog();
        assert_eq!(c.index_at_fraction(0.0), c.slowest());
        assert_eq!(c.index_at_fraction(1.0), c.fastest());
        assert_eq!(c.index_at_fraction(-3.0), c.slowest());
        assert_eq!(c.index_at_fraction(9.0), c.fastest());
    }

    #[test]
    fn generalizes_to_three_domains() {
        let c = SettingCatalog::new(vec![
            vec![100.0, 200.0],
            vec![50.0, 100.0, 150.0],
            vec![10.0, 20.0],
        ]);
        assert_eq!(c.len(), 12);
        assert_eq!(c.n_domains(), 3);
        for i in 0..c.len() {
            assert_eq!(c.index_of_levels(c.levels_of(i)), i);
        }
        assert_eq!(c.levels_of(c.fastest()), vec![1, 2, 1]);
    }

    fn three_domain() -> SettingCatalog {
        SettingCatalog::new(vec![
            vec![100.0, 250.0, 400.0],
            vec![50.0, 100.0],
            vec![10.0, 20.0, 35.0, 40.0],
        ])
    }

    /// The mixed-radix arithmetic the precomputed tables replace.
    fn arithmetic_levels(axes: &[Vec<f64>], index: usize) -> Vec<usize> {
        let mut rest = index;
        let mut levels = vec![0usize; axes.len()];
        for (d, axis) in axes.iter().enumerate().rev() {
            levels[d] = rest % axis.len();
            rest /= axis.len();
        }
        levels
    }

    #[test]
    fn precomputed_tables_match_mixed_radix_arithmetic() {
        for c in [
            SettingCatalog::from_grid(&FrequencyGrid::fine()),
            three_domain(),
        ] {
            let n = c.n_domains();
            for i in 0..c.len() {
                let levels = arithmetic_levels(&c.axes, i);
                assert_eq!(c.levels_of(i), levels, "levels @ {i}");
                for (d, &l) in levels.iter().enumerate() {
                    let offset: usize = c.axes[..d].iter().map(Vec::len).sum();
                    assert_eq!(c.term_slots[i * n + d], offset + l, "slot @ {i}/{d}");
                }
                let sum: f64 = c
                    .axes
                    .iter()
                    .zip(&levels)
                    .map(|(axis, &l)| axis[l] / axis[axis.len() - 1])
                    .sum();
                let speed = sum / c.axes.len() as f64;
                assert_eq!(c.speed_factor(i).to_bits(), speed.to_bits(), "speed @ {i}");
            }
        }
    }

    #[test]
    fn prediction_terms_reproduce_one_cell_scaling_bit_for_bit() {
        let mut rng = SplitMix64::new(0x5EED);
        for c in [
            SettingCatalog::from_grid(&FrequencyGrid::fine()),
            three_domain(),
        ] {
            let n = c.n_domains();
            let pick = |rng: &mut SplitMix64| (rng.next_u64() % c.len() as u64) as usize;
            for round in 0..200 {
                let raw: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
                let total: f64 = raw.iter().sum();
                let uniform = vec![1.0 / n as f64; n];
                let mut one_hot = vec![0.0; n];
                one_hot[round % n] = 1.0;
                let from = pick(&mut rng);
                let time = rng.next_f64() * 0.1;
                let energy = rng.next_f64();
                let cases = [
                    (raw.iter().map(|w| w / total).collect::<Vec<_>>(), energy),
                    (uniform, 0.0),
                    (one_hot, energy),
                ];
                for (weights, energy) in cases {
                    let p = c.predict(time, energy, from, &weights);
                    for to in [from, c.slowest(), c.fastest(), pick(&mut rng)] {
                        let (t, e) = (
                            c.scale_time(time, from, to, &weights),
                            c.scale_energy(energy, from, to, &weights),
                        );
                        // Reference: the scaling formulas written out per domain.
                        let (fl, tl) = (c.levels_of(from), c.levels_of(to));
                        let literal_t: f64 = (0..n)
                            .map(|d| weights[d] * time * c.axes[d][fl[d]] / c.axes[d][tl[d]])
                            .sum();
                        let literal_e: f64 = (0..n)
                            .map(|d| {
                                let r = c.axes[d][tl[d]] / c.axes[d][fl[d]];
                                weights[d] * energy * r * r
                            })
                            .sum();
                        assert_eq!(t.to_bits(), literal_t.to_bits(), "scale_time {from}->{to}");
                        assert_eq!(
                            e.to_bits(),
                            literal_e.to_bits(),
                            "scale_energy {from}->{to}"
                        );
                        assert_eq!(p.time_at(to).to_bits(), t.to_bits(), "time {from}->{to}");
                        assert_eq!(
                            p.energy_at(to).to_bits(),
                            e.to_bits(),
                            "energy {from}->{to}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_axis_panics() {
        let _ = SettingCatalog::new(vec![vec![200.0, 100.0]]);
    }
}
