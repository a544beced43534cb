//! The multi-objective reward signal (Eq. 2 of the paper).
//!
//! `R(λ)` combines validation accuracy `A(λ)` with latency and energy
//! measured against user thresholds `t_lat`, `t_eer`, using
//! application-specific constants `α1, ω1, α2, ω2`. The paper's equation
//! is typeset ambiguously; both plausible readings are implemented (see
//! [`RewardForm`]) and compared by an ablation bench.

/// Which input (or the computed reward itself) was non-finite — the
/// quarantine signal returned by [`RewardConfig::checked_reward`].
///
/// A NaN/Inf metric must never reach the REINFORCE baseline's moving
/// average (one poisoned sample makes every later baseline NaN) or the GP
/// training set; callers quarantine the candidate instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NonFiniteMetric {
    /// `A(λ)` was NaN or infinite.
    Accuracy,
    /// `l(λ)` (latency in ms) was NaN or infinite.
    LatencyMs,
    /// `e(λ)` (energy in mJ) was NaN or infinite.
    EnergyMj,
    /// The inputs were finite but `R(λ)` itself came out non-finite
    /// (e.g. an overflowing power term, or an injected fault).
    Reward,
}

impl NonFiniteMetric {
    /// Stable snake_case name (used in trace events and checkpoints).
    pub fn name(self) -> &'static str {
        match self {
            NonFiniteMetric::Accuracy => "accuracy",
            NonFiniteMetric::LatencyMs => "latency_ms",
            NonFiniteMetric::EnergyMj => "energy_mj",
            NonFiniteMetric::Reward => "reward",
        }
    }
}

impl std::fmt::Display for NonFiniteMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "non-finite {}", self.name())
    }
}

/// Which algebraic form of Eq. 2 to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardForm {
    /// MnasNet-style weighted product (default):
    /// `R = A * [α1 (l/t_lat)^ω1 + α2 (e/t_eer)^ω2]`.
    WeightedProduct,
    /// Pure additive reading:
    /// `R = A + α1 (l/t_lat)^ω1 + α2 (e/t_eer)^ω2`.
    Additive,
}

/// User thresholds on the hardware metrics (paper §IV-A: energy within
/// 9 mJ and latency within 1.2 ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Latency threshold `t_lat` in ms.
    pub t_lat_ms: f64,
    /// Energy threshold `t_eer` in mJ.
    pub t_eer_mj: f64,
}

impl Constraints {
    /// The paper's thresholds (meaningful at the paper's workload scale).
    pub fn paper() -> Self {
        Constraints {
            t_lat_ms: 1.2,
            t_eer_mj: 9.0,
        }
    }

    /// Whether a measurement satisfies both thresholds.
    pub fn satisfied(&self, latency_ms: f64, energy_mj: f64) -> bool {
        latency_ms <= self.t_lat_ms && energy_mj <= self.t_eer_mj
    }
}

/// Reward configuration: the four constants of Eq. 2 plus thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardConfig {
    /// Latency weight `α1`.
    pub alpha1: f64,
    /// Latency exponent `ω1` (negative: slower ⇒ lower reward).
    pub omega1: f64,
    /// Energy weight `α2`.
    pub alpha2: f64,
    /// Energy exponent `ω2`.
    pub omega2: f64,
    /// Thresholds `t_lat`, `t_eer`.
    pub constraints: Constraints,
    /// Algebraic form.
    pub form: RewardForm,
    /// Screen out threshold violators (paper §IV-A: "designs that fail
    /// these goals will be screened out"): violating candidates receive a
    /// strongly down-scaled reward so the controller learns to avoid them
    /// while final selection ignores them entirely.
    pub hard_constraints: bool,
    /// Saturate the hardware bonus below the thresholds (the MnasNet
    /// "hard" variant): once a design meets `t_lat`/`t_eer`, further
    /// reductions earn no extra reward, so the search spends the budget
    /// on accuracy instead of over-optimizing hardware. Used by the
    /// Fig. 6(b)/(c) trade-off runs.
    pub saturate_below_threshold: bool,
}

impl RewardConfig {
    /// Fig. 6(a) constants: `α1 0.5, ω1 −0.4, α2 0.5, ω2 −0.4`.
    pub fn balanced(constraints: Constraints) -> Self {
        RewardConfig {
            alpha1: 0.5,
            omega1: -0.4,
            alpha2: 0.5,
            omega2: -0.4,
            constraints,
            form: RewardForm::WeightedProduct,
            hard_constraints: false,
            saturate_below_threshold: false,
        }
    }

    /// Fig. 6(b) constants, energy-leaning. The paper lists
    /// `(0.6, −0.4)` and `(0.3, −0.2)` for the accuracy–energy search; we
    /// assign the stronger pair to the *energy* term the figure targets.
    pub fn energy_focused(constraints: Constraints) -> Self {
        RewardConfig {
            alpha1: 0.3,
            omega1: -0.2,
            alpha2: 0.6,
            omega2: -0.4,
            constraints,
            form: RewardForm::WeightedProduct,
            hard_constraints: false,
            saturate_below_threshold: false,
        }
    }

    /// Fig. 6(c) constants, latency-leaning: the stronger pair
    /// `(0.6, −0.4)` goes to the latency term.
    pub fn latency_focused(constraints: Constraints) -> Self {
        RewardConfig {
            alpha1: 0.6,
            omega1: -0.4,
            alpha2: 0.3,
            omega2: -0.3,
            constraints,
            form: RewardForm::WeightedProduct,
            hard_constraints: false,
            saturate_below_threshold: false,
        }
    }

    /// Accuracy-only reward (used by the two-stage baseline's first
    /// stage): hardware terms vanish.
    pub fn accuracy_only(constraints: Constraints) -> Self {
        RewardConfig {
            alpha1: 0.5,
            omega1: 0.0,
            alpha2: 0.5,
            omega2: 0.0,
            constraints,
            form: RewardForm::WeightedProduct,
            hard_constraints: false,
            saturate_below_threshold: false,
        }
    }

    /// Computes `R(λ)` from accuracy (0..1), latency (ms) and energy (mJ).
    pub fn reward(&self, accuracy: f64, latency_ms: f64, energy_mj: f64) -> f64 {
        let mut l = (latency_ms / self.constraints.t_lat_ms).max(1e-9);
        let mut e = (energy_mj / self.constraints.t_eer_mj).max(1e-9);
        if self.saturate_below_threshold {
            l = l.max(1.0);
            e = e.max(1.0);
        }
        let hw = self.alpha1 * l.powf(self.omega1) + self.alpha2 * e.powf(self.omega2);
        let base = match self.form {
            RewardForm::WeightedProduct => accuracy * hw,
            RewardForm::Additive => accuracy + hw - (self.alpha1 + self.alpha2),
        };
        if self.hard_constraints && !self.constraints.satisfied(latency_ms, energy_mj) {
            // Preserve ordering among violators (so the policy gradient
            // still points toward the feasible region) but keep them far
            // below every feasible candidate.
            if base >= 0.0 {
                0.1 * base
            } else {
                base
            }
        } else {
            base
        }
    }

    /// [`RewardConfig::reward`] with runtime non-finite guards: each input
    /// and the computed reward are checked, and the first non-finite value
    /// is reported as a [`NonFiniteMetric`] quarantine signal instead of
    /// letting NaN/Inf flow into the REINFORCE baseline or best-so-far
    /// bookkeeping.
    ///
    /// # Errors
    ///
    /// The offending metric, in input order (`accuracy`, `latency_ms`,
    /// `energy_mj`), or [`NonFiniteMetric::Reward`] when the inputs were
    /// fine but the combination was not.
    pub fn checked_reward(
        &self,
        accuracy: f64,
        latency_ms: f64,
        energy_mj: f64,
    ) -> Result<f64, NonFiniteMetric> {
        if !accuracy.is_finite() {
            return Err(NonFiniteMetric::Accuracy);
        }
        if !latency_ms.is_finite() {
            return Err(NonFiniteMetric::LatencyMs);
        }
        if !energy_mj.is_finite() {
            return Err(NonFiniteMetric::EnergyMj);
        }
        let r = self.reward(accuracy, latency_ms, energy_mj);
        if !r.is_finite() {
            return Err(NonFiniteMetric::Reward);
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RewardConfig {
        RewardConfig::balanced(Constraints::paper())
    }

    #[test]
    fn at_thresholds_reward_equals_accuracy() {
        let r = cfg().reward(0.9, 1.2, 9.0);
        // l = e = 1 => hw term = α1 + α2 = 1 => R = A.
        assert!((r - 0.9).abs() < 1e-12);
        // Additive form: hw - (α1+α2) = 0 => R = A.
        let mut add = cfg();
        add.form = RewardForm::Additive;
        assert!((add.reward(0.9, 1.2, 9.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn slower_designs_score_lower() {
        let c = cfg();
        let fast = c.reward(0.9, 0.6, 9.0);
        let slow = c.reward(0.9, 2.4, 9.0);
        assert!(fast > slow);
    }

    #[test]
    fn hungrier_designs_score_lower() {
        let c = cfg();
        assert!(c.reward(0.9, 1.2, 4.5) > c.reward(0.9, 1.2, 18.0));
    }

    #[test]
    fn higher_accuracy_scores_higher() {
        let c = cfg();
        assert!(c.reward(0.95, 1.0, 8.0) > c.reward(0.90, 1.0, 8.0));
    }

    #[test]
    fn energy_focus_penalizes_energy_more_than_latency_focus() {
        let cons = Constraints::paper();
        let eer = RewardConfig::energy_focused(cons);
        let lat = RewardConfig::latency_focused(cons);
        // Doubling energy hurts the energy-focused reward more; doubling
        // latency hurts the latency-focused reward more.
        let d_eer_eer = eer.reward(0.9, 1.2, 9.0) - eer.reward(0.9, 1.2, 18.0);
        let d_eer_lat = lat.reward(0.9, 1.2, 9.0) - lat.reward(0.9, 1.2, 18.0);
        assert!(d_eer_eer > d_eer_lat);
        let d_lat_eer = eer.reward(0.9, 1.2, 9.0) - eer.reward(0.9, 2.4, 9.0);
        let d_lat_lat = lat.reward(0.9, 1.2, 9.0) - lat.reward(0.9, 2.4, 9.0);
        assert!(d_lat_lat > d_lat_eer);
    }

    #[test]
    fn accuracy_only_ignores_hardware() {
        let c = RewardConfig::accuracy_only(Constraints::paper());
        assert_eq!(c.reward(0.8, 0.1, 0.1), c.reward(0.8, 99.0, 99.0));
    }

    #[test]
    fn hard_constraints_screen_violators() {
        let mut c = cfg();
        c.hard_constraints = true;
        // Feasible design: unchanged.
        let soft = cfg().reward(0.9, 1.0, 8.0);
        assert_eq!(c.reward(0.9, 1.0, 8.0), soft);
        // Violator: scaled down by 10x but still ordered.
        let v1 = c.reward(0.9, 2.0, 8.0);
        let v2 = c.reward(0.9, 4.0, 8.0);
        assert!(v1 < soft * 0.2);
        assert!(v1 > v2, "ordering among violators preserved");
        // Any feasible candidate outranks any violator of similar accuracy.
        assert!(c.reward(0.5, 1.0, 8.0) > v1);
    }

    #[test]
    fn saturation_caps_hardware_bonus() {
        let mut c = cfg();
        c.saturate_below_threshold = true;
        // Below threshold: no extra reward for going lower.
        assert_eq!(c.reward(0.9, 0.6, 4.0), c.reward(0.9, 0.1, 1.0));
        assert_eq!(c.reward(0.9, 0.6, 4.0), 0.9);
        // Above threshold: penalty still applies.
        assert!(c.reward(0.9, 2.4, 4.0) < 0.9);
        // Accuracy remains the tiebreaker among feasible designs.
        assert!(c.reward(0.95, 0.6, 4.0) > c.reward(0.9, 0.2, 1.0));
    }

    #[test]
    fn checked_reward_quarantines_each_non_finite_input() {
        let c = cfg();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                c.checked_reward(bad, 1.0, 8.0),
                Err(NonFiniteMetric::Accuracy)
            );
            assert_eq!(
                c.checked_reward(0.9, bad, 8.0),
                Err(NonFiniteMetric::LatencyMs)
            );
            assert_eq!(
                c.checked_reward(0.9, 1.0, bad),
                Err(NonFiniteMetric::EnergyMj)
            );
        }
        // Input order decides which metric is reported when several are bad.
        assert_eq!(
            c.checked_reward(f64::NAN, f64::NAN, f64::NAN),
            Err(NonFiniteMetric::Accuracy)
        );
    }

    #[test]
    fn checked_reward_catches_non_finite_combinations() {
        // Finite inputs can still overflow the power terms: a huge ω with
        // a tiny ratio drives l^ω to +inf.
        let mut c = cfg();
        c.omega1 = -1e9;
        assert_eq!(
            c.checked_reward(0.9, 1e-30, 9.0),
            Err(NonFiniteMetric::Reward)
        );
    }

    #[test]
    fn checked_reward_matches_reward_on_finite_inputs() {
        let c = cfg();
        assert_eq!(c.checked_reward(0.9, 1.0, 8.0), Ok(c.reward(0.9, 1.0, 8.0)));
        assert_eq!(c.checked_reward(0.0, 0.0, 0.0), Ok(c.reward(0.0, 0.0, 0.0)));
    }

    #[test]
    fn non_finite_metric_names_are_stable() {
        assert_eq!(NonFiniteMetric::Accuracy.name(), "accuracy");
        assert_eq!(NonFiniteMetric::LatencyMs.name(), "latency_ms");
        assert_eq!(NonFiniteMetric::EnergyMj.name(), "energy_mj");
        assert_eq!(NonFiniteMetric::Reward.name(), "reward");
        assert_eq!(NonFiniteMetric::Reward.to_string(), "non-finite reward");
    }

    #[test]
    fn constraints_satisfied() {
        let c = Constraints::paper();
        assert!(c.satisfied(1.2, 9.0));
        assert!(!c.satisfied(1.3, 9.0));
        assert!(!c.satisfied(1.0, 9.5));
    }
}
