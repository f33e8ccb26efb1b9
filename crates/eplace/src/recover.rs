//! Divergence detection and checkpoint/rollback recovery for the
//! Nesterov/eDensity loop.
//!
//! Nesterov's method is not a descent method: the steplength prediction of
//! Eq. (10) can overshoot, λ can ratchet a trajectory into a region where
//! the WA exponentials overflow, and a single non-finite gradient component
//! poisons every later iterate.
//!
//! The loop's resumable state is three values plus the iteration index: the
//! λ/γ schedule ([`crate::GpSchedule`], owned by the cost), the optimizer
//! trajectory ([`NesterovCheckpoint`], owned by the optimizer) and the
//! best-solution tracker ([`BestSolution`], owned by the loop). The guarded
//! loop in [`crate::gp`] copies them into a [`GpCheckpoint`] every
//! `CHECKPOINT_INTERVAL` (10) iterations. A read-only sentinel inspects each
//! iteration; on a trip the loop copies the three values back, clamps the
//! steplength, and replays — up to `RECOVERY_RETRIES` (3) times before
//! giving up with a structured [`eplace_errors::EplaceError::Diverged`].
//! Both constants live in `gp.rs`.
//!
//! [`GradientFault`] is the deterministic fault-injection hook the tests use
//! to exercise this machinery; in production it is always `None` and the
//! sentinel never fires on a healthy run, so the no-fault trajectory is
//! bit-identical to the unguarded loop.

use crate::cost::GpSchedule;
use crate::nesterov::NesterovCheckpoint;
use eplace_errors::DivergenceReason;
use eplace_geometry::Point;

/// Kind of poison value a [`GradientFault`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Write `NaN` into the gradient.
    Nan,
    /// Write `+∞` into the gradient.
    Inf,
}

/// A deterministic gradient fault: at a chosen gradient evaluation, one
/// component of the combined force vector is overwritten with a non-finite
/// value. Plain data (`Clone + PartialEq`) so it can ride inside
/// [`crate::EplaceConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradientFault {
    /// Evaluation counter value that triggers the fault (1-based: the first
    /// gradient evaluation of a cost instance has counter 1).
    pub at_evaluation: usize,
    /// Movable index to poison (taken modulo the problem size).
    pub component: usize,
    /// What to write.
    pub kind: FaultKind,
    /// `false`: fire exactly once (the counter keeps rising across the
    /// rollback replay, so recovery succeeds). `true`: fire on every
    /// evaluation from `at_evaluation` on — an unrecoverable fault that
    /// exhausts the retry budget.
    pub repeat: bool,
}

impl GradientFault {
    /// One-shot NaN poison at evaluation `at_evaluation`.
    pub fn nan_at(at_evaluation: usize) -> Self {
        GradientFault {
            at_evaluation,
            component: 0,
            kind: FaultKind::Nan,
            repeat: false,
        }
    }

    /// Persistent (every-evaluation) variant of `self`.
    pub fn repeating(mut self) -> Self {
        self.repeat = true;
        self
    }

    /// Does the fault fire at this evaluation count?
    pub fn fires(&self, evaluation: usize) -> bool {
        if self.repeat {
            evaluation >= self.at_evaluation
        } else {
            evaluation == self.at_evaluation
        }
    }

    /// The poison value.
    pub fn value(&self) -> f64 {
        match self.kind {
            FaultKind::Nan => f64::NAN,
            FaultKind::Inf => f64::INFINITY,
        }
    }
}

/// The best-solution tracker of the global-placement loop: the
/// lowest-overflow solution seen so far, committed when the run stalls,
/// diverges or is cancelled.
#[derive(Debug, Clone, PartialEq)]
pub struct BestSolution {
    /// Lowest overflow seen so far (`+∞` before the first iteration).
    pub overflow: f64,
    /// Iteration that reached `overflow`.
    pub iteration: usize,
    /// Positions of that solution.
    pub pos: Vec<Point>,
}

/// Everything needed to restart the global-placement loop from a known-good
/// iteration: the iteration index plus whole copies of the λ/γ schedule,
/// the best-solution tracker and the optimizer trajectory.
///
/// Produced every 10 iterations by
/// [`crate::run_global_placement`] (the final one is returned in
/// [`crate::GpOutcome::checkpoint`]) and consumed either internally on
/// rollback or externally by [`crate::resume_global_placement`], which
/// continues the run bit-identically to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub struct GpCheckpoint {
    /// Next iteration index to execute.
    pub iteration: usize,
    /// The λ/γ schedule.
    pub schedule: GpSchedule,
    /// The best-solution tracker.
    pub best: BestSolution,
    /// Optimizer trajectory state.
    pub optimizer: NesterovCheckpoint,
}

impl GpCheckpoint {
    /// Checks that every position and gradient vector holds `n` points, so
    /// stepping a resumed optimizer can never index out of bounds. Returns
    /// the first mismatch as a message.
    pub(crate) fn check_len(&self, n: usize) -> Result<(), String> {
        let opt = &self.optimizer;
        for (name, vec) in [
            ("best_pos", &self.best.pos),
            ("optimizer.u", &opt.u),
            ("optimizer.v", &opt.v),
            ("optimizer.v_prev", &opt.v_prev),
            ("optimizer.g", &opt.g),
            ("optimizer.g_prev", &opt.g_prev),
        ] {
            if vec.len() != n {
                return Err(format!("{name} holds {} points, expected {n}", vec.len()));
            }
        }
        Ok(())
    }
}

/// Read-only divergence sentinel: examines one iteration's health and
/// returns the reason to trip, or `None` when the iteration is sound.
///
/// Checked conditions, in order of specificity:
/// 1. a non-finite gradient component was produced this iteration,
/// 2. a non-finite steplength or steplength collapse below `min_alpha`,
/// 3. non-finite HPWL, overflow, or λ,
/// 4. HPWL explosion past `hpwl_limit`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sentinel_check(
    grad_nonfinite: bool,
    alpha: f64,
    min_alpha: f64,
    hpwl: f64,
    overflow: f64,
    lambda: f64,
    hpwl_limit: f64,
) -> Option<DivergenceReason> {
    if grad_nonfinite {
        return Some(DivergenceReason::NonFiniteGradient);
    }
    if !alpha.is_finite() || alpha < min_alpha {
        return Some(DivergenceReason::SteplengthCollapse);
    }
    if !hpwl.is_finite() || !overflow.is_finite() || !lambda.is_finite() {
        return Some(DivergenceReason::NonFiniteMetric);
    }
    if hpwl > hpwl_limit {
        return Some(DivergenceReason::HpwlExplosion);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fault_fires_once() {
        let f = GradientFault::nan_at(5);
        assert!(!f.fires(4));
        assert!(f.fires(5));
        assert!(!f.fires(6));
        assert!(f.value().is_nan());
    }

    #[test]
    fn repeating_fault_fires_from_trigger_on() {
        let f = GradientFault::nan_at(5).repeating();
        assert!(!f.fires(4));
        assert!(f.fires(5));
        assert!(f.fires(500));
    }

    #[test]
    fn inf_fault_value() {
        let f = GradientFault {
            kind: FaultKind::Inf,
            ..GradientFault::nan_at(1)
        };
        assert_eq!(f.value(), f64::INFINITY);
    }

    #[test]
    fn sentinel_passes_healthy_iteration() {
        assert_eq!(sentinel_check(false, 1e-2, 1e-30, 1e6, 0.5, 1.0, 1e9), None);
    }

    #[test]
    fn sentinel_orders_reasons() {
        // Gradient poison wins even when everything else is broken too.
        assert_eq!(
            sentinel_check(true, f64::NAN, 1e-30, f64::NAN, 0.5, 1.0, 1e9),
            Some(DivergenceReason::NonFiniteGradient)
        );
        assert_eq!(
            sentinel_check(false, f64::NAN, 1e-30, 1e6, 0.5, 1.0, 1e9),
            Some(DivergenceReason::SteplengthCollapse)
        );
        assert_eq!(
            sentinel_check(false, 1e-2, 1e-30, f64::NAN, 0.5, 1.0, 1e9),
            Some(DivergenceReason::NonFiniteMetric)
        );
        assert_eq!(
            sentinel_check(false, 1e-2, 1e-30, 1e10, 0.5, 1.0, 1e9),
            Some(DivergenceReason::HpwlExplosion)
        );
    }

    #[test]
    fn sentinel_flags_steplength_collapse() {
        assert_eq!(
            sentinel_check(false, 1e-40, 1e-30, 1e6, 0.5, 1.0, 1e9),
            Some(DivergenceReason::SteplengthCollapse)
        );
    }
}
