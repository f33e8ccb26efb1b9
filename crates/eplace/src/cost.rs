use crate::nesterov::Gradient;
use crate::recover::GradientFault;
use crate::{EplaceConfig, PlacementProblem};
use eplace_density::DensityGrid;
use eplace_exec::ExecConfig;
use eplace_geometry::Point;
use eplace_netlist::Design;
use eplace_obs::Obs;
use eplace_wirelength::{GammaSchedule, SmoothWirelength, WaModel};

/// The λ/γ schedule of a global-placement stage: the penalty factor and
/// the WA smoothing parameter the cost evaluates with, plus the memory of
/// the μ update of λ. One `Copy` value, so a checkpoint, a rollback and a
/// resume each copy it whole.
///
/// [`EplaceCost::start_schedule`] anchors it and
/// [`EplaceCost::step_schedule`] advances it once per iteration; ePlace's
/// Nesterov loop and the CG baseline both call exactly these two.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpSchedule {
    /// Penalty factor λ.
    pub lambda: f64,
    /// Smoothing parameter γ.
    pub gamma: f64,
    /// HPWL of the previous iteration (input to the μ update of λ).
    pub prev_hpwl: f64,
    /// Stage-initial HPWL (also anchors the divergence threshold).
    pub hpwl_init: f64,
    /// ΔHPWL normalization of the μ rule.
    pub delta_ref: f64,
}

/// The ePlace cost `f(v) = W̃(v) + λ·N(v)` (Eq. 4) with the preconditioned
/// gradient `∇f_pre = (|E_i| + λ·q_i)⁻¹·∇f` (Eq. 11–13).
///
/// Owns the WA wirelength model, the electrostatic grid and the λ/γ
/// [`GpSchedule`]; implements [`Gradient`] so the
/// [`crate::NesterovOptimizer`] can drive it. Its spans (see
/// [`EplaceCost::set_obs`]) carry the paper's Figure 7 mGP breakdown.
pub struct EplaceCost<'a> {
    design: &'a Design,
    problem: &'a PlacementProblem,
    wa: WaModel,
    grid: DensityGrid,
    gamma_rule: GammaSchedule,
    /// The λ/γ schedule every evaluation reads.
    pub schedule: GpSchedule,
    /// Density overflow τ at the last gradient evaluation.
    pub last_overflow: f64,
    precondition: bool,
    full_pos: Vec<Point>,
    full_grad: Vec<Point>,
    /// Gradient evaluations performed.
    pub evaluations: usize,
    /// Armed gradient fault (fault-injection harness; `None` in production).
    pub fault: Option<GradientFault>,
    grad_nonfinite: bool,
    obs: Obs,
}

impl<'a> EplaceCost<'a> {
    /// Builds the cost for `problem` over `design` with an `nx × ny`
    /// density grid. Fixed cells are registered as static charge.
    pub fn new(
        design: &'a Design,
        problem: &'a PlacementProblem,
        nx: usize,
        ny: usize,
        precondition: bool,
    ) -> Self {
        let mut grid = DensityGrid::new(design.region, nx, ny, design.target_density);
        for cell in design.cells.iter().filter(|c| c.fixed) {
            grid.add_fixed(cell.rect());
        }
        let gamma_rule = GammaSchedule::new(grid.bin_width().max(grid.bin_height()));
        let full_pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
        let n = design.cells.len();
        EplaceCost {
            design,
            problem,
            wa: WaModel::new(design),
            grid,
            gamma_rule,
            schedule: GpSchedule {
                gamma: gamma_rule.gamma(1.0),
                ..GpSchedule::default()
            },
            last_overflow: 1.0,
            precondition,
            full_pos,
            full_grad: vec![Point::ORIGIN; n],
            evaluations: 0,
            fault: None,
            grad_nonfinite: false,
            obs: Obs::disabled(),
        }
    }

    /// Returns and clears the sticky non-finite-gradient flag.
    ///
    /// The gradient kernel never masks a non-finite component (masking hides
    /// real divergence); instead it records the event here, and the global
    /// placement loop reads the flag once per iteration to trip its
    /// divergence sentinel.
    pub fn take_grad_nonfinite(&mut self) -> bool {
        std::mem::replace(&mut self.grad_nonfinite, false)
    }

    /// Sets the execution policy for both runtime-dominant kernels — the
    /// electrostatic grid (deposit + spectral solve) and the WA wirelength
    /// model. Every thread count, serial (the default) included, gives the
    /// same bits.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.wa.set_exec(exec);
        self.grid.set_exec(exec);
    }

    /// Builder form of [`EplaceCost::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.set_exec(exec);
        self
    }

    /// Sets the observability recorder for the cost and both kernels: the
    /// WA model gets `wa_gradient`/`wa_eval` spans, the density grid gets
    /// `density_deposit`/`density_solve` spans, and each combined gradient
    /// evaluation bumps `grad_evals_total` and spans its field sampling and
    /// preconditioning as `cost_combine`. Figure 7's density share is
    /// `density_deposit` + `density_solve` + `cost_combine`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.wa.set_obs(obs.clone());
        self.grid.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Builder form of [`EplaceCost::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The density grid's bin width (anchors the γ schedule).
    pub fn bin_width(&self) -> f64 {
        self.grid.bin_width()
    }

    /// Calibrates λ₀ = Σ‖∇W̃‖₁ / Σ‖∇N‖₁ at `pos` (the standard eDensity
    /// initialization: wirelength and density forces start balanced) and
    /// sets γ from the initial overflow. Returns λ₀.
    pub fn init_lambda(&mut self, pos: &[Point]) -> f64 {
        // Evaluate both raw gradients once, reusing the owned full-design
        // gradient buffer (the WA model zeroes it before accumulating).
        self.sync_full(pos);
        let gamma = self.schedule.gamma;
        self.wa
            .gradient(self.design, &self.full_pos, gamma, &mut self.full_grad);
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();
        self.schedule.gamma = self.gamma_rule.gamma(self.last_overflow);
        let mut wl_l1 = 0.0;
        let mut den_l1 = 0.0;
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            let wg = self.full_grad[ci];
            wl_l1 += wg.x.abs() + wg.y.abs();
            let dg = self.grid.gradient(&self.problem.objects[k], pos[k]);
            den_l1 += dg.x.abs() + dg.y.abs();
        }
        self.schedule.lambda = if den_l1 > 1e-30 && wl_l1 > 1e-30 {
            wl_l1 / den_l1
        } else {
            // Pure-density problems (the filler-only phase: no nets, so no
            // wirelength gradient) still need a positive λ to move at all.
            1.0
        };
        self.schedule.lambda
    }

    /// Anchors the μ rule of the schedule at the start positions `pos`: the
    /// stage-initial HPWL (also the previous-HPWL memory) and the ΔHPWL
    /// reference `delta_hpwl_ref_frac ×` that HPWL. λ and γ are left as
    /// they are. This is the one place the reference rule lives.
    pub fn start_schedule(&mut self, pos: &[Point], cfg: &EplaceConfig) {
        let hpwl = self.hpwl(pos).max(1.0);
        self.schedule.hpwl_init = hpwl;
        self.schedule.prev_hpwl = hpwl;
        self.schedule.delta_ref = cfg.delta_hpwl_ref_frac * hpwl;
    }

    /// One iteration of the schedule, given the HPWL the iteration reached.
    ///
    /// The μ update of λ: `μ = μ_max^(1 − ΔHPWL/Δref)` clamped into
    /// `[μ_min, μ_max]` — aggressive (×1.1) while wirelength holds steady,
    /// backing off (×0.75) when HPWL degrades fast. Then γ is refreshed from
    /// the last observed overflow, and `hpwl` becomes the previous-HPWL
    /// memory.
    pub fn step_schedule(&mut self, hpwl: f64, cfg: &EplaceConfig) {
        let s = &mut self.schedule;
        let x = 1.0 - (hpwl - s.prev_hpwl) / s.delta_ref.max(1e-12);
        s.lambda *= cfg
            .lambda_mu_max
            .powf(x)
            .clamp(cfg.lambda_mu_min, cfg.lambda_mu_max);
        // λ going non-finite means ΔHPWL already diverged; the gp sentinel
        // handles it in release builds, so a hard assert is debug-only.
        debug_assert!(
            s.lambda >= 0.0 || s.lambda.is_nan(),
            "lambda went negative: {}",
            s.lambda
        );
        s.gamma = self.gamma_rule.gamma(self.last_overflow);
        debug_assert!(
            s.gamma > 0.0 || !self.last_overflow.is_finite(),
            "gamma collapsed: {} (overflow {})",
            s.gamma,
            self.last_overflow
        );
        s.prev_hpwl = hpwl;
    }

    /// The objective value `f(v) = W̃(v) + λ·N(v)` (Eq. 4) at `pos`.
    ///
    /// Costs one density solve plus one WA evaluation — the same price as a
    /// gradient. Exists for line-search solvers (the CG baseline); ePlace's
    /// own Nesterov loop never needs objective values, which is exactly the
    /// efficiency argument of §V-A.
    pub fn value(&mut self, pos: &[Point]) -> f64 {
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();
        let energy = self.grid.total_energy();
        self.sync_full(pos);
        let GpSchedule { lambda, gamma, .. } = self.schedule;
        self.wa.evaluate(self.design, &self.full_pos, gamma) + lambda * energy
    }

    /// Exact HPWL at a movable-solution `pos` (fixed cells at their design
    /// positions).
    pub fn hpwl(&mut self, pos: &[Point]) -> f64 {
        self.sync_full(pos);
        self.design.hpwl_with_positions(&self.full_pos)
    }

    /// Bin-based object overlap `O` at the last evaluation: area that
    /// physically cannot fit in its bins (Fig. 2/3's overlap series).
    pub fn overlap_area(&self) -> f64 {
        self.grid.overfill_area()
    }

    fn sync_full(&mut self, pos: &[Point]) {
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            self.full_pos[ci] = pos[k];
        }
    }
}

impl Gradient for EplaceCost<'_> {
    fn gradient(&mut self, pos: &[Point], grad: &mut [Point]) {
        self.evaluations += 1;
        self.obs.add("grad_evals_total", 1);
        let GpSchedule { lambda, gamma, .. } = self.schedule;
        // Density: deposit + spectral solve (57 % of mGP in the paper).
        self.grid.deposit(&self.problem.objects, pos);
        self.grid.solve();
        self.last_overflow = self.grid.overflow();

        // Wirelength (29 %).
        self.sync_full(pos);
        self.wa
            .gradient(self.design, &self.full_pos, gamma, &mut self.full_grad);

        // Combine + precondition. Field sampling is physically part of the
        // density component, so Figure 7 books this span there.
        let _span = self.obs.span("cost_combine");
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            let wl = self.full_grad[ci];
            let dg = self.grid.gradient(&self.problem.objects[k], pos[k]);
            let mut g = wl + dg * lambda;
            if self.precondition {
                let h = (self.problem.degrees[k] + lambda * self.problem.charges[k]).max(1.0);
                g = g * (1.0 / h);
            }
            if !g.is_finite() {
                // Do NOT sanitize: a non-finite force is a divergence signal
                // the recovery sentinel must see, not noise to paper over.
                self.grad_nonfinite = true;
            }
            grad[k] = g;
        }
        // Deterministic fault injection: poison one component once the
        // evaluation counter reaches the trigger (testing only).
        if let Some(fault) = &self.fault {
            if fault.fires(self.evaluations) && !grad.is_empty() {
                let k = fault.component % grad.len();
                grad[k] = Point::new(fault.value(), fault.value());
                self.grad_nonfinite = true;
            }
        }
    }

    fn project(&self, pos: &mut [Point]) {
        let region = self.design.region;
        for (k, &ci) in self.problem.movable.iter().enumerate() {
            let size = self.design.cells[ci].size;
            pos[k] = region.clamp_center(
                pos[k],
                size.width.min(region.width()),
                size.height.min(region.height()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;

    fn setup() -> (Design, PlacementProblem) {
        let mut d = BenchmarkConfig::ispd05_like("c", 51).scale(200).generate();
        crate::initial_placement(&mut d);
        let p = PlacementProblem::all_movables(&d);
        (d, p)
    }

    #[test]
    fn lambda_balances_initial_forces() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let pos = p.positions(&d);
        let lambda = cost.init_lambda(&pos);
        assert!(lambda.is_finite() && lambda > 0.0);
        // At λ₀ the L1 norms match by construction; indirect check: the
        // combined gradient is finite and nonzero.
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&pos, &mut g);
        assert!(g.iter().any(|v| v.norm() > 0.0));
        assert!(g.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn overflow_drops_as_cells_spread() {
        let (d, p) = setup();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let piled = vec![d.region.center(); p.len()];
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&piled, &mut g);
        let tau_piled = cost.last_overflow;
        // Spread on a grid.
        let k = (p.len() as f64).sqrt().ceil() as usize;
        let spread: Vec<Point> = (0..p.len())
            .map(|i| {
                Point::new(
                    d.region.xl + (0.5 + (i % k) as f64) * d.region.width() / k as f64,
                    d.region.yl + (0.5 + (i / k) as f64) * d.region.height() / k as f64,
                )
            })
            .collect();
        cost.gradient(&spread, &mut g);
        assert!(cost.last_overflow < tau_piled);
    }

    #[test]
    fn preconditioner_shrinks_macro_gradients() {
        let mut d = BenchmarkConfig::mms_like("c", 52, 1.0, 4)
            .scale(200)
            .generate();
        crate::initial_placement(&mut d);
        let p = PlacementProblem::all_movables(&d);
        let pos = p.positions(&d);
        let mut g_raw = vec![Point::ORIGIN; p.len()];
        let mut g_pre = vec![Point::ORIGIN; p.len()];
        {
            let mut raw = EplaceCost::new(&d, &p, 32, 32, false);
            raw.init_lambda(&pos);
            raw.gradient(&pos, &mut g_raw);
        }
        {
            let mut pre = EplaceCost::new(&d, &p, 32, 32, true);
            pre.init_lambda(&pos);
            pre.gradient(&pos, &mut g_pre);
        }
        // Ratio max/median gradient magnitude must shrink with the
        // preconditioner (macros no longer dominate).
        let spread = |g: &[Point]| {
            let mut mags: Vec<f64> = g.iter().map(|p| p.norm()).collect();
            mags.sort_by(f64::total_cmp);
            mags[mags.len() - 1] / mags[mags.len() / 2].max(1e-30)
        };
        assert!(
            spread(&g_pre) < spread(&g_raw),
            "precond {} vs raw {}",
            spread(&g_pre),
            spread(&g_raw)
        );
    }

    #[test]
    fn lambda_update_direction() {
        let (d, p) = setup();
        let cfg = EplaceConfig::default();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        cost.schedule.lambda = 1.0;
        cost.schedule.prev_hpwl = 5.0;
        cost.schedule.delta_ref = 100.0;
        // HPWL flat → aggressive ×1.1.
        cost.step_schedule(5.0, &cfg);
        assert!((cost.schedule.lambda - 1.1).abs() < 1e-12);
        // HPWL rising fast → back off to ×0.75.
        cost.schedule.lambda = 1.0;
        cost.step_schedule(1e9, &cfg);
        assert!((cost.schedule.lambda - 0.75).abs() < 1e-12);
        assert_eq!(cost.schedule.prev_hpwl, 1e9, "step remembers the HPWL");
    }

    #[test]
    fn start_schedule_anchors_the_reference_at_the_start_hpwl() {
        let (d, p) = setup();
        let cfg = EplaceConfig::default();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        let pos = p.positions(&d);
        let lambda0 = cost.init_lambda(&pos);
        cost.start_schedule(&pos, &cfg);
        let s = cost.schedule;
        assert_eq!(s.hpwl_init, d.hpwl());
        assert_eq!(s.prev_hpwl, s.hpwl_init);
        assert_eq!(s.delta_ref, cfg.delta_hpwl_ref_frac * s.hpwl_init);
        assert_eq!(s.lambda, lambda0, "anchoring leaves λ alone");
    }

    #[test]
    fn projection_keeps_objects_inside() {
        let (d, p) = setup();
        let cost = EplaceCost::new(&d, &p, 32, 32, true);
        let mut pos = vec![Point::new(-1e9, 1e9); p.len()];
        cost.project(&mut pos);
        for (k, &ci) in p.movable.iter().enumerate() {
            let r = eplace_geometry::Rect::from_center(
                pos[k],
                d.cells[ci].size.width,
                d.cells[ci].size.height,
            );
            assert!(d.region.contains_rect(&r) || d.cells[ci].size.width > d.region.width());
        }
    }

    #[test]
    fn gradient_spans_each_component() {
        let (d, p) = setup();
        let obs = Obs::metrics();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true).with_obs(obs.clone());
        let pos = p.positions(&d);
        let mut g = vec![Point::ORIGIN; p.len()];
        cost.gradient(&pos, &mut g);
        assert_eq!(cost.evaluations, 1);
        let snap = obs.snapshot();
        for span in [
            "density_deposit",
            "density_solve",
            "wa_gradient",
            "cost_combine",
        ] {
            let stat = snap.span(span).unwrap_or_else(|| panic!("no {span} span"));
            assert_eq!(stat.calls, 1, "{span}");
            assert!(stat.total_ns > 0, "{span}");
        }
        assert_eq!(snap.counter("grad_evals_total"), 1);
    }

    #[test]
    fn gamma_follows_overflow() {
        let (d, p) = setup();
        let cfg = EplaceConfig::default();
        let mut cost = EplaceCost::new(&d, &p, 32, 32, true);
        cost.schedule.delta_ref = 1.0;
        cost.last_overflow = 1.0;
        cost.step_schedule(0.0, &cfg);
        let high = cost.schedule.gamma;
        cost.last_overflow = 0.1;
        cost.step_schedule(0.0, &cfg);
        assert!(cost.schedule.gamma < high);
    }
}
