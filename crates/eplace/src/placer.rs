use crate::routability::{run_routability_loop, RoutabilityOutcome};
use crate::trace::{IterationRecord, Stage, StageTiming};
use crate::{
    initial_placement, insert_fillers, run_global_placement, EplaceConfig, MipReport, Obs,
    PlacementProblem,
};
use eplace_density::{layout_overflow, scaled_hpwl};
use eplace_errors::EplaceError;
use eplace_legalize::{detail_place, global_swap, legalize, legalize_abacus, LegalizeReport};
use eplace_mlg::{legalize_macros, MlgReport};
use eplace_netlist::{CellKind, Design};
use eplace_obs::PhaseTime;

/// Everything a run of the flow produced — the raw material for every
/// table and figure reproduction.
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// HPWL after cDP (the tables' metric).
    pub final_hpwl: f64,
    /// Scaled HPWL `HPWL·(1 + 0.01·τ_avg)` per the ISPD-2006 protocol,
    /// with `τ_avg` the percentage density overflow at the final layout.
    pub scaled_hpwl: f64,
    /// Final density overflow τ (fraction).
    pub final_overflow: f64,
    /// Absolute suboptimality ratio `final_hpwl / optimal_hpwl`, when the
    /// input carried a known-optimum certificate
    /// ([`EplaceConfig::known_optimum_hpwl`]); `None` for ordinary designs
    /// whose optimum nobody knows. ≥ 1 for any legal placement of a valid
    /// certificate.
    pub suboptimality_ratio: Option<f64>,
    /// mIP outcome.
    pub mip: MipReport,
    /// mGP iterations executed.
    pub mgp_iterations: usize,
    /// mGP backtracks per iteration (paper: 1.037 avg on MMS).
    pub mgp_backtracks_per_iteration: f64,
    /// Whether mGP reached the overflow target.
    pub mgp_converged: bool,
    /// Divergence-sentinel trips recovered by rollback, summed across all
    /// global-placement stages. 0 on a healthy run.
    pub recoveries: usize,
    /// mLG outcome (`None` for std-cell-only designs, where mLG/cGP are
    /// disabled per §VII).
    pub mlg: Option<MlgReport>,
    /// cGP iterations (0 for std-cell-only designs).
    pub cgp_iterations: usize,
    /// Legalization outcome (`None` if legalization failed).
    pub legalization: Option<LegalizeReport>,
    /// Error string when legalization failed.
    pub legalization_error: Option<String>,
    /// HPWL improvement from detail placement.
    pub detail_gain: f64,
    /// [`PlacementReport::phase_times`] of the stages that ran, as
    /// `(stage, seconds)` pairs in flow order.
    pub stage_timings: Vec<StageTiming>,
    /// Per-iteration records across all stages (Figures 2/3/6).
    pub trace: Vec<IterationRecord>,
    /// Per-phase span times from the observability layer (direct children
    /// of the `flow` span), in flow order — Figure 7's outer ring. Always
    /// populated: a disabled [`EplaceConfig::obs`] is upgraded to a
    /// metrics-only recorder for the duration of the run. A recorder shared
    /// across runs accumulates, so its phases cover all of them.
    pub phase_times: Vec<PhaseTime>,
    /// Total of the `flow` span; read through
    /// [`PlacementReport::total_seconds`].
    flow_seconds: f64,
    /// Routability-mode outcome: routing scorecards before and after the
    /// congestion-driven inflation loop ([`crate::RoutabilityConfig`]).
    /// `None` when the mode is off (the default).
    pub routability: Option<RoutabilityOutcome>,
    /// Iterations recorded per global-placement stage, in flow order.
    pub iterations_per_stage: Vec<(Stage, usize)>,
    /// Journal lines/flushes lost to I/O failures (the sink keeps running
    /// best-effort after a write error, but the loss must be visible —
    /// also surfaced as the `journal/io_errors` metric in the end-of-run
    /// summary). Always 0 when no journal sink is attached.
    pub journal_io_errors: u64,
}

impl PlacementReport {
    /// Seconds in `stage`'s phase span ([`Stage::phase`]; 0 when the stage
    /// did not run).
    pub fn stage_seconds(&self, stage: Stage) -> f64 {
        self.phase_times
            .iter()
            .find(|p| p.name == stage.phase())
            .map_or(0.0, |p| p.seconds)
    }

    /// Total flow wall-clock: the `flow` span (accumulated like
    /// [`PlacementReport::phase_times`]).
    pub fn total_seconds(&self) -> f64 {
        self.flow_seconds
    }
}

/// The full ePlace flow driver (paper Figure 1): mIP → mGP → (mLG → cGP,
/// mixed-size only) → cDP.
///
/// # Examples
///
/// ```
/// use eplace_benchgen::BenchmarkConfig;
/// use eplace_core::{EplaceConfig, Placer};
///
/// let design = BenchmarkConfig::ispd05_like("demo", 2).scale(200).generate();
/// let mut placer = Placer::new(design, EplaceConfig::fast());
/// let report = placer.run().unwrap();
/// println!("final HPWL: {:.4e}", report.final_hpwl);
/// ```
#[derive(Debug)]
pub struct Placer {
    design: Design,
    config: EplaceConfig,
}

impl Placer {
    /// Wraps a design with a configuration.
    pub fn new(design: Design, config: EplaceConfig) -> Self {
        Placer { design, config }
    }

    /// The (current) design; after [`Placer::run`], positions are final.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Consumes the placer, returning the design.
    pub fn into_design(self) -> Design {
        self.design
    }

    /// Executes the flow and returns the report.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Diverged`] when a global-placement stage exhausts its
    /// divergence-recovery budget (see [`crate::run_global_placement`]);
    /// the design then holds the best placement seen before the failure.
    pub fn run(&mut self) -> Result<PlacementReport, EplaceError> {
        let mut cfg = self.config.clone();
        // Phase times must always land in the report, so a disabled
        // recorder is upgraded to a metrics-only one (no journal sink) for
        // the duration of the run. Recording never touches the numerics.
        if !cfg.obs.is_enabled() {
            cfg.obs = Obs::metrics();
        }
        let obs = cfg.obs.clone();
        let design = &mut self.design;
        let mut trace = Vec::new();
        let flow_span = obs.span("flow");

        // --- mIP -----------------------------------------------------------
        let mip = spanned(&obs, "mip", || initial_placement(design));
        obs.add("mip_cg_iterations", mip.cg_iterations as u64);
        obs.add("mip_rebuilds", mip.rebuilds as u64);

        // --- mGP -----------------------------------------------------------
        design.remove_fillers();
        insert_fillers(design, cfg.seed);
        let problem = PlacementProblem::all_movables(design);
        let mgp = run_global_placement(design, &problem, &cfg, Stage::Mgp, None, None, &mut trace)?;
        let mut recoveries = mgp.recoveries;
        design.remove_fillers();

        // --- mLG + cGP (mixed-size only, §VII) ------------------------------
        let mlg_report = macro_legalization(design, &cfg);
        let mut cgp_iterations = 0;
        if mlg_report.is_some() {
            // Filler-only relocation (§VI-B), then cGP.
            insert_fillers(design, cfg.seed.wrapping_add(1));
            if cfg.enable_filler_phase {
                let fillers = PlacementProblem::fillers_only(design);
                let filler_gp = run_global_placement(
                    design,
                    &fillers,
                    &cfg,
                    Stage::FillerOnly,
                    None,
                    Some(cfg.filler_phase_iterations),
                    &mut trace,
                )?;
                recoveries += filler_gp.recoveries;
            }

            let problem = PlacementProblem::all_movables(design);
            // λ rewind: m buffering iterations to recover mGP's
            // aggressiveness (§VI-B), m = mGP iterations / 10.
            let m = (mgp.iterations / 10) as i32;
            let lambda_init = mgp.lambda_last * cfg.lambda_mu_max.powi(-m);
            let cgp = run_global_placement(
                design,
                &problem,
                &cfg,
                Stage::Cgp,
                Some(lambda_init),
                None,
                &mut trace,
            )?;
            cgp_iterations = cgp.iterations;
            recoveries += cgp.recoveries;
            design.remove_fillers();
        }

        // --- Routability (optional, §VIII): route, inflate, refine -----------
        let mut routability = None;
        if let Some(rcfg) = cfg.routability.clone() {
            let out = run_routability_loop(design, &cfg, &rcfg, &mut trace)?;
            recoveries += out.recoveries;
            routability = Some(out);
        }

        // --- cDP and final scoring --------------------------------------------
        let cdp = detail_placement(design, &cfg);
        let final_hpwl = design.hpwl();
        let final_overflow = layout_overflow(design, cfg.grid_min, cfg.grid_max);
        let suboptimality_ratio = cfg.known_optimum_hpwl.map(|opt| final_hpwl / opt);

        // Close the flow span so the snapshot sees its total, then derive
        // the per-phase breakdown and emit the end-of-run summary record.
        drop(flow_span);
        let summary = obs.summary();
        let mut phase_times = summary.phases.clone();
        phase_times.sort_by_key(|p| Stage::FLOW.iter().position(|s| s.phase() == p.name));
        let stage_timings = Stage::FLOW
            .into_iter()
            .filter_map(|stage| {
                let phase = phase_times.iter().find(|p| p.name == stage.phase())?;
                Some(StageTiming {
                    stage,
                    seconds: phase.seconds,
                })
            })
            .collect();
        if obs.journal_active() {
            obs.journal(summary.to_record());
        }
        obs.flush();
        let journal_io_errors = obs.journal_io_errors();

        Ok(PlacementReport {
            final_hpwl,
            scaled_hpwl: scaled_hpwl(final_hpwl, final_overflow),
            final_overflow,
            suboptimality_ratio,
            mip,
            mgp_iterations: mgp.iterations,
            mgp_backtracks_per_iteration: mgp.backtracks_per_iteration,
            mgp_converged: mgp.converged,
            recoveries,
            mlg: mlg_report,
            cgp_iterations,
            legalization: cdp.legalization,
            legalization_error: cdp.error,
            detail_gain: cdp.detail_gain,
            routability,
            stage_timings,
            iterations_per_stage: iterations_per_stage(&trace),
            trace,
            phase_times,
            flow_seconds: summary.total_seconds,
            journal_io_errors,
        })
    }
}

/// What cDP produced ([`detail_placement`]).
#[derive(Debug, Clone)]
pub struct CdpOutcome {
    /// Legalization outcome (`None` if legalization failed).
    pub legalization: Option<LegalizeReport>,
    /// Error string when legalization failed.
    pub error: Option<String>,
    /// HPWL improvement from detail placement (0 when legalization failed).
    pub detail_gain: f64,
}

/// The flow's mLG stage (§VI-A): anneals every movable macro of `design`
/// to an overlap-free spot, then fixes it there. Std cells enter only as
/// the coverage term, whatever their `fixed` flag. `None` when the design
/// has no movable macro (std-cell-only designs skip mLG and cGP, §VII).
///
/// Records the `mlg` span (child `mlg_anneal`) and the `mlg_*` counters on
/// `cfg.obs`.
pub fn macro_legalization(design: &mut Design, cfg: &EplaceConfig) -> Option<MlgReport> {
    if !design
        .cells
        .iter()
        .any(|c| c.kind == CellKind::Macro && c.is_movable())
    {
        return None;
    }
    let obs = &cfg.obs;
    let _span = obs.span("mlg");
    let mlg = spanned(obs, "mlg_anneal", || legalize_macros(design, &cfg.mlg));
    obs.add("mlg_outer_iterations", mlg.outer_iterations as u64);
    obs.add("mlg_moves_attempted", mlg.moves_attempted as u64);
    obs.add("mlg_moves_accepted", mlg.moves_accepted as u64);
    Some(mlg)
}

/// The flow's cDP stage: legalizes the (filler-free) std cells of `design`
/// and refines them. Legalization is Abacus with a Tetris fallback when
/// Abacus runs out of room, or Tetris alone without
/// [`EplaceConfig::use_abacus`]. A legal placement then gets
/// [`EplaceConfig::detail_passes`] in-row passes, the cross-row global
/// swap, and one closing in-row pass; a failed one is left as is.
///
/// Every placer in the benchmarks and tests finishes through this one
/// function, so their HPWLs compare global placements on equal footing.
/// Records the `cdp` span (children `legalize_abacus`, `legalize_tetris`,
/// `detail_place`, `global_swap`) and the `legalize_*` counters on
/// `cfg.obs`.
pub fn detail_placement(design: &mut Design, cfg: &EplaceConfig) -> CdpOutcome {
    let obs = &cfg.obs;
    let _span = obs.span("cdp");
    let tetris = |design: &mut Design| spanned(obs, "legalize_tetris", || legalize(design));
    let attempt = if cfg.use_abacus {
        spanned(obs, "legalize_abacus", || legalize_abacus(design)).or_else(|_| tetris(design))
    } else {
        tetris(design)
    };
    let legalization = match attempt {
        Ok(r) => r,
        Err(e) => {
            return CdpOutcome {
                legalization: None,
                error: Some(e.to_string()),
                detail_gain: 0.0,
            }
        }
    };
    obs.add("legalize_runs", 1);
    obs.add("legalize_cells_placed", legalization.placed as u64);
    let detail = |design: &mut Design, passes: usize| {
        spanned(obs, "detail_place", || detail_place(design, passes))
    };
    // In-row refinement, then the cross-row global-swap pass.
    let refined = detail(design, cfg.detail_passes);
    let swapped = spanned(obs, "global_swap", || {
        global_swap(design, cfg.detail_passes)
    });
    CdpOutcome {
        legalization: Some(legalization),
        error: None,
        detail_gain: refined + swapped + detail(design, 1),
    }
}

/// Runs `f` inside the span `name`.
fn spanned<T>(obs: &Obs, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = obs.span(name);
    f()
}

/// Iteration counts per stage, in the order the stages first appear in the
/// trace (recovery rollbacks already truncated their discarded records).
fn iterations_per_stage(trace: &[IterationRecord]) -> Vec<(Stage, usize)> {
    let mut out: Vec<(Stage, usize)> = Vec::new();
    for r in trace {
        match out.iter_mut().find(|(s, _)| *s == r.stage) {
            Some((_, n)) => *n += 1,
            None => out.push((r.stage, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_legalize::check_legal;
    use eplace_netlist::DesignBuilder;

    #[test]
    fn stdcell_flow_end_to_end() {
        let design = BenchmarkConfig::ispd05_like("flow", 71)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.mgp_converged, "tau={}", report.final_overflow);
        assert!(report.mlg.is_none(), "std-cell suite must skip mLG");
        assert_eq!(report.cgp_iterations, 0);
        assert!(
            report.legalization.is_some(),
            "{:?}",
            report.legalization_error
        );
        assert!(check_legal(placer.design()).is_ok());
        assert!(report.final_hpwl > 0.0);
        assert!(report.detail_gain >= 0.0);
    }

    #[test]
    fn mixed_size_flow_end_to_end() {
        let design = BenchmarkConfig::mms_like("flowm", 72, 1.0, 5)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        let mlg = report.mlg.as_ref().expect("mixed-size flow runs mLG");
        assert!(mlg.legalized, "macro overlap {}", mlg.macro_overlap_after);
        assert!(report.cgp_iterations > 0);
        assert!(
            report.legalization.is_some(),
            "{:?}",
            report.legalization_error
        );
        assert!(
            check_legal(placer.design()).is_ok(),
            "{:?}",
            check_legal(placer.design())
        );
        // Macros end up fixed and non-overlapping.
        for c in placer.design().cells.iter() {
            if c.kind == CellKind::Macro {
                assert!(c.fixed);
            }
        }
    }

    #[test]
    fn stage_seconds_cover_flow() {
        let design = BenchmarkConfig::ispd05_like("flow", 73)
            .scale(200)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.stage_seconds(Stage::Mip) > 0.0);
        assert!(report.stage_seconds(Stage::Mgp) > 0.0);
        assert!(report.stage_seconds(Stage::Cdp) > 0.0);
        assert!(report.total_seconds() >= report.stage_seconds(Stage::Mgp));
    }

    #[test]
    fn trace_spans_stages_for_mixed_flow() {
        let design = BenchmarkConfig::mms_like("flowt", 74, 1.0, 4)
            .scale(200)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        let stages: std::collections::HashSet<_> = report.trace.iter().map(|r| r.stage).collect();
        assert!(stages.contains(&Stage::Mgp));
        assert!(stages.contains(&Stage::FillerOnly));
        assert!(stages.contains(&Stage::Cgp));
    }

    #[test]
    fn scaled_hpwl_at_least_hpwl() {
        let design = BenchmarkConfig::ispd06_like("flow6", 75, 0.8)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        assert!(report.scaled_hpwl >= report.final_hpwl);
    }

    #[test]
    fn suboptimality_ratio_only_with_certificate() {
        let (design, opt) = BenchmarkConfig::peko_like("peko_flow", 77)
            .scale(150)
            .generate_known_optimum();
        let cfg = EplaceConfig {
            known_optimum_hpwl: Some(opt.hpwl),
            ..EplaceConfig::fast()
        };
        let mut placer = Placer::new(design, cfg);
        let report = placer.run().unwrap();
        assert!(report.legalization.is_some());
        let ratio = report.suboptimality_ratio.expect("certificate provided");
        assert!(ratio.is_finite());
        assert!(ratio >= 1.0, "legal placement beat the optimum: {ratio}");
        assert_eq!(ratio, report.final_hpwl / opt.hpwl);

        // Ordinary designs report no ratio.
        let design = BenchmarkConfig::ispd05_like("plain", 78)
            .scale(150)
            .generate();
        let report = Placer::new(design, EplaceConfig::fast()).run().unwrap();
        assert!(report.suboptimality_ratio.is_none());
    }

    #[test]
    fn deterministic_runs() {
        let mk = || {
            let design = BenchmarkConfig::ispd05_like("det", 76)
                .scale(200)
                .generate();
            Placer::new(design, EplaceConfig::fast())
                .run()
                .unwrap()
                .final_hpwl
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn cdp_failure_falls_back_to_tetris_and_reports_error() {
        // Three 6-wide cells in one 10-wide row: neither legalizer fits them.
        let mut b = DesignBuilder::new("full", Rect::new(0.0, 0.0, 10.0, 12.0));
        b.uniform_rows(12.0, 1.0);
        for i in 0..3 {
            b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::StdCell);
        }
        let mut design = b.build();
        let cfg = EplaceConfig {
            obs: Obs::metrics(),
            ..EplaceConfig::fast()
        };
        let cdp = detail_placement(&mut design, &cfg);
        assert!(cdp.legalization.is_none());
        assert!(cdp.error.is_some());
        assert_eq!(cdp.detail_gain, 0.0);
        let snap = cfg.obs.snapshot();
        assert!(snap.span("cdp/legalize_abacus").is_some());
        assert!(snap.span("cdp/legalize_tetris").is_some());
        assert!(snap.span("cdp/detail_place").is_none());
        assert_eq!(snap.counter("legalize_runs"), 0);
    }
}
