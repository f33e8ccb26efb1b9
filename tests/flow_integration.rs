//! End-to-end integration tests across crates: generator → flow → legality.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{insert_fillers, EplaceConfig, PlacementProblem, Placer, Stage};
use eplace_repro::density::grid_dimension;
use eplace_repro::legalize::check_legal;
use eplace_repro::netlist::CellKind;

#[test]
fn stdcell_flow_produces_legal_low_overflow_layout() {
    let design = BenchmarkConfig::ispd05_like("it_std", 501)
        .scale(300)
        .generate();
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().unwrap();
    assert!(report.mgp_converged, "tau = {}", report.final_overflow);
    assert!(
        check_legal(placer.design()).is_ok(),
        "{:?}",
        check_legal(placer.design())
    );
    assert!(report.final_overflow < 0.2);
    // Quadratic init is the HPWL lower bound; the final legal layout sits
    // above it but within a sane factor.
    assert!(report.final_hpwl >= report.mip.hpwl_after);
    assert!(report.final_hpwl < 6.0 * report.mip.hpwl_after);
}

#[test]
fn mixed_size_flow_runs_all_stages_and_fixes_macros() {
    let design = BenchmarkConfig::mms_like("it_mms", 502, 1.0, 6)
        .scale(300)
        .generate();
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().unwrap();
    let stages: std::collections::HashSet<_> = report.trace.iter().map(|r| r.stage).collect();
    assert!(stages.contains(&Stage::Mgp));
    assert!(stages.contains(&Stage::FillerOnly));
    assert!(stages.contains(&Stage::Cgp));
    let mlg = report.mlg.expect("mLG must run for mixed-size designs");
    assert!(
        mlg.legalized,
        "macro overlap left: {}",
        mlg.macro_overlap_after
    );
    for c in placer.design().cells.iter() {
        if c.kind == CellKind::Macro {
            assert!(c.fixed, "macro `{}` not fixed after mLG", c.name);
        }
    }
    assert!(check_legal(placer.design()).is_ok());
    // No macro-macro overlap in the final layout.
    let rects = placer.design().movable_macro_rects();
    assert!(rects.is_empty()); // all fixed now
}

#[test]
fn density_constrained_flow_respects_rho_t() {
    let design = BenchmarkConfig::ispd06_like("it_06", 503, 0.6)
        .scale(300)
        .generate();
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().unwrap();
    assert!(report.scaled_hpwl >= report.final_hpwl);
    // Global placement drove the rho_t = 0.6 overflow down.
    assert!(
        report.final_overflow < 0.35,
        "overflow {} vs target 0.10",
        report.final_overflow
    );
}

#[test]
fn flow_is_deterministic() {
    let run = || {
        let design = BenchmarkConfig::mms_like("it_det", 504, 1.0, 5)
            .scale(250)
            .generate();
        let mut placer = Placer::new(design, EplaceConfig::fast());
        let report = placer.run().unwrap();
        (
            report.final_hpwl,
            report.mgp_iterations,
            report.cgp_iterations,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_is_structurally_sound() {
    let design = BenchmarkConfig::ispd05_like("it_trace", 505)
        .scale(250)
        .generate();
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().unwrap();
    let mgp: Vec<_> = report
        .trace
        .iter()
        .filter(|r| r.stage == Stage::Mgp)
        .collect();
    assert_eq!(mgp.len(), report.mgp_iterations);
    for (k, r) in mgp.iter().enumerate() {
        assert_eq!(r.iteration, k);
        assert!(r.hpwl.is_finite() && r.hpwl > 0.0);
        assert!(r.overflow >= 0.0 && r.overflow <= 1.5);
        assert!(r.lambda > 0.0);
        assert!(r.gamma > 0.0);
        assert!(r.alpha > 0.0);
    }
    // Overflow at the end is below the overflow at the start.
    assert!(mgp.last().unwrap().overflow < mgp.first().unwrap().overflow);
}

#[test]
fn flow_is_thread_count_invariant_where_every_parallel_branch_runs() {
    // Large enough that inside `Placer::run` the density deposit, the WA
    // passes and the Poisson solve all split their work: more than 4,096
    // movables plus fillers give the 128² grid, whose rows, nets and cells
    // are shared over up to eight workers. The run still goes through mLG,
    // the filler phase and cGP; the iteration cap keeps debug builds quick.
    // The serial run (`threads = 1`) must give the same bits as every
    // parallel one.
    let design = || {
        BenchmarkConfig::mms_like("it_threads", 506, 1.0, 6)
            .scale(2200)
            .generate()
    };
    let cfg = |threads: usize| EplaceConfig {
        threads,
        max_iterations: 30,
        ..EplaceConfig::fast()
    };
    let mut with_fillers = design();
    insert_fillers(&mut with_fillers, cfg(1).seed);
    let objects = PlacementProblem::all_movables(&with_fillers).len();
    assert!(objects > 4096, "{objects} movables plus fillers");
    assert_eq!(
        grid_dimension(objects, cfg(1).grid_min, cfg(1).grid_max),
        128
    );
    assert!(
        with_fillers.nets.len() > 2 * 256,
        "{} nets",
        with_fillers.nets.len()
    );

    let run = |threads: usize| {
        let mut placer = Placer::new(design(), cfg(threads));
        let report = placer.run().unwrap();
        let stages: std::collections::HashSet<_> = report.trace.iter().map(|r| r.stage).collect();
        assert!(stages.contains(&Stage::FillerOnly) && stages.contains(&Stage::Cgp));
        assert!(report.mlg.is_some(), "mLG must run");
        let trace: Vec<_> = report
            .trace
            .iter()
            .map(|r| (r.hpwl.to_bits(), r.overflow.to_bits(), r.lambda.to_bits()))
            .collect();
        (trace, report.final_hpwl.to_bits())
    };
    let two = run(2);
    for threads in [1, 3, 8] {
        assert!(
            run(threads) == two,
            "threads {threads} moved the trajectory"
        );
    }
}
