//! End-to-end checks of the observability layer against the full flow:
//! the journal must mirror the iteration trace exactly, recording must
//! never perturb the numerics, and the phase breakdown must account for
//! the run's wall-clock.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{EplaceConfig, Placer, Stage};
use eplace_repro::netlist::Design;
use eplace_repro::obs::json::{parse_json, JsonValue};
use eplace_repro::obs::Obs;
use std::time::Instant;

fn small_design(seed: u64) -> Design {
    BenchmarkConfig::ispd05_like("obs", seed)
        .scale(200)
        .generate()
}

fn run_with(design: Design, obs: Obs) -> eplace_repro::core::PlacementReport {
    let cfg = EplaceConfig {
        obs,
        ..EplaceConfig::fast()
    };
    Placer::new(design, cfg).run().unwrap()
}

#[test]
fn journal_iter_lines_match_reported_iterations() {
    let (obs, journal) = Obs::memory();
    let report = run_with(small_design(81), obs);
    let lines = journal.lines();
    let records: Vec<JsonValue> = lines
        .iter()
        .map(|l| parse_json(l).expect("journal line must parse as JSON"))
        .collect();
    let kind = |v: &JsonValue| {
        v.get("type")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    let iters: Vec<&JsonValue> = records.iter().filter(|v| kind(v) == "iter").collect();
    assert_eq!(
        iters.len(),
        report.trace.len(),
        "one journal iter record per trace record"
    );
    // The journal mirrors the trace value for value: JSON floats use the
    // shortest round-trip form, so parsing back must be bit-exact.
    for (line, rec) in iters.iter().zip(&report.trace) {
        let f = |key: &str| line.get(key).and_then(JsonValue::as_f64).unwrap();
        assert_eq!(
            line.get("stage").and_then(JsonValue::as_str),
            Some(rec.stage.key())
        );
        assert_eq!(
            line.get("iter").and_then(JsonValue::as_u64),
            Some(rec.iteration as u64)
        );
        assert_eq!(f("hpwl").to_bits(), rec.hpwl.to_bits());
        assert_eq!(f("overflow").to_bits(), rec.overflow.to_bits());
        assert_eq!(f("alpha").to_bits(), rec.alpha.to_bits());
        assert_eq!(f("lambda").to_bits(), rec.lambda.to_bits());
        assert_eq!(f("gamma").to_bits(), rec.gamma.to_bits());
        assert_eq!(
            line.get("backtracks").and_then(JsonValue::as_u64),
            Some(rec.backtracks as u64)
        );
    }
    // Exactly one summary, and it is the final line.
    let summaries: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, v)| kind(v) == "summary")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(summaries, vec![records.len() - 1]);
}

#[test]
fn journaling_never_perturbs_the_trajectory() {
    let baseline = run_with(small_design(82), Obs::disabled());
    let (obs, _journal) = Obs::memory();
    let journaled = run_with(small_design(82), obs);
    let key = |r: &eplace_repro::core::PlacementReport| {
        r.trace
            .iter()
            .map(|t| {
                (
                    t.iteration,
                    t.hpwl.to_bits(),
                    t.overflow.to_bits(),
                    t.alpha.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&baseline), key(&journaled));
    assert_eq!(
        baseline.final_hpwl.to_bits(),
        journaled.final_hpwl.to_bits()
    );
}

#[test]
fn phase_times_account_for_the_wall_clock() {
    // The wall clock is taken here, not from the report: the report's
    // total is the `flow` span, the same clock as the phases.
    let mut placer = Placer::new(small_design(83), EplaceConfig::fast());
    let start = Instant::now();
    let report = placer.run().unwrap();
    let total = start.elapsed().as_secs_f64();
    assert!(
        !report.phase_times.is_empty(),
        "phase times populate even with obs disabled"
    );
    let covered: f64 = report.phase_times.iter().map(|p| p.seconds).sum();
    assert!(
        covered <= total * 1.05,
        "phases ({covered}s) cannot out-time the flow ({total}s)"
    );
    assert!(
        covered >= total * 0.95,
        "phases ({covered}s) must cover >= 95% of the flow ({total}s)"
    );
}

#[test]
fn iterations_per_stage_sums_to_trace() {
    let report = run_with(small_design(84), Obs::disabled());
    let total: usize = report.iterations_per_stage.iter().map(|(_, n)| n).sum();
    assert_eq!(total, report.trace.len());
    for &(stage, n) in &report.iterations_per_stage {
        assert_eq!(n, report.trace.iter().filter(|r| r.stage == stage).count());
    }
}

#[test]
fn mixed_flow_reports_every_stage() {
    let design = BenchmarkConfig::mms_like("obsm", 85, 1.0, 4)
        .scale(200)
        .generate();
    let (obs, journal) = Obs::memory();
    let report = run_with(design, obs.clone());
    let stages: Vec<Stage> = report
        .iterations_per_stage
        .iter()
        .map(|&(s, _)| s)
        .collect();
    assert_eq!(stages, vec![Stage::Mgp, Stage::FillerOnly, Stage::Cgp]);
    let phases: Vec<&str> = report.phase_times.iter().map(|p| p.name.as_str()).collect();
    for expect in ["mip", "mgp", "mlg", "fillergp", "cgp", "cdp"] {
        assert!(
            phases.contains(&expect),
            "missing phase {expect} in {phases:?}"
        );
    }
    // Per-stage counters agree with the report.
    let snap = obs.snapshot();
    for (stage, n) in &report.iterations_per_stage {
        let counter = match stage {
            Stage::Mgp => "iters_mgp",
            Stage::FillerOnly => "iters_fillergp",
            Stage::Cgp => "iters_cgp",
            _ => continue,
        };
        assert_eq!(snap.counter(counter), *n as u64, "{counter}");
    }
    assert!(!journal.lines().is_empty());
}

#[test]
fn flow_records_stage_counters_and_spans() {
    let design = BenchmarkConfig::mms_like("obsr", 87, 1.0, 4)
        .scale(200)
        .generate();
    let obs = Obs::metrics();
    let report = run_with(design, obs.clone());
    let snap = obs.snapshot();

    assert_eq!(
        snap.counter("mip_cg_iterations"),
        report.mip.cg_iterations as u64
    );
    assert_eq!(snap.counter("mip_rebuilds"), report.mip.rebuilds as u64);
    let mlg = report.mlg.as_ref().expect("mixed-size flow runs mLG");
    assert_eq!(
        snap.counter("mlg_outer_iterations"),
        mlg.outer_iterations as u64
    );
    assert_eq!(
        snap.counter("mlg_moves_attempted"),
        mlg.moves_attempted as u64
    );
    assert_eq!(
        snap.counter("mlg_moves_accepted"),
        mlg.moves_accepted as u64
    );
    let legal = report.legalization.as_ref().expect("flow legalizes");
    assert_eq!(snap.counter("legalize_cells_placed"), legal.placed as u64);

    let calls = |path: &str| snap.span(path).map_or(0, |s| s.calls);
    for path in [
        "flow/mip",
        "flow/mlg/mlg_anneal",
        "flow/cdp/legalize_abacus",
        "flow/cdp/global_swap",
    ] {
        assert_eq!(calls(path), 1, "{path}");
    }
    assert_eq!(calls("flow/cdp/detail_place"), 2);
    assert!(
        snap.spans
            .iter()
            .any(|s| s.path.starts_with("flow/mgp/") && s.name() == "cost_combine"),
        "no cost_combine span below flow/mgp"
    );
}

#[test]
fn journal_iter_lines_carry_rudy_congestion() {
    // Satellite of the routability subsystem: every journaled iteration
    // reports the RUDY congestion of the in-flight placement. The map is
    // read-only — `journaling_never_perturbs_the_trajectory` above proves
    // the numerics cannot see it.
    let (obs, journal) = Obs::memory();
    run_with(small_design(86), obs);
    let mut iter_lines = 0;
    for line in journal.lines() {
        let v = parse_json(&line).expect("journal line must parse");
        if v.get("type").and_then(JsonValue::as_str) != Some("iter") {
            continue;
        }
        iter_lines += 1;
        let peak = v
            .get("rudy_peak")
            .and_then(JsonValue::as_f64)
            .expect("iter record carries rudy_peak");
        let mean = v
            .get("rudy_mean")
            .and_then(JsonValue::as_f64)
            .expect("iter record carries rudy_mean");
        assert!(peak.is_finite() && mean.is_finite());
        assert!(peak >= mean, "peak {peak} < mean {mean}");
        assert!(mean >= 0.0);
    }
    assert!(iter_lines > 0, "flow must journal iterations");
}
