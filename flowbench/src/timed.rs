//! The untraced, timed runs behind the end-to-end metrics.

use crate::json::{self, Obj};
use crate::workload::Workload;
use eplace_bookshelf::read_aux_checked;
use eplace_core::{EplaceConfig, Placer, Stage};
use eplace_legalize::check_legal;
use eplace_netlist::LintPolicy;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups timed before each flow. A set-up takes tens of milliseconds, so
/// `setup_s` is the median of many, spread over the whole run like the
/// flows are.
const SETUPS_PER_FLOW: usize = 12;

/// Reads the workload and wraps it in a default-config placer: the set-up
/// that `setup_s` times.
pub fn setup(workload: Workload, dir: &Path) -> Result<Placer, String> {
    let (design, _lint) =
        read_aux_checked(workload.aux_path(dir), LintPolicy::Repair).map_err(|e| e.to_string())?;
    Ok(Placer::new(design, EplaceConfig::default()))
}

/// One placed flow and the verdict of its correctness gate.
pub struct Flow {
    pub seconds: f64,
    /// `Placer::run`'s own per-stage wall times.
    pub stages: Vec<(String, f64)>,
    pub hpwl: f64,
    /// `hpwl` over the certified optimum; NaN where there is none.
    pub subopt_ratio: f64,
    pub mgp_converged: bool,
    /// Lowest density overflow mGP reached (converged when ≤ the target).
    pub mgp_overflow: f64,
    pub mgp_iterations: usize,
    pub cgp_iterations: usize,
    pub final_overflow: f64,
    /// `None` when every check passed.
    pub failure: Option<String>,
}

/// Runs `Placer::run` on a ready placer and checks the result: the flow
/// returns `Ok`, the placement is legal, the reported HPWL is finite and
/// matches the placed design, and it is no better than the optimum, where
/// one is known. A failed flow keeps NaN for the figures it did not reach.
pub fn place(mut placer: Placer, optimum: Option<f64>) -> Flow {
    let t = Instant::now();
    let result = placer.run();
    let seconds = t.elapsed().as_secs_f64();
    let mut flow = Flow {
        seconds,
        stages: Vec::new(),
        hpwl: f64::NAN,
        subopt_ratio: f64::NAN,
        mgp_converged: false,
        mgp_overflow: f64::NAN,
        mgp_iterations: 0,
        cgp_iterations: 0,
        final_overflow: f64::NAN,
        failure: None,
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            flow.failure = Some(format!("Placer::run failed: {e}"));
            return flow;
        }
    };
    flow.stages = report
        .stage_timings
        .iter()
        .map(|t| (format!("{:?}", t.stage), t.seconds))
        .collect();
    flow.hpwl = report.final_hpwl;
    flow.subopt_ratio = optimum.map_or(f64::NAN, |opt| report.final_hpwl / opt);
    flow.mgp_converged = report.mgp_converged;
    flow.mgp_overflow = report
        .trace
        .iter()
        .filter(|r| r.stage == Stage::Mgp)
        .map(|r| r.overflow)
        .fold(f64::INFINITY, f64::min);
    flow.mgp_iterations = report.mgp_iterations;
    flow.cgp_iterations = report.cgp_iterations;
    flow.final_overflow = report.final_overflow;
    flow.failure = if let Some(e) = report.legalization_error {
        Some(format!("legalization failed: {e}"))
    } else if let Err(e) = check_legal(placer.design()) {
        Some(format!("illegal placement: {e}"))
    } else if !flow.hpwl.is_finite() || flow.hpwl <= 0.0 {
        Some(format!("HPWL {} is not finite and positive", flow.hpwl))
    } else if flow.hpwl.to_bits() != placer.design().hpwl().to_bits() {
        Some("reported HPWL differs from the placed design's".to_string())
    } else if flow.subopt_ratio < 1.0 {
        Some(format!(
            "HPWL {} beats the certified optimum {}",
            flow.hpwl,
            optimum.unwrap_or(f64::NAN)
        ))
    } else {
        None
    };
    flow
}

/// Places each design in `dirs` once, after [`SETUPS_PER_FLOW`] timed
/// set-ups of it (the last one is placed); `run.py` gates and averages the
/// flows.
pub fn run(workload: Workload, dirs: &[PathBuf]) -> Result<String, String> {
    let mut setup_s = Vec::new();
    let mut flows = Vec::new();
    for (design, dir) in dirs.iter().enumerate() {
        let optimum = workload.read_optimum(dir)?;
        let mut placer = None;
        for _ in 0..SETUPS_PER_FLOW {
            drop(placer.take());
            let t = Instant::now();
            let p = setup(workload, dir)?;
            setup_s.push(t.elapsed().as_secs_f64());
            placer = Some(p);
        }
        let placer = placer.ok_or("no set-up timed")?;
        flows.push((design, place(placer, optimum)));
    }
    let flow_json: Vec<String> = flows
        .iter()
        .map(|(design, f)| {
            Obj::new()
                .int("design", *design as u64)
                .num("flow_s", f.seconds)
                .raw("stages", &stages_json(&f.stages))
                .num("hpwl", f.hpwl)
                .str("hpwl_bits", &format!("{:016x}", f.hpwl.to_bits()))
                .num("subopt_ratio", f.subopt_ratio)
                .bool("mgp_converged", f.mgp_converged)
                .num("mgp_overflow", f.mgp_overflow)
                .int("mgp_iterations", f.mgp_iterations as u64)
                .int("cgp_iterations", f.cgp_iterations as u64)
                .num("final_overflow", f.final_overflow)
                .opt_str("failure", f.failure.as_deref())
                .finish()
        })
        .collect();
    Ok(Obj::new()
        .str("workload", workload.name())
        .raw("setup_s", &json::num_array(&setup_s))
        .raw("flows", &json::array(&flow_json))
        .num("peak_rss_mb", peak_rss_mb())
        .finish())
}

fn stages_json(stages: &[(String, f64)]) -> String {
    stages
        .iter()
        .fold(Obj::new(), |o, (name, s)| o.num(name, *s))
        .finish()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
