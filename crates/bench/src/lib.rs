//! Shared harness for the `repro_*` binaries: runs every placer through an
//! identical flow on identical inputs and formats paper-style table rows.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index); this library holds the plumbing so the
//! binaries stay declarative.

pub mod timing;

use eplace_baselines::{
    measure_overflow, BellshapePlacer, CgPlacer, GlobalPlacer, MincutPlacer, QuadraticPlacer,
};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{detail_placement, macro_legalization, EplaceConfig, PlacementReport, Placer};
use eplace_density::scaled_hpwl;
use std::time::Instant;

/// One placer's outcome on one circuit, with everything the tables report.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Placer name (table column).
    pub placer: String,
    /// Circuit name (table row).
    pub circuit: String,
    /// Final legalized HPWL (Tables I and III).
    pub hpwl: f64,
    /// Scaled HPWL per the ISPD-2006 protocol (Table II).
    pub scaled_hpwl: f64,
    /// Final density overflow (the tables' density-overflow rows).
    pub overflow: f64,
    /// Total flow wall-clock seconds.
    pub seconds: f64,
    /// Seconds inside line search (CG-family solvers only).
    pub line_search_seconds: f64,
    /// `true` when legalization succeeded (placers can fail, as the paper's
    /// N/A entries show).
    pub ok: bool,
}

/// Runs the full ePlace flow on a fresh copy of `config`'s circuit and
/// returns its table row plus the flow's report (trace, phase times, mLG
/// and cDP outcomes) for the figure binaries.
pub fn run_eplace(
    config: &BenchmarkConfig,
    eplace_cfg: &EplaceConfig,
) -> (FlowResult, PlacementReport) {
    let design = config.generate();
    let t = Instant::now();
    let report = Placer::new(design, eplace_cfg.clone())
        .run()
        .expect("placement diverged beyond recovery");
    let row = FlowResult {
        placer: "ePlace".into(),
        circuit: config.name.clone(),
        hpwl: report.final_hpwl,
        scaled_hpwl: report.scaled_hpwl,
        overflow: report.final_overflow,
        seconds: t.elapsed().as_secs_f64(),
        line_search_seconds: 0.0,
        ok: report.legalization.is_some(),
    };
    (row, report)
}

/// Runs a baseline global placer followed by the ePlace flow's own discrete
/// stages ([`macro_legalization`], then [`detail_placement`]), so the table
/// rows compare global-placement algorithms under one protocol.
pub fn run_baseline(
    placer: &dyn GlobalPlacer,
    config: &BenchmarkConfig,
    eplace_cfg: &EplaceConfig,
) -> FlowResult {
    let mut design = config.generate();
    let t = Instant::now();
    let gp = placer.global_place(&mut design);
    macro_legalization(&mut design, eplace_cfg);
    let cdp = detail_placement(&mut design, eplace_cfg);
    let seconds = t.elapsed().as_secs_f64();
    let overflow = measure_overflow(&design);
    let hpwl = design.hpwl();
    FlowResult {
        placer: placer.name().into(),
        circuit: config.name.clone(),
        hpwl,
        scaled_hpwl: scaled_hpwl(hpwl, overflow),
        overflow,
        seconds,
        line_search_seconds: gp.line_search_seconds,
        ok: cdp.legalization.is_some(),
    }
}

/// The four baselines in table order.
pub fn all_baselines() -> Vec<Box<dyn GlobalPlacer>> {
    vec![
        Box::new(MincutPlacer::default()),
        Box::new(QuadraticPlacer::default()),
        Box::new(BellshapePlacer::default()),
        Box::new(CgPlacer::default()),
    ]
}

/// Runs every placer (baselines + ePlace) over every circuit of a suite.
pub fn run_suite(configs: &[BenchmarkConfig], eplace_cfg: &EplaceConfig) -> Vec<FlowResult> {
    let baselines = all_baselines();
    let mut rows = Vec::new();
    for config in configs {
        for b in &baselines {
            eprintln!("  [{}] {} ...", config.name, b.name());
            rows.push(run_baseline(b.as_ref(), config, eplace_cfg));
        }
        eprintln!("  [{}] ePlace ...", config.name);
        rows.push(run_eplace(config, eplace_cfg).0);
    }
    rows
}

/// Formats a paper-style table: circuits as rows, placers as columns, the
/// chosen metric in the cells, plus the two summary lines the paper prints
/// (average metric overhead vs ePlace, average runtime ratio vs ePlace).
pub fn format_table(results: &[FlowResult], metric: Metric) -> String {
    let mut circuits: Vec<&str> = Vec::new();
    let mut placers: Vec<&str> = Vec::new();
    for r in results {
        if !circuits.contains(&r.circuit.as_str()) {
            circuits.push(&r.circuit);
        }
        if !placers.contains(&r.placer.as_str()) {
            placers.push(&r.placer);
        }
    }
    let get = |c: &str, p: &str| results.iter().find(|r| r.circuit == c && r.placer == p);
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "circuit"));
    for p in &placers {
        out.push_str(&format!("{p:>14}"));
    }
    out.push('\n');
    for c in &circuits {
        out.push_str(&format!("{c:<18}"));
        for p in &placers {
            match get(c, p) {
                Some(r) if r.ok => out.push_str(&format!("{:>14.4e}", metric.of(r))),
                Some(_) => out.push_str(&format!("{:>14}", "N/A")),
                None => out.push_str(&format!("{:>14}", "-")),
            }
        }
        out.push('\n');
    }
    // Summary lines vs ePlace (paper's "Average HPWL" / "Average Runtime").
    out.push_str(&format!("{:<18}", "avg metric vs eP"));
    for p in &placers {
        let mut ratio_sum = 0.0;
        let mut n = 0;
        for c in &circuits {
            if let (Some(r), Some(e)) = (get(c, p), get(c, "ePlace")) {
                if r.ok && e.ok && metric.of(e) > 0.0 {
                    ratio_sum += metric.of(r) / metric.of(e);
                    n += 1;
                }
            }
        }
        if n > 0 {
            out.push_str(&format!("{:>13.2}%", (ratio_sum / n as f64 - 1.0) * 100.0));
        } else {
            out.push_str(&format!("{:>14}", "-"));
        }
    }
    out.push('\n');
    out.push_str(&format!("{:<18}", "avg runtime vs eP"));
    for p in &placers {
        let mut ratio_sum = 0.0;
        let mut n = 0;
        for c in &circuits {
            if let (Some(r), Some(e)) = (get(c, p), get(c, "ePlace")) {
                if e.seconds > 0.0 {
                    ratio_sum += r.seconds / e.seconds;
                    n += 1;
                }
            }
        }
        if n > 0 {
            out.push_str(&format!("{:>13.2}x", ratio_sum / n as f64));
        } else {
            out.push_str(&format!("{:>14}", "-"));
        }
    }
    out.push('\n');
    out.push_str(&format!("{:<18}", "avg overflow vs eP"));
    for p in &placers {
        let mut ratio_sum = 0.0;
        let mut n = 0;
        for c in &circuits {
            if let (Some(r), Some(e)) = (get(c, p), get(c, "ePlace")) {
                if r.ok && e.ok && e.overflow > 1e-9 {
                    ratio_sum += r.overflow / e.overflow;
                    n += 1;
                }
            }
        }
        if n > 0 {
            out.push_str(&format!("{:>13.2}x", ratio_sum / n as f64));
        } else {
            out.push_str(&format!("{:>14}", "-"));
        }
    }
    out.push('\n');
    out
}

/// Which metric a table prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Plain HPWL (Tables I, III).
    Hpwl,
    /// Scaled HPWL (Table II).
    ScaledHpwl,
}

impl Metric {
    /// Extracts the metric from a result.
    pub fn of(self, r: &FlowResult) -> f64 {
        match self {
            Metric::Hpwl => r.hpwl,
            Metric::ScaledHpwl => r.scaled_hpwl,
        }
    }
}

/// Parses `--scale N` / `--circuit NAME` style flags from `std::env::args`,
/// returning `(scale, circuit_filter, extra)` with `default_scale` when
/// absent. Unrecognized `--key value` pairs land in `extra`.
pub fn parse_args(default_scale: usize) -> (usize, Option<String>, Vec<(String, String)>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = default_scale;
    let mut circuit = None;
    let mut extra = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        let value = args.get(i + 1).cloned().unwrap_or_default();
        match key.as_str() {
            "--scale" => scale = value.parse().unwrap_or(default_scale),
            "--circuit" => circuit = Some(value.clone()),
            k if k.starts_with("--") => extra.push((k.trim_start_matches("--").into(), value)),
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    (scale, circuit, extra)
}

/// Applies the optional `--circuit` filter to a suite.
pub fn filter_suite(
    mut configs: Vec<BenchmarkConfig>,
    filter: &Option<String>,
) -> Vec<BenchmarkConfig> {
    if let Some(f) = filter {
        configs.retain(|c| c.name.contains(f.as_str()));
    }
    configs
}
