//! Reproduces **Figure 7**: the runtime breakdown of the flow — outer ring
//! (mIP/mGP/mLG/cGP/cDP shares) and the mGP-internal split (density /
//! wirelength / other; paper: 57 % / 29 % / 14 %).
//!
//! Both rings come from the span tree of one metrics recorder shared by
//! every run: stage shares from the phase spans below `flow`, the mGP split
//! from the kernel spans below `flow/mgp`. Exits non-zero when an mGP share
//! is not finite or the density or wirelength share is not positive, so a
//! renamed span fails the run instead of reading 0 %.
//!
//! Usage: `repro_fig7 [--scale N] [--circuits K]`

use eplace_bench::{parse_args, run_eplace};
use eplace_benchgen::BenchmarkSuite;
use eplace_core::{EplaceConfig, Obs, Stage};
use eplace_obs::Snapshot;
use std::process::ExitCode;

/// Kernel spans booked as density: deposit, Poisson solve, and the field
/// sampling + preconditioning of each gradient evaluation.
const DENSITY_SPANS: &[&str] = &["density_deposit", "density_solve", "cost_combine"];
/// Kernel spans booked as wirelength.
const WIRELENGTH_SPANS: &[&str] = &["wa_gradient", "wa_eval"];

/// Seconds in the spans below `flow/mgp` whose leaf is one of `leaves`.
fn mgp_seconds(snap: &Snapshot, leaves: &[&str]) -> f64 {
    snap.spans
        .iter()
        .filter(|s| s.path.starts_with("flow/mgp/") && leaves.contains(&s.name()))
        .map(|s| s.seconds())
        .sum()
}

fn main() -> ExitCode {
    let (scale, _, extra) = parse_args(150);
    let take: usize = extra
        .iter()
        .find(|(k, _)| k == "circuits")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(4);
    let suite: Vec<_> = BenchmarkSuite::mms(scale).into_iter().take(take).collect();
    eprintln!(
        "Figure 7 reproduction over {} MMS-like circuits",
        suite.len()
    );
    let obs = Obs::metrics();
    let cfg = EplaceConfig {
        obs: obs.clone(),
        ..EplaceConfig::fast()
    };
    for config in &suite {
        eprintln!("  {} ...", config.name);
        run_eplace(config, &cfg);
    }
    let snap = obs.snapshot();
    let seconds = |path: &str| snap.span(path).map_or(0.0, |s| s.seconds());

    let total = seconds("flow").max(1e-12);
    println!("stage,seconds,share_pct");
    for stage in Stage::FLOW {
        if let Some(span) = snap.span(&format!("flow/{}", stage.phase())) {
            let s = span.seconds();
            println!("{stage},{s:.3},{:.1}", 100.0 * s / total);
        }
    }

    let mgp = seconds("flow/mgp");
    let density = mgp_seconds(&snap, DENSITY_SPANS);
    let wirelength = mgp_seconds(&snap, WIRELENGTH_SPANS);
    let split = [
        ("mgp_density", density),
        ("mgp_wirelength", wirelength),
        ("mgp_other", mgp - density - wirelength),
    ];
    for (name, s) in split {
        println!("{name},{s:.3},{:.1}", 100.0 * s / mgp);
    }
    eprintln!(
        "paper shape: mGP dominates the flow; inside mGP density 57% / wirelength 29% / other 14%"
    );

    let shares = split.map(|(_, s)| s / mgp);
    if shares.iter().any(|s| !s.is_finite()) || shares[0] <= 0.0 || shares[1] <= 0.0 {
        eprintln!(
            "error: mGP split {shares:?} is not finite and positive; \
             are the flow/mgp kernel spans still named {DENSITY_SPANS:?} and {WIRELENGTH_SPANS:?}?"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
