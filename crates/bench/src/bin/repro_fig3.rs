//! Reproduces **Figure 3**: snapshots of mGP progression (W and O at
//! selected iterations, optionally with full position dumps for plotting).
//!
//! Usage: `repro_fig3 [--scale N] [--snapshots K]`

use eplace_bench::{parse_args, run_eplace};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{EplaceConfig, Stage};

fn main() {
    let (scale, _, extra) = parse_args(400);
    let snapshots: usize = extra
        .iter()
        .find(|(k, _)| k == "snapshots")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(6);
    let config = BenchmarkConfig::mms_like("adaptec1_mms", 3_000, 1.0, 12).scale(scale);
    eprintln!("Figure 3 reproduction on {}", config.name);
    let (_, report) = run_eplace(&config, &EplaceConfig::fast());
    let mgp: Vec<_> = report
        .trace
        .iter()
        .filter(|r| r.stage == Stage::Mgp)
        .collect();
    println!("snapshot,iteration,W,O,overflow");
    for s in 0..snapshots {
        let idx = if snapshots <= 1 {
            0
        } else {
            (s * (mgp.len() - 1)) / (snapshots - 1)
        };
        let r = mgp[idx];
        println!(
            "{s},{},{:.4e},{:.4e},{:.4}",
            r.iteration, r.hpwl, r.overlap, r.overflow
        );
    }
    eprintln!(
        "paper shape (Fig. 3a-f): W rises from the overlapped quadratic optimum while O falls by ~2x by the final iteration"
    );
}
