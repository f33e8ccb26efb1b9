//! Quickstart: generate a small ISPD-2005-like circuit, run the full ePlace
//! flow, and print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{EplaceConfig, Placer};
use eplace_repro::legalize::check_legal;
use eplace_repro::netlist::DesignStats;

fn main() {
    // A deterministic synthetic circuit: ~500 standard cells, fixed macros,
    // an IO ring, contest-like netlist statistics.
    let design = BenchmarkConfig::ispd05_like("quickstart", 42)
        .scale(500)
        .generate();
    println!("circuit: {}", DesignStats::of(&design));
    let hpwl_scattered = design.hpwl();

    // The full flow: mIP -> mGP -> cDP (mLG/cGP are skipped automatically
    // because this suite's macros are fixed).
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().expect("placement diverged beyond recovery");

    println!("initial (random) HPWL : {:.4e}", hpwl_scattered);
    println!("after mIP (quadratic) : {:.4e}", report.mip.hpwl_after);
    println!("final HPWL            : {:.4e}", report.final_hpwl);
    println!("final overflow tau    : {:.3}", report.final_overflow);
    println!(
        "mGP iterations        : {} (backtracks/iter {:.3})",
        report.mgp_iterations, report.mgp_backtracks_per_iteration
    );
    println!("detail-place gain     : {:.4e}", report.detail_gain);
    for phase in &report.phase_times {
        println!("stage {:>11}: {:.3}s", phase.name, phase.seconds);
    }
    match check_legal(placer.design()) {
        Ok(()) => println!("layout is LEGAL"),
        Err(e) => println!("layout is ILLEGAL: {e}"),
    }
}
