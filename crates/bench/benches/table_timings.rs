//! Timings behind the tables' "Average Runtime" rows: each placer
//! end-to-end (global placement + identical discrete finish) on one
//! ISPD-2005-like circuit.

use eplace_bench::timing::bench;
use eplace_bench::{all_baselines, run_baseline, run_eplace};
use eplace_benchgen::BenchmarkConfig;
use eplace_core::EplaceConfig;

fn main() {
    let config = BenchmarkConfig::ispd05_like("adaptec1_like", 1_000).scale(400);
    let eplace_cfg = EplaceConfig::fast();
    println!("table1_runtime");
    bench("ePlace", 10, || run_eplace(&config, &eplace_cfg).0);
    for placer in all_baselines() {
        bench(placer.name(), 10, || {
            run_baseline(placer.as_ref(), &config, &eplace_cfg)
        });
    }
}
