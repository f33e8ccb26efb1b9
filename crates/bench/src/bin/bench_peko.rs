//! Absolute-suboptimality benchmark on PEKO-style known-optima suites.
//!
//! Every other quality number in this repo is relative (ePlace vs. a
//! baseline on a netlist whose optimum nobody knows). This harness runs
//! each placer on `BenchmarkConfig::peko_like` designs, whose construction
//! carries a `KnownOptimum` certificate, and records the **absolute**
//! suboptimality ratio `final legal HPWL / certified optimal HPWL` per
//! placer and suite size into `BENCH_peko.json` at the repository root.
//!
//! Every baseline finishes through the ePlace flow's own mLG and cDP stages
//! (`eplace_bench::run_baseline`), so the ratios compare global-placement
//! quality on equal footing by construction.
//!
//! The file is re-parsed with the journal's own JSON reader before the
//! program exits 0, and every recorded ratio is checked to be finite and
//! ≥ 1 (a "ratio" below 1 would mean a legal placement beat a certified
//! optimum — a broken certificate, not a good placer). A zero exit status
//! therefore certifies a well-formed, self-consistent result.
//!
//! ```text
//! cargo run --release -p eplace-bench --bin bench_peko              # full sweep
//! cargo run --release -p eplace-bench --bin bench_peko -- --smoke   # smallest suite (CI)
//! ```
//!
//! Flags: `--smoke` (smallest suite only), `--seeds N` (seeds per size,
//! default 3), `--out PATH` (output path override).

use eplace_baselines::{CgPlacer, GlobalPlacer, MincutPlacer};
use eplace_bench::{run_baseline, run_eplace};
use eplace_benchgen::{BenchmarkConfig, KnownOptimum};
use eplace_core::EplaceConfig;
use eplace_obs::json::{parse_json, JsonValue};
use eplace_obs::Record;

const SUITE_SIZES: &[usize] = &[240, 600, 1_500];
const BASE_SEED: u64 = 9_000;

struct Options {
    smoke: bool,
    seeds: u64,
    out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        seeds: 3,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--seeds" => {
                let v = args.next().expect("--seeds needs a value");
                opts.seeds = v.parse().expect("bad --seeds value");
                assert!(opts.seeds > 0, "--seeds must be positive");
            }
            "--out" => opts.out = Some(args.next().expect("--out needs a path")),
            other => {
                eprintln!("unknown flag {other}; see the module docs for usage");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// One placer's JSON fragment: `"name":{"hpwl":…,"ratio":…,"seconds":…}`.
fn placer_json(name: &str, hpwl: f64, optimum: &KnownOptimum, seconds: f64) -> String {
    format!(
        "\"{name}\":{{\"hpwl\":{hpwl},\"ratio\":{},\"seconds\":{seconds}}}",
        optimum.ratio(hpwl)
    )
}

fn bench_suite(cells: usize, seed: u64) -> String {
    let config = BenchmarkConfig::peko_like(format!("peko{cells}"), seed).scale(cells);
    let (_, optimum) = config.generate_known_optimum();
    let eplace_cfg = EplaceConfig {
        known_optimum_hpwl: Some(optimum.hpwl),
        ..EplaceConfig::fast()
    };

    // ePlace: the full flow.
    let (eplace, report) = run_eplace(&config, &eplace_cfg);
    assert_eq!(
        report.suboptimality_ratio,
        Some(optimum.ratio(eplace.hpwl)),
        "report ratio must agree with the certificate"
    );

    // Baselines: global placement, then the flow's own mLG and cDP stages.
    let baselines: [Box<dyn GlobalPlacer>; 2] = [
        Box::new(CgPlacer::default()),
        Box::new(MincutPlacer::default()),
    ];
    let mut fragments = vec![placer_json("eplace", eplace.hpwl, &optimum, eplace.seconds)];
    for placer in baselines {
        let row = run_baseline(placer.as_ref(), &config, &eplace_cfg);
        assert!(row.ok, "{} failed to legalize a PEKO design", row.placer);
        fragments.push(placer_json(placer.name(), row.hpwl, &optimum, row.seconds));
    }

    Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("seed", seed)
        .f64_field("optimal_hpwl", optimum.hpwl)
        .raw_field("placers", &format!("{{{}}}", fragments.join(",")))
        .into_line()
}

/// Fails with a message unless `doc` parses and every recorded ratio is a
/// finite number ≥ 1 (within rounding) from a positive certified optimum.
fn validate(doc: &str) -> Result<(), String> {
    let parsed = parse_json(doc).map_err(|e| format!("BENCH_peko.json is not valid JSON: {e}"))?;
    let suites = parsed
        .get("suites")
        .and_then(JsonValue::as_array)
        .ok_or("missing suites array")?;
    if suites.is_empty() {
        return Err("suites array is empty".into());
    }
    for suite in suites {
        let optimum = suite
            .get("optimal_hpwl")
            .and_then(JsonValue::as_f64)
            .ok_or("suite missing numeric optimal_hpwl")?;
        if !optimum.is_finite() || optimum <= 0.0 {
            return Err(format!(
                "optimal_hpwl = {optimum} is not finite and positive"
            ));
        }
        let placers = suite.get("placers").ok_or("suite missing placers object")?;
        for name in ["eplace", "cg-fftpl", "mincut"] {
            let entry = placers
                .get(name)
                .ok_or_else(|| format!("missing placer entry {name}"))?;
            let ratio = entry
                .get("ratio")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{name} missing numeric ratio"))?;
            if !ratio.is_finite() {
                return Err(format!("{name} ratio = {ratio} is not finite"));
            }
            if ratio < 1.0 - 1e-9 {
                return Err(format!(
                    "{name} ratio = {ratio} < 1: a legal placement cannot beat a valid certificate"
                ));
            }
            if ratio > 1e3 {
                return Err(format!("{name} ratio = {ratio} is degenerate"));
            }
        }
    }
    Ok(())
}

fn default_out_path() -> std::path::PathBuf {
    // crates/bench → repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_peko.json")
}

fn main() {
    let opts = parse_args();
    let sizes: &[usize] = if opts.smoke {
        &SUITE_SIZES[..1]
    } else {
        SUITE_SIZES
    };

    println!(
        "bench_peko: {} size(s) x {} seed(s)",
        sizes.len(),
        opts.seeds
    );
    let mut suites = Vec::new();
    for &cells in sizes {
        for s in 0..opts.seeds {
            let seed = BASE_SEED + s;
            let line = bench_suite(cells, seed);
            println!("  cells={cells} seed={seed} done");
            suites.push(line);
        }
    }

    let mut suites_json = String::from("[");
    suites_json.push_str(&suites.join(","));
    suites_json.push(']');
    let doc = Record::new("bench_peko")
        .str_field("suite_family", "peko_like")
        .u64_field("seeds_per_size", opts.seeds)
        .bool_field("smoke", opts.smoke)
        .raw_field("suites", &suites_json)
        .into_line();

    if let Err(e) = validate(&doc) {
        eprintln!("bench_peko: self-validation failed: {e}");
        std::process::exit(1);
    }

    let out = opts
        .out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out_path);
    eplace_obs::write_atomic(&out, format!("{doc}\n").as_bytes()).expect("writing BENCH_peko.json");
    println!("bench_peko: validated result written to {}", out.display());
}
