//! Reproducible global-placement hot-path benchmark.
//!
//! Runs the steady-state mGP iteration — Nesterov step, WA wirelength
//! gradient, density deposit + spectral Poisson solve — on benchgen suites
//! at three sizes, records the median per-iteration wall time plus the
//! per-phase span breakdown from `eplace-obs`, and writes `BENCH_gp.json`
//! at the repository root. A separate `transform` record holds the median
//! wall time of one Poisson transform round (analysis plus the three
//! syntheses) at grid 256. The file is re-parsed with the journal's own
//! JSON reader before the program exits 0, so a zero exit status certifies
//! a well-formed result whose timings are all finite and positive.
//!
//! ```text
//! cargo run --release --bin bench_gp              # full 3-size sweep
//! cargo run --release --bin bench_gp -- --smoke   # smallest suite only (CI)
//! ```
//!
//! Flags: `--smoke` (1 000-cell suite only), `--samples N` (timed
//! iterations per suite, default 30), `--out PATH` (output path override).
//! `EPLACE_BENCH_THREADS` selects the execution layer width (default:
//! serial, the configuration the golden trace pins down).

use eplace_bench::timing::bench;
use eplace_benchgen::BenchmarkConfig;
use eplace_core::{
    initial_placement, insert_fillers, EplaceCost, NesterovOptimizer, PlacementProblem,
};
use eplace_density::grid_dimension;
use eplace_exec::ExecConfig;
use eplace_obs::json::{parse_json, JsonValue};
use eplace_obs::{Obs, Record};
use eplace_spectral::Transform2d;
use std::fmt::Write as _;

const SUITE_SIZES: &[usize] = &[1_000, 4_000, 16_000];
const WARMUP_STEPS: usize = 3;
/// Grid side for the transform-round timing — the production mGP grid of
/// the largest suite.
const TRANSFORM_GRID: usize = 256;

struct Options {
    smoke: bool,
    samples: usize,
    out: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        samples: 30,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--samples" => {
                let v = args.next().expect("--samples needs a value");
                opts.samples = v.parse().expect("bad --samples value");
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

fn bench_exec() -> ExecConfig {
    match std::env::var("EPLACE_BENCH_THREADS") {
        Ok(v) => ExecConfig::with_threads(v.parse().expect("bad EPLACE_BENCH_THREADS")),
        Err(_) => ExecConfig::serial(),
    }
}

/// Serializes a snapshot's spans as a JSON object keyed by span path.
/// Span paths are `'static` identifiers joined with `/`, so they need no
/// escaping; the final self-validation parse would catch a violation.
fn spans_to_json(obs: &Obs) -> String {
    let mut s = String::from("{");
    for (i, span) in obs.snapshot().spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let mean_ns = span.total_ns as f64 / span.calls.max(1) as f64;
        let _ = write!(
            s,
            "\"{}\":{{\"calls\":{},\"total_ns\":{},\"mean_ns\":{mean_ns}}}",
            span.path, span.calls, span.total_ns
        );
    }
    s.push('}');
    s
}

/// Benchmarks steady-state `step` calls on one suite size and returns the
/// suite's JSON object (as a raw string for [`Record::raw_field`]).
fn bench_suite(cells: usize, samples: usize, exec: ExecConfig) -> String {
    let mut design = BenchmarkConfig::ispd05_like("bench-gp", 42)
        .scale(cells)
        .generate();
    initial_placement(&mut design);
    insert_fillers(&mut design, 42);
    let problem = PlacementProblem::all_movables(&design);
    let dim = grid_dimension(problem.len(), 16, 512);
    let mut cost = EplaceCost::new(&design, &problem, dim, dim, true);
    cost.set_exec(exec);
    let pos = problem.positions(&design);
    cost.init_lambda(&pos);
    let perturb = 0.1 * cost.bin_width();
    let mut optimizer = NesterovOptimizer::new(pos, &mut cost, 0.95, 10, true, perturb);

    // Size every pooled buffer before timing or span collection starts.
    for _ in 0..WARMUP_STEPS {
        optimizer.step(&mut cost);
    }

    // Spans are collected only over the timed region (plus the harness's
    // own short warmup), so `mean_ns` reflects steady state.
    let obs = Obs::metrics();
    cost.set_obs(obs.clone());
    optimizer.set_obs(obs.clone());
    let m = bench(&format!("gp_step/{cells}"), samples, || {
        optimizer.step(&mut cost)
    });

    Record::new("suite")
        .u64_field("cells", cells as u64)
        .u64_field("objects", problem.len() as u64)
        .u64_field("grid", dim as u64)
        .u64_field("samples", m.samples as u64)
        .u64_field("median_step_ns", m.median.as_nanos() as u64)
        .u64_field("min_step_ns", m.min.as_nanos() as u64)
        .u64_field("mean_step_ns", m.mean.as_nanos() as u64)
        .raw_field("spans", &spans_to_json(&obs))
        .into_line()
}

/// Benchmarks one Poisson-solve transform round (analysis DCT-II plus the
/// three syntheses) at `dim × dim` and returns its median as a JSON object.
fn bench_transform(dim: usize, samples: usize, exec: ExecConfig) -> String {
    let data: Vec<f64> = (0..dim * dim)
        .map(|i| ((i * 7 % 13) as f64) - 6.0)
        .collect();
    let mut t = Transform2d::new(dim, dim)
        .unwrap_or_else(|e| panic!("{e}"))
        .with_exec(exec);
    let m = bench(&format!("transform_round/{dim}x{dim}"), samples, || {
        let mut a = data.clone();
        t.dct2(&mut a);
        let mut psi = a.clone();
        t.dct3(&mut psi);
        let mut fx = a.clone();
        t.dst3_x(&mut fx);
        let mut fy = a;
        t.dst3_y(&mut fy);
        (psi, fx, fy)
    });
    Record::new("transform")
        .u64_field("grid", dim as u64)
        .u64_field("samples", m.samples as u64)
        .u64_field("median_ns", m.median.as_nanos() as u64)
        .into_line()
}

/// Fails with a message unless `doc` parses and every suite's timings are
/// finite and positive.
fn validate(doc: &str) -> Result<(), String> {
    let parsed = parse_json(doc).map_err(|e| format!("BENCH_gp.json is not valid JSON: {e}"))?;
    let suites = parsed
        .get("suites")
        .and_then(JsonValue::as_array)
        .ok_or("missing suites array")?;
    if suites.is_empty() {
        return Err("suites array is empty".into());
    }
    for suite in suites {
        for key in ["median_step_ns", "min_step_ns", "mean_step_ns"] {
            let v = suite
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("suite missing numeric {key}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{key} = {v} is not finite and positive"));
            }
        }
        let spans = suite.get("spans").ok_or("suite missing spans object")?;
        for path in ["nesterov_step", "nesterov_step/density_solve"] {
            let total = spans
                .get(path)
                .and_then(|s| s.get("total_ns"))
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing span {path}"))?;
            if !total.is_finite() || total <= 0.0 {
                return Err(format!("span {path} total_ns = {total} is degenerate"));
            }
        }
    }
    let median = parsed
        .get("transform")
        .ok_or("missing transform object")?
        .get("median_ns")
        .and_then(JsonValue::as_f64)
        .ok_or("transform missing numeric median_ns")?;
    if !median.is_finite() || median <= 0.0 {
        return Err(format!(
            "transform median_ns = {median} is not finite and positive"
        ));
    }
    Ok(())
}

fn default_out_path() -> std::path::PathBuf {
    // crates/bench → repository root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gp.json")
}

fn main() {
    let opts = parse_args();
    let exec = bench_exec();
    let sizes: &[usize] = if opts.smoke {
        &SUITE_SIZES[..1]
    } else {
        SUITE_SIZES
    };

    println!(
        "bench_gp: {} suite(s), {} samples each, threads={}",
        sizes.len(),
        opts.samples,
        exec.threads()
    );
    let suites: Vec<String> = sizes
        .iter()
        .map(|&cells| bench_suite(cells, opts.samples, exec))
        .collect();
    let transform = bench_transform(TRANSFORM_GRID, opts.samples, exec);

    let mut suites_json = String::from("[");
    suites_json.push_str(&suites.join(","));
    suites_json.push(']');
    let doc = Record::new("bench_gp")
        .str_field("suite_family", "ispd05_like")
        .u64_field("threads", exec.threads() as u64)
        .u64_field("warmup_steps", WARMUP_STEPS as u64)
        .bool_field("smoke", opts.smoke)
        .raw_field("suites", &suites_json)
        .raw_field("transform", &transform)
        .into_line();

    if let Err(e) = validate(&doc) {
        eprintln!("bench_gp: self-validation failed: {e}");
        std::process::exit(1);
    }

    let out = opts
        .out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out_path);
    eplace_obs::write_atomic(&out, format!("{doc}\n").as_bytes()).expect("writing BENCH_gp.json");
    println!("bench_gp: validated result written to {}", out.display());
}
