//! Golden-trace regression test: the full placer flow on a fixed small
//! benchmark must reproduce its per-iteration HPWL/overflow trajectory
//! exactly, iteration for iteration and digit for digit.
//!
//! The flow is deterministic by construction — seeded PRNG everywhere, and
//! the serial kernels are the bit-exact historical code paths — so any CSV
//! drift means an (intended or not) numerical behavior change. When a change
//! is intentional, regenerate the snapshot with
//!
//! ```sh
//! EPLACE_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and commit the updated `tests/golden/trace_small.csv` together with a
//! note in the change description explaining why the trajectory moved.
//!
//! The trace ends with cGP, so it cannot see the cDP stage (Abacus, detail
//! placement, global swap). A second snapshot, `tests/golden/cdp_hpwl.txt`,
//! pins the bits of the final legal HPWL of two more small flows; the same
//! `EPLACE_BLESS=1` run regenerates it.

use eplace_repro::benchgen::BenchmarkConfig;
use eplace_repro::core::{trace_to_csv_checked, EplaceConfig, Placer};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_small.csv");
const CDP_GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cdp_hpwl.txt");

/// The fixed scenario behind the snapshot: small enough to run in seconds,
/// large enough to exercise mGP + fillerGP + cGP and the λ/γ schedules.
fn golden_trace_csv() -> String {
    let design = BenchmarkConfig::ispd05_like("golden", 7)
        .scale(150)
        .generate();
    let mut placer = Placer::new(design, EplaceConfig::fast());
    let report = placer.run().unwrap();
    // The checked writer refuses non-finite metrics, so a poisoned run can
    // never be blessed into the snapshot.
    trace_to_csv_checked(&report.trace).expect("golden scenario must stay finite")
}

#[test]
fn placer_trace_matches_golden_snapshot() {
    let actual = golden_trace_csv();
    if std::env::var("EPLACE_BLESS").is_ok() {
        eplace_obs::write_atomic(GOLDEN_PATH, actual.as_bytes()).expect("writing golden trace");
        eprintln!("golden trace regenerated at {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden trace missing — run with EPLACE_BLESS=1 to create it");
    if actual == golden {
        return;
    }
    // Report the first diverging line so a regression is diagnosable
    // without diffing the files by hand.
    let mut a_lines = actual.lines();
    let mut g_lines = golden.lines();
    let mut line_no = 1usize;
    loop {
        match (a_lines.next(), g_lines.next()) {
            (Some(a), Some(g)) if a == g => line_no += 1,
            (a, g) => panic!(
                "trace diverged from golden snapshot at line {line_no}:\n  \
                 golden: {}\n  actual: {}\n\
                 (if the numerical change is intentional, regenerate with \
                 EPLACE_BLESS=1 cargo test --test golden_trace)",
                g.unwrap_or("<end of file>"),
                a.unwrap_or("<end of file>"),
            ),
        }
    }
}

/// The snapshot itself is only trustworthy if the scenario is reproducible
/// within one binary run — guard that independently of the checked-in file.
#[test]
fn golden_scenario_is_deterministic_in_process() {
    assert_eq!(golden_trace_csv(), golden_trace_csv());
}

/// The cDP scenarios: a one-footprint PEKO design, where global swap moves
/// most, and a mixed-size design that also runs mLG. Each line of the
/// snapshot is `<name> <final HPWL bits in hex> <final HPWL>`.
fn cdp_hpwl_lines() -> String {
    let (peko, _) = BenchmarkConfig::peko_like("golden_peko", 11)
        .scale(300)
        .generate_known_optimum();
    let mms = BenchmarkConfig::mms_like("golden_mms", 13, 1.0, 3)
        .scale(200)
        .generate();
    let cfg = EplaceConfig {
        detail_passes: 2,
        ..EplaceConfig::fast()
    };
    let mut out = String::new();
    for (name, design) in [("peko_like", peko), ("mms_like", mms)] {
        let report = Placer::new(design, cfg.clone()).run().unwrap();
        assert!(
            report.legalization.is_some(),
            "{name}: cDP scenario must legalize ({:?})",
            report.legalization_error
        );
        let hpwl = report.final_hpwl;
        out.push_str(&format!("{name} {:016x} {hpwl}\n", hpwl.to_bits()));
    }
    out
}

#[test]
fn placer_cdp_hpwl_matches_golden_bits() {
    let actual = cdp_hpwl_lines();
    if std::env::var("EPLACE_BLESS").is_ok() {
        eplace_obs::write_atomic(CDP_GOLDEN_PATH, actual.as_bytes()).expect("writing cDP golden");
        eprintln!("cDP golden regenerated at {CDP_GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(CDP_GOLDEN_PATH)
        .expect("cDP golden missing — run with EPLACE_BLESS=1 to create it");
    assert_eq!(
        actual, golden,
        "final legal HPWL drifted from the cDP golden (if the numerical \
         change is intentional, regenerate with \
         EPLACE_BLESS=1 cargo test --test golden_trace)"
    );
}
