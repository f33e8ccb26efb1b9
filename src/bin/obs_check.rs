//! `obs_check` — validates an ePlace run journal or job ledger (JSONL).
//!
//! Journal mode (default) checks that every line parses as JSON, that
//! `iter` records carry the full finite metric set (including the
//! `rudy_peak`/`rudy_mean` congestion of the in-flight placement), that
//! `recovery` records name a stage and reason, that `route` records of a
//! `--routability` run carry a finite scorecard, and that the journal ends
//! with exactly one `summary` record whose phase seconds are consistent
//! with its total. CI runs this over the journal produced by a `--journal`
//! run.
//!
//! `--ledger` mode validates an `eplace-serve` job ledger instead: globally
//! strictly-increasing sequence numbers, every per-job event stream obeying
//! the daemon's state machine (first event `queued`, nothing after a
//! terminal `done`/`cancelled`/`quarantined`, `retry` only after `failed`,
//! …), and required fields per event (`checkpointed` carries an iteration,
//! `done` a finite HPWL). A torn final line — the one thing a SIGKILL can
//! leave behind — is tolerated, exactly as the daemon's own replay does.
//!
//! ```sh
//! eplace-repro --fast --demo 300 --journal run.jsonl
//! obs_check run.jsonl [--expect-iters N]
//! obs_check --ledger spool/ledger.jsonl
//! ```

use eplace_repro::obs::json::{parse_json, JsonValue};
use std::process::ExitCode;

#[derive(Debug)]
struct Stats {
    iters: u64,
    recoveries: u64,
    total_seconds: f64,
    phases: usize,
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut expect_iters: Option<u64> = None;
    let mut ledger = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--expect-iters" => {
                let v = match it.next() {
                    Some(v) => v,
                    None => return usage("--expect-iters needs a value"),
                };
                expect_iters = match v.parse() {
                    Ok(n) => Some(n),
                    Err(e) => return usage(&format!("bad --expect-iters: {e}")),
                };
            }
            "--ledger" => ledger = true,
            "--help" | "-h" => {
                println!(
                    "usage: obs_check <journal.jsonl> [--expect-iters N] | --ledger <ledger.jsonl>"
                );
                return ExitCode::SUCCESS;
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(flag),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(path) = path else {
        return usage("missing journal path");
    };
    if ledger {
        return match check_ledger(&path) {
            Ok(msg) => {
                println!("{path}: OK — {msg}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs_check: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let checked = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| check(&text, expect_iters));
    match checked {
        Ok(stats) => {
            println!(
                "{path}: OK — {} iter records, {} recoveries, {} phases, {:.3}s total",
                stats.iters, stats.recoveries, stats.phases, stats.total_seconds
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs_check: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "obs_check: {msg}\nusage: obs_check <journal.jsonl> [--expect-iters N] | --ledger <ledger.jsonl>"
    );
    ExitCode::FAILURE
}

/// Allowed successor events for each job state (the daemon's state
/// machine; see DESIGN.md §13). Terminal states allow nothing.
fn ledger_successors(state: &str) -> &'static [&'static str] {
    match state {
        "" => &["queued"],
        "queued" => &["started", "cancelled", "quarantined"],
        "started" | "checkpointed" => &[
            "checkpointed",
            "done",
            "failed",
            "cancelled",
            "quarantined",
            "resumed",
        ],
        "resumed" => &["started", "resumed", "cancelled", "quarantined"],
        "failed" => &["retry", "quarantined"],
        "retry" => &["started", "cancelled", "quarantined"],
        _ => &[], // done | cancelled | quarantined: terminal
    }
}

fn check_ledger(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut states: std::collections::BTreeMap<String, String> = std::collections::BTreeMap::new();
    let mut last_seq = 0u64;
    let mut records = 0u64;
    let mut torn = false;
    for (idx, line) in lines.iter().enumerate() {
        let no = idx + 1;
        let value = match parse_json(line) {
            Ok(v) => v,
            // A SIGKILL can tear at most the final line; the daemon had not
            // acted on it yet, so it is dropped, not an error.
            Err(_) if no == lines.len() => {
                torn = true;
                break;
            }
            Err(e) => return Err(format!("line {no}: {e}")),
        };
        if str_field(&value, "type", no)? != "job" {
            return Err(format!("line {no}: record type is not `job`"));
        }
        let seq = u64_field(&value, "seq", no)?;
        if seq <= last_seq {
            return Err(format!(
                "line {no}: seq {seq} does not increase past {last_seq}"
            ));
        }
        last_seq = seq;
        let job = str_field(&value, "job", no)?.to_string();
        let event = str_field(&value, "event", no)?;
        let state = states.entry(job.clone()).or_default();
        if !ledger_successors(state).contains(&event) {
            return Err(format!(
                "line {no}: job `{job}` cannot go `{}` -> `{event}`",
                if state.is_empty() { "<new>" } else { state }
            ));
        }
        match event {
            "started" | "failed" | "retry" => {
                let attempt = u64_field(&value, "attempt", no)?;
                if attempt == 0 {
                    return Err(format!("line {no}: attempt must be >= 1"));
                }
            }
            "checkpointed" | "resumed" => {
                u64_field(&value, "iter", no)?;
            }
            "done" => {
                finite_field(&value, "hpwl", no)?;
            }
            _ => {}
        }
        if event == "retry" {
            u64_field(&value, "backoff_ms", no)?;
        }
        if matches!(event, "failed" | "quarantined") {
            str_field(&value, "reason", no)?;
        }
        *state = event.to_string();
        records += 1;
    }
    let mut done = 0usize;
    let mut terminal = 0usize;
    for state in states.values() {
        if state == "done" {
            done += 1;
        }
        if matches!(state.as_str(), "done" | "cancelled" | "quarantined") {
            terminal += 1;
        }
    }
    Ok(format!(
        "{records} records, {} jobs ({done} done, {terminal} terminal, {} in flight){}",
        states.len(),
        states.len() - terminal,
        if torn {
            ", torn final line dropped"
        } else {
            ""
        }
    ))
}

/// Validates the journal `text` (one JSON record per line).
fn check(text: &str, expect_iters: Option<u64>) -> Result<Stats, String> {
    let mut stats = Stats {
        iters: 0,
        recoveries: 0,
        total_seconds: 0.0,
        phases: 0,
    };
    let mut summaries = 0u64;
    let mut last_kind = String::new();
    for (idx, line) in text.lines().enumerate() {
        let no = idx + 1;
        let value = parse_json(line).map_err(|e| format!("line {no}: {e}"))?;
        let kind = str_field(&value, "type", no)?;
        match kind {
            "iter" => {
                str_field(&value, "stage", no)?;
                u64_field(&value, "iter", no)?;
                u64_field(&value, "backtracks", no)?;
                for key in [
                    "hpwl",
                    "overflow",
                    "alpha",
                    "lambda",
                    "gamma",
                    "rudy_peak",
                    "rudy_mean",
                ] {
                    finite_field(&value, key, no)?;
                }
                stats.iters += 1;
            }
            "route" => {
                u64_field(&value, "round", no)?;
                for key in ["routed_wl", "total_overflow", "peak_congestion"] {
                    finite_field(&value, key, no)?;
                }
            }
            "recovery" => {
                str_field(&value, "stage", no)?;
                str_field(&value, "reason", no)?;
                u64_field(&value, "iter", no)?;
                stats.recoveries += 1;
            }
            "summary" => {
                summaries += 1;
                stats.total_seconds = finite_field(&value, "total_seconds", no)?;
                let phases = value
                    .get("phases")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("line {no}: summary lacks a `phases` array"))?;
                stats.phases = phases.len();
                let mut covered = 0.0;
                for phase in phases {
                    str_field(phase, "name", no)?;
                    covered += finite_field(phase, "seconds", no)?;
                }
                // Children never out-time their enclosing root span (small
                // tolerance for clock granularity).
                if covered > stats.total_seconds * 1.001 + 1e-6 {
                    return Err(format!(
                        "line {no}: phase seconds {covered} exceed total {}",
                        stats.total_seconds
                    ));
                }
            }
            other => return Err(format!("line {no}: unknown record type `{other}`")),
        }
        last_kind = kind.to_string();
    }
    if summaries != 1 {
        return Err(format!(
            "expected exactly 1 summary record, found {summaries}"
        ));
    }
    if last_kind != "summary" {
        return Err(format!(
            "journal must end with the summary, ends with `{last_kind}`"
        ));
    }
    if let Some(expected) = expect_iters {
        if stats.iters != expected {
            return Err(format!(
                "expected {expected} iter records, found {}",
                stats.iters
            ));
        }
    }
    Ok(stats)
}

fn str_field<'a>(value: &'a JsonValue, key: &str, no: usize) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("line {no}: missing string field `{key}`"))
}

fn u64_field(value: &JsonValue, key: &str, no: usize) -> Result<u64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {no}: missing integer field `{key}`"))
}

fn finite_field(value: &JsonValue, key: &str, no: usize) -> Result<f64, String> {
    value
        .get(key)
        .and_then(JsonValue::as_f64)
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("line {no}: missing finite number field `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::check;

    const SUMMARY: &str = r#"{"type":"summary","root":"flow","total_seconds":1.0,"phases":[{"name":"mip","calls":1,"seconds":0.25},{"name":"mgp","calls":1,"seconds":0.5}]}"#;

    fn iter_line(i: u64, hpwl: &str) -> String {
        format!(
            r#"{{"type":"iter","stage":"mgp","iter":{i},"hpwl":{hpwl},"overflow":0.5,"alpha":2.0,"lambda":0.1,"gamma":30.0,"rudy_peak":1.5,"rudy_mean":0.25,"backtracks":1}}"#
        )
    }

    fn journal(lines: &[String]) -> String {
        lines.join("\n")
    }

    #[test]
    fn valid_journal_passes() {
        let text = journal(&[iter_line(0, "100.0"), iter_line(1, "90.0"), SUMMARY.into()]);
        let stats = check(&text, Some(2)).unwrap();
        assert_eq!((stats.iters, stats.recoveries, stats.phases), (2, 0, 2));
        assert_eq!(stats.total_seconds, 1.0);
        assert!(check(&text, None).is_ok());
    }

    #[test]
    fn iter_line_missing_gamma_fails() {
        let line = iter_line(0, "100.0").replace(r#""gamma":30.0,"#, "");
        let err = check(&journal(&[line, SUMMARY.into()]), None).unwrap_err();
        assert!(err.contains("line 1") && err.contains("`gamma`"), "{err}");
    }

    #[test]
    fn iter_line_missing_rudy_fails() {
        for key in ["rudy_peak", "rudy_mean"] {
            let line = iter_line(0, "100.0").replace(&format!(r#""{key}":"#), r#""other":"#);
            let err = check(&journal(&[line, SUMMARY.into()]), None).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{err}");
        }
    }

    #[test]
    fn route_records_need_a_finite_scorecard() {
        let route = r#"{"type":"route","round":0,"segments":9,"rerouted":2,"overflowed_bins":1,"routed_wl":500.0,"total_overflow":3.5,"peak_congestion":1.25}"#;
        let text = journal(&[iter_line(0, "100.0"), route.into(), SUMMARY.into()]);
        assert_eq!(check(&text, Some(1)).unwrap().iters, 1);
        let bad = route.replace("3.5", "null");
        let err = check(&journal(&[bad, SUMMARY.into()]), None).unwrap_err();
        assert!(err.contains("`total_overflow`"), "{err}");
    }

    #[test]
    fn non_finite_hpwl_fails() {
        // The journal writer emits `null` for a non-finite float.
        let text = journal(&[iter_line(0, "null"), SUMMARY.into()]);
        let err = check(&text, None).unwrap_err();
        assert!(err.contains("line 1") && err.contains("`hpwl`"), "{err}");
    }

    #[test]
    fn summary_must_appear_exactly_once() {
        let none = journal(&[iter_line(0, "100.0")]);
        let err = check(&none, None).unwrap_err();
        assert!(err.contains("found 0"), "{err}");
        let two = journal(&[iter_line(0, "100.0"), SUMMARY.into(), SUMMARY.into()]);
        let err = check(&two, None).unwrap_err();
        assert!(err.contains("found 2"), "{err}");
    }

    #[test]
    fn phase_seconds_above_total_fail() {
        let summary = SUMMARY.replace(r#""seconds":0.5"#, r#""seconds":0.9"#);
        let err = check(&journal(&[iter_line(0, "100.0"), summary]), None).unwrap_err();
        assert!(err.contains("exceed total"), "{err}");
    }

    #[test]
    fn expect_iters_mismatch_fails() {
        let text = journal(&[iter_line(0, "100.0"), iter_line(1, "90.0"), SUMMARY.into()]);
        let err = check(&text, Some(3)).unwrap_err();
        assert!(err.contains("expected 3 iter records, found 2"), "{err}");
    }
}
