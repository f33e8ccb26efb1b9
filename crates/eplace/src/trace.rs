use std::fmt;

/// Flow stage names (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Mixed-size initial placement (quadratic wirelength minimization).
    Mip,
    /// Mixed-size global placement.
    Mgp,
    /// Macro legalization.
    Mlg,
    /// Filler-only placement preceding cGP (§VI-B).
    FillerOnly,
    /// Standard-cell global placement.
    Cgp,
    /// Congestion-driven refinement round (routability mode): bounded
    /// global placement after cell inflation.
    RouteRefine,
    /// Legalization + detail placement.
    Cdp,
}

impl Stage {
    /// Every stage, in flow order.
    pub const FLOW: [Stage; 7] = [
        Stage::Mip,
        Stage::Mgp,
        Stage::Mlg,
        Stage::FillerOnly,
        Stage::Cgp,
        Stage::RouteRefine,
        Stage::Cdp,
    ];

    /// Lowercase identifier used for span paths, journal records, and
    /// per-stage counter names (`iters_mgp`, …).
    pub fn key(self) -> &'static str {
        match self {
            Stage::Mip => "mip",
            Stage::Mgp => "mgp",
            Stage::Mlg => "mlg",
            Stage::FillerOnly => "fillergp",
            Stage::Cgp => "cgp",
            Stage::RouteRefine => "routegp",
            Stage::Cdp => "cdp",
        }
    }

    /// Name of the span directly below `flow` that books this stage's time:
    /// [`Stage::key`], except that refinement rounds run inside the
    /// `routability` phase.
    pub fn phase(self) -> &'static str {
        match self {
            Stage::RouteRefine => "routability",
            stage => stage.key(),
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Mip => "mIP",
            Stage::Mgp => "mGP",
            Stage::Mlg => "mLG",
            Stage::FillerOnly => "fillerGP",
            Stage::Cgp => "cGP",
            Stage::RouteRefine => "routeGP",
            Stage::Cdp => "cDP",
        };
        f.write_str(s)
    }
}

/// One optimizer iteration's metrics — the data behind the paper's Figure 2
/// (HPWL and overlap vs iteration) and Figure 3 (snapshots with W and O).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Which stage produced this record.
    pub stage: Stage,
    /// Iteration index within the stage.
    pub iteration: usize,
    /// Exact HPWL `W(v)` at the output solution `u`.
    pub hpwl: f64,
    /// Density overflow τ.
    pub overflow: f64,
    /// Bin-based object overlap area `O` (area that physically cannot fit
    /// in its bins).
    pub overlap: f64,
    /// Penalty factor λ.
    pub lambda: f64,
    /// Wirelength smoothing parameter γ.
    pub gamma: f64,
    /// Accepted steplength α.
    pub alpha: f64,
    /// Backtracks taken this iteration (paper avg: 1.037 over MMS).
    pub backtracks: usize,
}

/// One stage's time as the span tree booked it: the stage's phase span
/// below `flow` ([`Stage::phase`]). `PlacementReport::stage_timings` lists
/// these for `flowbench`, which reads that field; everything else reads
/// `PlacementReport::phase_times`.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage.
    pub stage: Stage,
    /// Seconds spent.
    pub seconds: f64,
}

/// First and last record of a trace.
///
/// The trace endpoints drive every before/after comparison (Figure 2's
/// trend checks, the flow reports); an empty trace — a stage that never
/// ran, or a caller that filtered everything out — used to be a panic site.
///
/// # Errors
///
/// [`eplace_errors::EplaceError::EmptyTrace`] when `records` is empty.
pub fn trace_endpoints(
    records: &[IterationRecord],
) -> Result<(&IterationRecord, &IterationRecord), eplace_errors::EplaceError> {
    match (records.first(), records.last()) {
        (Some(first), Some(last)) => Ok((first, last)),
        _ => Err(eplace_errors::EplaceError::EmptyTrace {
            stage: "global placement".into(),
        }),
    }
}

/// Checks every record for non-finite metrics before a trace is persisted.
///
/// # Errors
///
/// [`eplace_errors::EplaceError::Validation`] naming the first offending
/// record and field.
pub fn validate_trace(records: &[IterationRecord]) -> Result<(), eplace_errors::EplaceError> {
    use eplace_errors::{Severity, ValidationIssue};
    for (i, r) in records.iter().enumerate() {
        let fields = [
            ("hpwl", r.hpwl),
            ("overflow", r.overflow),
            ("overlap", r.overlap),
            ("lambda", r.lambda),
            ("gamma", r.gamma),
            ("alpha", r.alpha),
        ];
        if let Some((name, value)) = fields.iter().find(|(_, v)| !v.is_finite()) {
            return Err(eplace_errors::EplaceError::Validation {
                issues: vec![ValidationIssue {
                    severity: Severity::Error,
                    subject: format!("trace record {i} ({} iteration {})", r.stage, r.iteration),
                    message: format!("non-finite {name}: {value}"),
                    repaired: false,
                }],
            });
        }
    }
    Ok(())
}

/// [`trace_to_csv`] preceded by [`validate_trace`] — the writer behind the
/// golden-trace bless workflow, so a poisoned trajectory can never become
/// the reference snapshot.
///
/// # Errors
///
/// As [`validate_trace`].
pub fn trace_to_csv_checked(
    records: &[IterationRecord],
) -> Result<String, eplace_errors::EplaceError> {
    validate_trace(records)?;
    Ok(trace_to_csv(records))
}

/// Renders iteration records as CSV (`stage,iteration,hpwl,overflow,...`) —
/// used by the `repro_fig2` binary to emit the Figure 2 series.
pub fn trace_to_csv(records: &[IterationRecord]) -> String {
    let mut out =
        String::from("stage,iteration,hpwl,overflow,overlap,lambda,gamma,alpha,backtracks\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6e},{:.6},{:.6e},{}\n",
            r.stage,
            r.iteration,
            r.hpwl,
            r.overflow,
            r.overlap,
            r.lambda,
            r.gamma,
            r.alpha,
            r.backtracks
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_display() {
        assert_eq!(Stage::Mgp.to_string(), "mGP");
        assert_eq!(Stage::Cdp.to_string(), "cDP");
        assert_eq!(Stage::FillerOnly.to_string(), "fillerGP");
        assert_eq!(Stage::RouteRefine.to_string(), "routeGP");
        assert_eq!(Stage::RouteRefine.key(), "routegp");
        assert_eq!(Stage::RouteRefine.phase(), "routability");
        assert_eq!(Stage::Cgp.phase(), "cgp");
    }

    #[test]
    fn trace_endpoints_structured_error_on_empty() {
        let err = trace_endpoints(&[]).unwrap_err();
        assert!(matches!(err, eplace_errors::EplaceError::EmptyTrace { .. }));
        let rec = IterationRecord {
            stage: Stage::Mgp,
            iteration: 0,
            hpwl: 1.0,
            overflow: 0.9,
            overlap: 2.0,
            lambda: 1e-4,
            gamma: 2.0,
            alpha: 0.1,
            backtracks: 0,
        };
        let recs = vec![rec.clone(), rec];
        let (first, last) = trace_endpoints(&recs).unwrap();
        assert_eq!(first, &recs[0]);
        assert_eq!(last, &recs[1]);
    }

    #[test]
    fn csv_roundtrip_header_and_rows() {
        let recs = vec![IterationRecord {
            stage: Stage::Mgp,
            iteration: 3,
            hpwl: 123.0,
            overflow: 0.5,
            overlap: 10.0,
            lambda: 1e-4,
            gamma: 2.0,
            alpha: 0.1,
            backtracks: 1,
        }];
        let csv = trace_to_csv(&recs);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("stage,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("mGP,3,"));
        assert!(row.ends_with(",1"));
    }
}
