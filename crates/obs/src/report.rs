//! End-of-run reporting: the per-phase time breakdown derived from a span
//! [`Snapshot`] and its text/JSONL renderings.

use crate::journal::Record;
use crate::metrics::Snapshot;
use std::fmt::Write as _;

/// One flow phase's aggregate time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTime {
    /// Phase name (span leaf, e.g. `mgp`).
    pub name: String,
    /// Times the phase span was entered.
    pub calls: u64,
    /// Total wall-clock seconds.
    pub seconds: f64,
}

/// The end-of-run summary: the root span's total plus the breakdown over
/// its direct children (the flow phases), and every counter recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Root span path the breakdown hangs off (normally `flow`).
    pub root: String,
    /// Root span total seconds (0 when no spans were recorded).
    pub total_seconds: f64,
    /// Direct children of the root span, in snapshot (name) order.
    pub phases: Vec<PhaseTime>,
    /// All counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Summary {
    /// Derives the summary from a snapshot. The root is the depth-0 span
    /// with the largest total time, preferring `flow` when present; phases
    /// are the spans exactly one level below it.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let root = snap
            .spans
            .iter()
            .filter(|s| !s.path.contains('/'))
            .max_by_key(|s| (s.path == "flow", s.total_ns))
            .map(|s| s.path.clone())
            .unwrap_or_default();
        let total_seconds = snap.span(&root).map_or(0.0, |s| s.seconds());
        let prefix = format!("{root}/");
        let phases = snap
            .spans
            .iter()
            .filter(|s| {
                s.path
                    .strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|s| PhaseTime {
                name: s.name().to_string(),
                calls: s.calls,
                seconds: s.seconds(),
            })
            .collect();
        Summary {
            root,
            total_seconds,
            phases,
            counters: snap.counters.clone(),
        }
    }

    /// The summary as a journal record (`"type":"summary"`), carrying the
    /// total, the per-phase breakdown as a JSON array, and every counter.
    pub fn to_record(&self) -> Record {
        let mut phases = String::from("[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            let _ = write!(
                phases,
                "{{\"name\":\"{}\",\"calls\":{},\"seconds\":{}}}",
                p.name, p.calls, p.seconds
            );
        }
        phases.push(']');
        let mut record = Record::new("summary")
            .str_field("root", &self.root)
            .f64_field("total_seconds", self.total_seconds)
            .raw_field("phases", &phases);
        for (name, value) in &self.counters {
            record = record.u64_field(name, *value);
        }
        record
    }
}

/// Renders a fixed-width phase table:
///
/// ```text
/// phase        calls     seconds   share
/// mgp              1      12.345   61.7%
/// ...
/// total                   20.000
/// ```
///
/// Shares are relative to `total_seconds`; a `(untracked)` row accounts for
/// root time not covered by any phase, so the column sums to the total.
pub fn render_phase_table(phases: &[PhaseTime], total_seconds: f64) -> String {
    let name_width = phases
        .iter()
        .map(|p| p.name.len())
        .chain(["(untracked)".len()])
        .max()
        .unwrap_or(8)
        .max("phase".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>7}  {:>10}  {:>6}",
        "phase", "calls", "seconds", "share"
    );
    let share = |s: f64| {
        if total_seconds > 0.0 {
            format!("{:.1}%", 100.0 * s / total_seconds)
        } else {
            "-".to_string()
        }
    };
    let mut covered = 0.0;
    for p in phases {
        covered += p.seconds;
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>7}  {:>10.3}  {:>6}",
            p.name,
            p.calls,
            p.seconds,
            share(p.seconds)
        );
    }
    let untracked = total_seconds - covered;
    if !phases.is_empty() && untracked > 1e-9 {
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>7}  {:>10.3}  {:>6}",
            "(untracked)",
            "",
            untracked,
            share(untracked)
        );
    }
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>7}  {:>10.3}",
        "total", "", total_seconds
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::metrics::SpanStat;

    /// Mirrors `Obs::snapshot`: spans arrive sorted by path.
    fn snap_with(spans: &[(&str, u64, u64)]) -> Snapshot {
        let mut spans: Vec<SpanStat> = spans
            .iter()
            .map(|&(path, calls, total_ns)| SpanStat {
                path: path.into(),
                calls,
                total_ns,
            })
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        Snapshot {
            spans,
            counters: vec![("iters_mgp".into(), 42)],
        }
    }

    #[test]
    fn summary_breaks_down_flow_children() {
        let snap = snap_with(&[
            ("flow", 1, 10_000_000_000),
            ("flow/mgp", 1, 6_000_000_000),
            ("flow/mgp/iter", 300, 5_000_000_000), // grandchild: excluded
            ("flow/cgp", 1, 3_000_000_000),
        ]);
        let s = Summary::from_snapshot(&snap);
        assert_eq!(s.root, "flow");
        assert_eq!(s.total_seconds, 10.0);
        let names: Vec<&str> = s.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["cgp", "mgp"]);
        assert_eq!(s.counters, vec![("iters_mgp".to_string(), 42)]);
    }

    #[test]
    fn summary_prefers_flow_root_over_longer_spans() {
        let snap = snap_with(&[
            ("warmup", 1, 99_000_000_000),
            ("flow", 1, 1_000_000_000),
            ("flow/mgp", 1, 500_000_000),
        ]);
        let s = Summary::from_snapshot(&snap);
        assert_eq!(s.root, "flow");
        assert_eq!(s.phases.len(), 1);
    }

    #[test]
    fn summary_falls_back_to_longest_root() {
        let snap = snap_with(&[("mgp", 1, 2_000_000_000), ("cgp", 1, 1_000_000_000)]);
        let s = Summary::from_snapshot(&snap);
        assert_eq!(s.root, "mgp");
        assert_eq!(s.total_seconds, 2.0);
        assert!(s.phases.is_empty());
    }

    #[test]
    fn empty_snapshot_yields_empty_summary() {
        let s = Summary::from_snapshot(&Snapshot::default());
        assert_eq!(s.root, "");
        assert_eq!(s.total_seconds, 0.0);
        assert!(s.phases.is_empty());
    }

    #[test]
    fn summary_record_is_valid_json() {
        let snap = snap_with(&[("flow", 1, 2_000_000_000), ("flow/mgp", 1, 1_500_000_000)]);
        let line = Summary::from_snapshot(&snap).to_record().into_line();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("summary"));
        assert_eq!(v.get("root").unwrap().as_str(), Some("flow"));
        assert_eq!(v.get("total_seconds").unwrap().as_f64(), Some(2.0));
        let phases = v.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("mgp"));
        assert_eq!(phases[0].get("seconds").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("iters_mgp").unwrap().as_u64(), Some(42));
    }

    #[test]
    fn table_includes_untracked_remainder() {
        let phases = vec![
            PhaseTime {
                name: "mgp".into(),
                calls: 1,
                seconds: 6.0,
            },
            PhaseTime {
                name: "cgp".into(),
                calls: 1,
                seconds: 3.0,
            },
        ];
        let table = render_phase_table(&phases, 10.0);
        assert!(table.contains("mgp"));
        assert!(table.contains("60.0%"));
        assert!(table.contains("(untracked)"));
        assert!(table.contains("10.0%"));
        assert!(table.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn table_handles_zero_total() {
        let table = render_phase_table(&[], 0.0);
        assert!(table.contains("total"));
        assert!(!table.contains('%'));
    }
}
