//! Committed-baseline comparison — the perf-regression gate.
//!
//! The experiment binaries emit machine-readable JSON (`--json-out`); the
//! repo commits those files as `BENCH_*.json` baselines and CI re-runs the
//! binaries with `--baseline <path>`, failing the job when a metric drifts
//! past tolerance. Simulated costs are pure f64 arithmetic and reproduce
//! exactly across machines, so the sim gates run tight (default 0.5%);
//! wall-clock gates use wide tolerances and speedup floors instead.
//!
//! Documents are [`mgpu_core::Json`] values on both sides: the binary
//! compares the rows it built with the baseline the one reader parsed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use mgpu_core::Json;

use crate::args::BenchArgs;

/// A row-key fragment: strings bare, numbers as JSON prints them (so `4` and
/// `4.0` key identically).
fn key_fragment(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Arr(_) | Json::Obj(_) => "?".into(),
        scalar => scalar.to_string(),
    }
}

/// One metric that moved past tolerance between a baseline row and the
/// matching current row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The row key (joined key fields).
    pub row: String,
    /// The metric field name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Signed relative change, `(current - baseline) / |baseline|`.
    pub rel: f64,
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} {} -> {} ({:+.2}%)",
            self.row,
            self.metric,
            self.baseline,
            self.current,
            100.0 * self.rel
        )
    }
}

fn keyed_rows<'a>(
    doc: &'a Json,
    key_fields: &[&str],
) -> Result<BTreeMap<String, &'a Json>, String> {
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or_else(|| "document has no \"rows\" array".to_string())?;
    let mut out = BTreeMap::new();
    for row in rows {
        let mut key = String::new();
        for (i, f) in key_fields.iter().enumerate() {
            if i > 0 {
                key.push('/');
            }
            let frag = row
                .get(f)
                .map(key_fragment)
                .ok_or_else(|| format!("row is missing key field \"{f}\""))?;
            key.push_str(&frag);
        }
        if out.insert(key.clone(), row).is_some() {
            return Err(format!("duplicate row key \"{key}\""));
        }
    }
    Ok(out)
}

/// Compare every `metrics` field of every row against the baseline,
/// matching rows on `key_fields`. Returns the deltas whose relative change
/// exceeds `tolerance` in **either** direction — the sim-cost gate, where
/// any unexplained drift (even an "improvement") means behavior changed and
/// the committed baseline must be refreshed deliberately. A row present in
/// one document but not the other is an error: the configuration matrix
/// itself changed.
pub fn compare_rows(
    current: &Json,
    baseline: &Json,
    key_fields: &[&str],
    metrics: &[&str],
    tolerance: f64,
) -> Result<Vec<Delta>, String> {
    let cur = keyed_rows(current, key_fields)?;
    let base = keyed_rows(baseline, key_fields)?;
    for key in base.keys() {
        if !cur.contains_key(key) {
            return Err(format!("baseline row \"{key}\" missing from current run"));
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            return Err(format!("current row \"{key}\" missing from baseline (refresh it?)"));
        }
    }
    let mut deltas = Vec::new();
    for (key, brow) in &base {
        let crow = cur[key];
        for m in metrics {
            let b = brow
                .get(m)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline row \"{key}\" has no numeric \"{m}\""))?;
            let c = crow
                .get(m)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("current row \"{key}\" has no numeric \"{m}\""))?;
            let rel = (c - b) / b.abs().max(1e-12);
            if rel.abs() > tolerance {
                deltas.push(Delta {
                    row: key.clone(),
                    metric: m.to_string(),
                    baseline: b,
                    current: c,
                    rel,
                });
            }
        }
    }
    Ok(deltas)
}

/// The wall-clock gate: a single `metric` (a speedup ratio) per row must
/// not fall below `baseline * (1 - tolerance)` nor below `floor`. Only
/// drops fail — wall-clock getting *faster* is never a regression.
pub fn compare_speedups(
    current: &Json,
    baseline: &Json,
    key_fields: &[&str],
    metric: &str,
    tolerance: f64,
    floor: f64,
) -> Result<Vec<Delta>, String> {
    let cur = keyed_rows(current, key_fields)?;
    let base = keyed_rows(baseline, key_fields)?;
    for key in base.keys() {
        if !cur.contains_key(key) {
            return Err(format!("baseline row \"{key}\" missing from current run"));
        }
    }
    let mut deltas = Vec::new();
    for (key, brow) in &base {
        let b = brow
            .get(metric)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("baseline row \"{key}\" has no numeric \"{metric}\""))?;
        let c = cur[key]
            .get(metric)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("current row \"{key}\" has no numeric \"{metric}\""))?;
        if c < b * (1.0 - tolerance) || c < floor {
            deltas.push(Delta {
                row: key.clone(),
                metric: metric.to_string(),
                baseline: b,
                current: c,
                rel: (c - b) / b.abs().max(1e-12),
            });
        }
    }
    Ok(deltas)
}

/// Run a comparison and report: prints a pass line or every offending
/// delta, and returns the process exit code (pass, or 1).
pub fn gate_report(label: &str, result: Result<Vec<Delta>, String>) -> ExitCode {
    match result {
        Err(e) => {
            eprintln!("{label}: baseline comparison failed: {e}");
            ExitCode::FAILURE
        }
        Ok(deltas) if deltas.is_empty() => {
            println!("{label}: within tolerance of committed baseline");
            ExitCode::SUCCESS
        }
        Ok(deltas) => {
            let mut msg =
                format!("{label}: {} metric(s) regressed past tolerance:\n", deltas.len());
            for d in &deltas {
                let _ = writeln!(msg, "  {d}");
            }
            eprint!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// The tail every gate binary ends with: write `doc` to `--json-out`, then
/// under `--baseline` read the committed document, hand both to `compare`
/// with the tolerance in force, and report.
pub fn finish_gate(
    label: &str,
    args: &BenchArgs,
    doc: &Json,
    default_tolerance: f64,
    compare: impl FnOnce(&Json, &Json, f64) -> Result<Vec<Delta>, String>,
) -> ExitCode {
    if let Some(path) = &args.json_out {
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("{label}: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\nwrote {path}");
    }
    let Some(path) = &args.baseline else { return ExitCode::SUCCESS };
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")));
    let tolerance = args.tolerance.unwrap_or(default_tolerance);
    gate_report(label, baseline.and_then(|base| compare(doc, &base, tolerance)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"gpus":6,"rows":[
        {"dataset":"rmat","primitive":"BFS","config":"default","sim_ms":10.5,"h_bytes":1000},
        {"dataset":"rmat","primitive":"BFS","config":"reduced","sim_ms":8.25,"h_bytes":400}
    ]}"#;

    #[test]
    fn identical_documents_pass() {
        let a = Json::parse(DOC).unwrap();
        let b = Json::parse(DOC).unwrap();
        let deltas = compare_rows(
            &a,
            &b,
            &["dataset", "primitive", "config"],
            &["sim_ms", "h_bytes"],
            0.005,
        )
        .unwrap();
        assert!(deltas.is_empty());
    }

    #[test]
    fn drift_past_tolerance_is_flagged_in_both_directions() {
        let base = Json::parse(DOC).unwrap();
        let cur =
            Json::parse(&DOC.replace("10.5", "11.5").replace("\"h_bytes\":400", "\"h_bytes\":300"))
                .unwrap();
        let mut deltas = compare_rows(
            &cur,
            &base,
            &["dataset", "primitive", "config"],
            &["sim_ms", "h_bytes"],
            0.005,
        )
        .unwrap();
        deltas.sort_by(|x, y| x.row.cmp(&y.row).then(x.metric.cmp(&y.metric)));
        assert_eq!(deltas.len(), 2);
        // sim_ms grew in the "default" row, h_bytes shrank in "reduced".
        assert_eq!(deltas[0].metric, "sim_ms");
        assert!(deltas[0].rel > 0.09);
        assert_eq!(deltas[1].metric, "h_bytes");
        assert!(deltas[1].rel < 0.0, "shrinking is still drift for the sim gate");
    }

    #[test]
    fn tiny_drift_within_tolerance_passes() {
        let base = Json::parse(DOC).unwrap();
        let cur = Json::parse(&DOC.replace("10.5", "10.51")).unwrap();
        let deltas =
            compare_rows(&cur, &base, &["dataset", "primitive", "config"], &["sim_ms"], 0.005)
                .unwrap();
        assert!(deltas.is_empty());
    }

    #[test]
    fn row_set_changes_are_errors_not_silently_ignored() {
        let base = Json::parse(DOC).unwrap();
        let cur = Json::parse(
            r#"{"rows":[{"dataset":"rmat","primitive":"BFS","config":"default","sim_ms":10.5}]}"#,
        )
        .unwrap();
        let err = compare_rows(&cur, &base, &["dataset", "primitive", "config"], &["sim_ms"], 0.1)
            .unwrap_err();
        assert!(err.contains("missing from current run"), "{err}");
    }

    #[test]
    fn speedup_gate_only_fails_on_drops_or_floor() {
        let base = Json::parse(r#"{"rows":[{"bench":"advance","speedup":2.0}]}"#).unwrap();
        let same = Json::parse(r#"{"rows":[{"bench":"advance","speedup":1.9}]}"#).unwrap();
        assert!(compare_speedups(&same, &base, &["bench"], "speedup", 0.25, 1.0)
            .unwrap()
            .is_empty());
        let faster = Json::parse(r#"{"rows":[{"bench":"advance","speedup":3.5}]}"#).unwrap();
        assert!(compare_speedups(&faster, &base, &["bench"], "speedup", 0.25, 1.0)
            .unwrap()
            .is_empty());
        let slower = Json::parse(r#"{"rows":[{"bench":"advance","speedup":1.2}]}"#).unwrap();
        assert_eq!(
            compare_speedups(&slower, &base, &["bench"], "speedup", 0.25, 1.0).unwrap().len(),
            1
        );
        let below_floor = Json::parse(r#"{"rows":[{"bench":"advance","speedup":0.9}]}"#).unwrap();
        assert_eq!(
            compare_speedups(&below_floor, &base, &["bench"], "speedup", 0.9, 1.0).unwrap().len(),
            1,
            "a slowdown below 1.0 fails even inside the relative tolerance"
        );
    }

    #[test]
    fn mixed_key_types_join_into_stable_keys() {
        let doc = Json::parse(
            r#"{"rows":[{"primitive":"BFS","gpus":4,"topology":"direct","sim_ms":1.0}]}"#,
        )
        .unwrap();
        let rows = keyed_rows(&doc, &["primitive", "gpus", "topology"]).unwrap();
        assert!(rows.contains_key("BFS/4/direct"));
    }
}
