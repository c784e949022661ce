//! `--compare A B`: do two result files (written by `--all --out`) agree
//! within the benchmark's own bounds?
//!
//! One row per end-to-end metric and workload: both medians, the ratio B / A,
//! the bound, and a verdict. `worse`: B's median is worse than A's by more
//! than the bound. `unresolved`: the spread within either file is wider than
//! the bound, so the medians cannot settle it — unless every run of B reads
//! better than every run of A. Otherwise `ok`. A workload whose runs in B
//! failed more calls than in A is `worse` whatever its times say.

use std::collections::BTreeMap;
use std::path::Path;

use crate::harness::{MetricDef, END_TO_END};
use crate::json::{self, Json};
use crate::stats::{median, percentile, ratio};
use crate::workloads::WORKLOADS;

/// The untraced runs of one result file: per workload, each metric's values
/// and the failed calls summed over its runs.
#[derive(Default)]
pub struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, f64>,
}

impl ResultSet {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut set = ResultSet::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let record = json::parse(line)?;
            if record.get("trace") != Some(&Json::Bool(false)) {
                continue;
            }
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("a record has no workload")?;
            let result = record.get("result").ok_or("a record has no result")?;
            let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            *set.failed.entry(workload.to_string()).or_default() += failed;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or("a result has no metrics")?;
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    set.values
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
        }
        Ok(set)
    }

    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.values
            .get(&(workload.to_string(), metric.to_string()))
            .map_or(&[], Vec::as_slice)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Spread of one side as a share of its median: the distance between the
/// quartiles, or between the extremes when there are fewer than four runs.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = if values.len() >= 4 {
        (percentile(values, 0.25), percentile(values, 0.75))
    } else {
        (percentile(values, 0.0), percentile(values, 1.0))
    };
    ratio(hi - lo, median(values))
}

pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let better = |x: f64, y: f64| {
        if def.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let all_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if all_better {
        return Verdict::Ok;
    }
    if spread(a).max(spread(b)) > def.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if def.higher_is_better {
        ratio(ma - mb, ma)
    } else {
        ratio(mb - ma, ma)
    };
    if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |path: &Path| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ResultSet::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>10} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B / A", "bound"
    );
    let mut any_worse = false;
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (a.values(workload, def.name), b.values(workload, def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(def, va, vb);
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>10.4} {:>6.0}%  {}",
                workload,
                def.name,
                median(va),
                median(vb),
                ratio(median(vb), median(va)),
                def.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |set: &ResultSet| set.failed.get(workload).copied().unwrap_or(0.0);
        let worse = failed(&b) > failed(&a);
        any_worse |= worse;
        println!(
            "{:<16} {:<16} {:>14} {:>14} {:>10} {:>7}  {}",
            workload,
            "failed calls",
            failed(&a),
            failed(&b),
            "",
            "any",
            if worse { "worse" } else { "ok" }
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "pass_s.p50",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "mnnz_per_s",
        unit: "Mnnz/s",
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_bound_and_spread() {
        assert_eq!(
            judge(&LOWER, &[1.0, 1.01, 0.99], &[1.05, 1.04, 1.06]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&LOWER, &[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19]),
            Verdict::Worse
        );
        // A spread wider than the bound settles nothing...
        assert_eq!(
            judge(&LOWER, &[1.0, 1.3, 0.9], &[1.2, 1.0, 1.1]),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&LOWER, &[1.0, 1.3, 0.9], &[0.5, 0.8, 0.6]),
            Verdict::Ok
        );
        assert_eq!(judge(&HIGHER, &[10.0], &[8.0]), Verdict::Worse);
        assert_eq!(judge(&HIGHER, &[10.0], &[9.5]), Verdict::Ok);
    }

    #[test]
    fn result_files_group_untraced_runs_by_workload_and_metric() {
        let line = |trace: bool, value: f64, failed: u64| {
            format!(
                "{{\"workload\": \"convert_large\", \"seed\": 1, \"trace\": {trace}, \
                 \"result\": {{\"correct\": true, \"attempted\": 9, \"failed\": {failed}, \
                 \"metrics\": {{\"pass_s.p50\": {{\"value\": {value}, \"unit\": \"s\"}}}}}}}}\n"
            )
        };
        let text = line(false, 0.5, 0) + &line(true, 9.0, 0) + &line(false, 0.7, 2);
        let set = ResultSet::parse(&text).unwrap();
        assert_eq!(set.values("convert_large", "pass_s.p50"), &[0.5, 0.7]);
        assert_eq!(set.failed["convert_large"], 2.0);
        assert!(set.values("convert_small", "pass_s.p50").is_empty());
    }
}
