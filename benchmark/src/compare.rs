//! `benchmark compare <a.json> <b.json>`: the tool the A/A acceptance
//! check and every later performance claim use. `a` is the base. For each
//! (workload, metric) it prints both medians, the ratio b ÷ a, both sets'
//! window quartiles, the bound, and one verdict. Every pair the base holds
//! must be in `b` too: a workload that crashed, or was left out with
//! `--workload`, does not pass by being absent.

use crate::catalogue::{Better, END_TO_END, FAILED_SHARE, WORKLOADS};
use crate::json::{parse, Json};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` reads better than `a` and their quartile ranges do not touch.
    Better,
    /// `b`'s median is worse than `a`'s by more than the bound (or differs
    /// at all for an exact metric, or rose for a no-increase one), or `b`
    /// has no value where `a` has one.
    Worse,
    /// Neither of the above.
    WithinBound,
    /// The spread of either set is wider than the bound and the quartile
    /// ranges overlap: these runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the median and the windows' quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn from(entry: &Json) -> Option<Side> {
        let value = entry.get("value")?.as_f64()?;
        // A metric with a single sample (or none recorded) has no spread.
        let quartile = |key| entry.get(key).and_then(Json::as_f64).unwrap_or(value);
        Some(Side { value, q1: quartile("q1"), q3: quartile("q3") })
    }

    fn spread(self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// The verdict for a metric bounded by a share of the base's median.
pub fn judge_share(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    // Positive = b is worse, as a share of a.
    let worsening = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if overlap && a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < 0.0 && !overlap {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn judge(a: Side, b: Side, better: Better, bound: &Json) -> Verdict {
    match (bound.as_f64(), bound.as_str()) {
        (Some(share), _) => judge_share(a, b, better, share),
        (_, Some("exact")) if a.value.to_bits() == b.value.to_bits() => Verdict::WithinBound,
        (_, Some("exact")) => Verdict::Worse,
        // "no-increase", and anything unrecognised is held to it.
        _ if b.value > a.value => Verdict::Worse,
        _ if b.value < a.value => Verdict::Better,
        _ => Verdict::WithinBound,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path} is not a result file: {e}"))
}

fn metric_entry<'a>(doc: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub verdict: Verdict,
    /// `b` has no value for this pair (its verdict is then `Worse`).
    pub missing: bool,
}

/// How the two files were taken: they must agree, or their windows do not
/// pool the same way.
const SAME_IN_BOTH: [&str; 3] = ["rounds", "seconds", "quick"];

/// Compares two result documents; returns the rows it printed.
///
/// # Errors
///
/// The files were taken differently (`SAME_IN_BOTH`), or the base holds a
/// metric without a value: nothing can be judged against that.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in SAME_IN_BOTH {
        if a.get(key) != b.get(key) {
            let show = |doc: &Json| doc.get(key).map_or("absent".to_string(), Json::plain);
            return Err(format!("{key} differs: a has {}, b has {}", show(a), show(b)));
        }
    }
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<20} {:>12} {:>12} {:>8}  {:>23}  {:>23}  {:>11}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "a q1..q3", "b q1..q3", "bound"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let Some(entry_a) = metric_entry(a, workload.name, metric.name) else { continue };
            let side_a = Side::from(entry_a).ok_or_else(|| {
                format!("the base has no value for {} on {}", metric.name, workload.name)
            })?;
            // The base file's bound is the one in force: a change may not
            // loosen the bound it is judged by.
            let bound = entry_a.get("bound").cloned().unwrap_or(Json::Null);
            let side_b = metric_entry(b, workload.name, metric.name).and_then(Side::from);
            let verdict = match side_b {
                Some(side_b) => judge(side_a, side_b, metric.better, &bound),
                None => Verdict::Worse,
            };
            let shown_b = match side_b {
                Some(side_b) => {
                    let ratio = if side_a.value == 0.0 {
                        "-".to_string()
                    } else {
                        format!("{:.4}", side_b.value / side_a.value)
                    };
                    format!(
                        "{:>12.4} {ratio:>8}  {:>11.4}..{:<10.4}  {:>11.4}..{:<10.4}",
                        side_b.value, side_a.q1, side_a.q3, side_b.q1, side_b.q3
                    )
                }
                None => format!(
                    "{:>12} {:>8}  {:>11.4}..{:<10.4}  {:>23}",
                    "missing", "-", side_a.q1, side_a.q3, "-"
                ),
            };
            println!(
                "{:<13} {:<20} {:>12.4} {shown_b}  {:>11}  {}",
                workload.name,
                metric.name,
                side_a.value,
                bound.plain(),
                verdict.name()
            );
            rows.push(Row {
                workload: workload.name,
                metric: metric.name,
                verdict,
                missing: side_b.is_none(),
            });
        }
    }
    Ok(rows)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("a (base) = {path_a}\nb        = {path_b}\nratios are b ÷ a");
    let rows = match compare(&a, &b) {
        Ok(rows) if rows.is_empty() => Err("the base holds no metric".to_string()),
        other => other,
    };
    let rows = match rows {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("cannot compare: {e}");
            return ExitCode::from(2);
        }
    };
    let count = |v: Verdict| rows.iter().filter(|row| row.verdict == v).count();
    println!(
        "{} better, {} within-bound, {} unresolved, {} worse",
        count(Verdict::Better),
        count(Verdict::WithinBound),
        count(Verdict::Unresolved),
        count(Verdict::Worse)
    );
    let regressed: Vec<String> = rows
        .iter()
        .filter(|row| row.verdict == Verdict::Worse)
        .map(|row| {
            let what = match (row.missing, row.metric == FAILED_SHARE) {
                (true, _) => "missing from b",
                (false, true) => "rose",
                (false, false) => "worse",
            };
            format!("{} on {} {what}", row.metric, row.workload)
        })
        .collect();
    if regressed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("REGRESSION: {}", regressed.join("; "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, q1: f64, q3: f64) -> Side {
        Side { value, q1, q3 }
    }

    #[test]
    fn share_bound_verdicts() {
        let base = side(100.0, 98.0, 102.0);
        let lower = Better::Lower;
        // 5% slower, bound 10%.
        assert_eq!(
            judge_share(base, side(105.0, 103.0, 107.0), lower, 0.1),
            Verdict::WithinBound
        );
        // 20% slower.
        assert_eq!(judge_share(base, side(120.0, 118.0, 122.0), lower, 0.1), Verdict::Worse);
        // 20% faster and the ranges do not touch.
        assert_eq!(judge_share(base, side(80.0, 79.0, 81.0), lower, 0.1), Verdict::Better);
        // Faster, but the ranges overlap: not a resolved gain.
        assert_eq!(
            judge_share(base, side(99.0, 97.0, 101.0), lower, 0.1),
            Verdict::WithinBound
        );
        // One side spreads 30% and the ranges overlap: cannot tell.
        assert_eq!(
            judge_share(base, side(110.0, 90.0, 120.0), lower, 0.1),
            Verdict::Unresolved
        );
        // Wide spread but every window of b is worse: resolved, and worse.
        assert_eq!(judge_share(base, side(150.0, 130.0, 175.0), lower, 0.1), Verdict::Worse);
        // Direction flips for higher-is-better.
        assert_eq!(
            judge_share(base, side(80.0, 79.0, 81.0), Better::Higher, 0.1),
            Verdict::Worse
        );
    }

    fn result_file(latency: f64, cycles: f64, failed: f64) -> Json {
        let metric = |value: f64, bound: Json| {
            Json::obj([
                ("unit", Json::str("us")),
                ("value", Json::Num(value)),
                ("q1", Json::Num(value * 0.99)),
                ("q3", Json::Num(value * 1.01)),
                ("bound", bound),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "full_offline",
                Json::obj([(
                    "metrics",
                    Json::obj([
                        ("latency_p50_us", metric(latency, Json::Num(0.1))),
                        ("sim_cycles_per_node", metric(cycles, Json::str("exact"))),
                        ("failed_share", metric(failed, Json::str("no-increase"))),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn result_files_round_trip_through_compare() {
        // Through text and back, as `compare` reads them from disk.
        let reparsed = |doc: &Json| parse(&doc.pretty()).expect("own output parses");
        let a = reparsed(&result_file(1000.0, 520.0, 0.0));
        let same = compare(&a, &reparsed(&result_file(1000.0, 520.0, 0.0))).unwrap();
        assert_eq!(same.len(), 3);
        assert!(same.iter().all(|row| row.verdict == Verdict::WithinBound && !row.missing));

        let b = reparsed(&result_file(1300.0, 521.0, 0.001));
        let rows = compare(&a, &b).unwrap();
        let of = |metric: &str| rows.iter().find(|row| row.metric == metric).unwrap().verdict;
        assert_eq!(of("latency_p50_us"), Verdict::Worse);
        assert_eq!(of("sim_cycles_per_node"), Verdict::Worse, "an exact metric may not change");
        assert_eq!(of("failed_share"), Verdict::Worse, "failed_share may not rise");

        let faster = compare(&a, &reparsed(&result_file(700.0, 520.0, 0.0))).unwrap();
        assert_eq!(faster[0].verdict, Verdict::Better);
    }

    type Fields = Vec<(String, Json)>;

    /// `doc` with `edit` applied to the object at `path`.
    fn edited(doc: &Json, path: &[&str], edit: &dyn Fn(&mut Fields)) -> Json {
        let Json::Obj(fields) = doc else { panic!("not an object at {path:?}") };
        let mut fields = fields.clone();
        match path.split_first() {
            None => edit(&mut fields),
            Some((key, rest)) => {
                let field = fields.iter_mut().find(|(k, _)| k == key).expect("path exists");
                field.1 = edited(&field.1, rest, edit);
            }
        }
        Json::Obj(fields)
    }

    #[test]
    fn what_the_base_holds_and_b_lacks_is_worse() {
        let a = result_file(1000.0, 520.0, 0.0);
        let metrics = ["workloads", "full_offline", "metrics"];
        // The metric is gone from b; then its value is null; then the whole
        // workload is gone, as after `--workload` or a crash.
        let dropped = edited(&a, &metrics, &|m| m.retain(|(k, _)| k != "latency_p50_us"));
        let nulled = edited(&a, &[&metrics[..], &["latency_p50_us"]].concat(), &|m| {
            m.iter_mut().find(|(k, _)| k == "value").unwrap().1 = Json::Null;
        });
        let emptied = edited(&a, &["workloads"], &|w| w.clear());
        for (b, missing) in [(&dropped, 1), (&nulled, 1), (&emptied, 3)] {
            let rows = compare(&a, b).unwrap();
            assert_eq!(rows.len(), 3, "every pair of the base is a row");
            assert_eq!(rows.iter().filter(|row| row.missing).count(), missing);
            assert!(rows.iter().all(|row| row.missing == (row.verdict == Verdict::Worse)));
        }
        // The other way round, b merely holds more than the base asks for.
        assert!(compare(&dropped, &a).unwrap().iter().all(|row| !row.missing));
        // A base without a value is no base.
        assert!(compare(&nulled, &a).unwrap_err().contains("latency_p50_us"));
    }

    #[test]
    fn files_taken_differently_are_refused() {
        let a = result_file(1000.0, 520.0, 0.0);
        for (key, value) in [
            ("rounds", Json::Num(1.0)),
            ("seconds", Json::Num(2.0)),
            ("quick", Json::Bool(true)),
        ] {
            let b = edited(&a, &[], &|top| top.push((key.to_string(), value.clone())));
            assert!(compare(&a, &b).unwrap_err().contains(key));
            assert!(compare(&b, &b).is_ok());
        }
    }
}
