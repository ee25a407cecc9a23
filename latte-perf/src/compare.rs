//! `compare <runA>... -- <runB>...`: medians and quartiles of two sets of
//! saved `run` outputs, judged against the bounds of the end-to-end
//! metrics.

use crate::metrics::{end_to_end, per_layer, Better};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Values by `(workload, metric)`, one per run file, and each metric's unit.
#[derive(Debug, Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    units: BTreeMap<String, String>,
}

/// Every `workload metric value unit` line of `text` as its four fields;
/// notes (`#`), the JSON line and anything else are skipped.
pub fn metric_lines(text: &str) -> impl Iterator<Item = (&str, &str, f64, &str)> {
    text.lines().filter_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit] = fields[..] else {
            return None;
        };
        if workload.starts_with(['#', '{']) {
            return None;
        }
        let value = value.parse::<f64>().ok()?;
        Some((workload, metric, value, unit))
    })
}

impl RunSet {
    /// Adds one saved run: every `workload metric value unit` line.
    fn add(&mut self, text: &str) {
        for (workload, metric, value, unit) in metric_lines(text) {
            self.values
                .entry((workload.to_owned(), metric.to_owned()))
                .or_default()
                .push(value);
            self.units.insert(metric.to_owned(), unit.to_owned());
        }
    }
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is not worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's spread is wider than the bound and not every B run beats
    /// every A run, so no statement can be made.
    Unresolved,
}

/// Judges B against A for a metric with `bound` and direction `better`.
pub fn judge(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        let m = median(v).abs();
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m
        }
    };
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    } / ma.abs().max(f64::MIN_POSITIVE);
    let all_better = match better {
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// `v` with four significant digits, so millisecond set-up times and
/// second-scale batch times both keep theirs.
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - magnitude).max(0) as usize)
}

/// Prints the comparison; returns whether any end-to-end metric got
/// worse than its bound.
pub fn compare(a_files: &[String], b_files: &[String]) -> Result<bool, String> {
    let load = |files: &[String]| -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for f in files {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
            set.add(&text);
        }
        Ok(set)
    };
    let (a, b) = (load(a_files)?, load(b_files)?);
    println!(
        "{:18} {:24} {:>10} {:>24} {:>10} {:>24} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change"
    );
    let mut any_worse = false;
    for (key, va) in &a.values {
        let Some(vb) = b.values.get(key) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let (a1, a3) = quartiles(va);
        let (b1, b3) = quartiles(vb);
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        let verdict = match end_to_end(&key.1) {
            Some(m) => {
                let v = judge(va, vb, m.bound, m.better);
                any_worse |= v == Verdict::Worse;
                match v {
                    Verdict::Within => format!("within {:.0}%", m.bound * 100.0),
                    Verdict::Worse => format!("WORSE beyond {:.0}%", m.bound * 100.0),
                    Verdict::Unresolved => "unresolved".to_owned(),
                }
            }
            // Per-layer metrics have no bound: only the direction is told.
            None => match per_layer(&key.1).map(|m| m.better) {
                Some(_) if mb == ma => "same".to_owned(),
                Some(Better::Lower) if mb < ma => "lower (better)".to_owned(),
                Some(Better::Higher) if mb > ma => "higher (better)".to_owned(),
                Some(better) => format!("{} is better", better.as_str()),
                None => "-".to_owned(),
            },
        };
        println!(
            "{:18} {:24} {:>10} {:>24} {:>10} {:>24} {:>7.1}%  {verdict}  ({}, n={}/{})",
            key.0,
            key.1,
            sig(ma),
            format!("[{}, {}]", sig(a1), sig(a3)),
            sig(mb),
            format!("[{}, {}]", sig(b1), sig(b3)),
            change,
            a.units.get(&key.1).map_or("", String::as_str),
            va.len(),
            vb.len()
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&a, &[10.5, 10.4, 10.6], 0.1, Better::Lower),
            Verdict::Within
        );
        assert_eq!(
            judge(&a, &[11.5, 11.4, 11.6], 0.1, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[8.5, 8.4, 8.6], 0.1, Better::Higher),
            Verdict::Worse
        );
        let noisy = [5.0, 10.0, 15.0];
        assert_eq!(judge(&a, &noisy, 0.1, Better::Lower), Verdict::Unresolved);
        // Wide spread, but every B run beats every A run.
        assert_eq!(
            judge(&[20.0, 30.0, 40.0], &[1.0, 2.0, 3.0], 0.1, Better::Lower),
            Verdict::Within
        );
    }

    #[test]
    fn numbers_keep_four_significant_digits() {
        assert_eq!(sig(0.000_876_4), "0.0008764");
        assert_eq!(sig(23.456_78), "23.46");
        assert_eq!(sig(1234.5), "1234");
        assert_eq!(sig(0.0), "0.000");
    }

    #[test]
    fn run_files_parse_metric_lines_only() {
        let mut set = RunSet::default();
        set.add(
            "# note line\nw batch_s 1.5 s\nw batch_s 2.5 s\n{\"correct\": true}\nnot a metric\n",
        );
        assert_eq!(
            set.values[&("w".to_owned(), "batch_s".to_owned())],
            [1.5, 2.5]
        );
        assert_eq!(set.units["batch_s"], "s");
    }
}
