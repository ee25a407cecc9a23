//! The metric catalogue and the two output formats: one
//! `workload metric value unit` line per metric, and the final JSON line.
//!
//! `BENCHMARK.json` at the repository root repeats the end-to-end rows
//! and the listed per-layer rows of these tables; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user regenerating the paper's matrix
/// sees, with the regression bound (a share of the parent's median).
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics of the untraced run. Host times are in
/// reference-host seconds (see `host.rs`): on a shared 2-vCPU host the
/// machine's speed drifts by ±20% over tens of seconds, which no statistic
/// taken inside one run removes, and calibration removes most of it but
/// not all, so the host-time bounds stay at 25%.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "batch_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "minst_per_s",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "sim_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "sim_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Failed over attempted operations. Printed with the end-to-end lines
/// but kept out of `BENCHMARK.json`: it is 0 on a healthy run, and any
/// failure already makes the run exit non-zero with `correct: false`.
pub const FAILED_FRAC: (&str, &str) = ("failed_frac", "failed/attempted");

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// The direction an optimisation of the layer would push the metric.
    pub better: Better,
    /// Whether the metric is in `BENCHMARK.json` and the JSON line.
    /// Host-time metrics of layers that some workload bypasses (and so
    /// reads as exactly 0 there) are printed as lines and written to the
    /// trace file only.
    pub listed: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better, listed: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        listed,
    }
}

/// The per-layer metrics. The layers are the crates.
pub const PER_LAYER: [LayerDef; 56] = [
    layer("workloads.next_op.calls", "count", Better::Lower, true),
    layer("workloads.next_op.s", "s", Better::Lower, false),
    layer("workloads.line_data.calls", "count", Better::Lower, true),
    layer("workloads.line_data.s", "s", Better::Lower, false),
    layer("core.compress_fill.calls", "count", Better::Lower, true),
    layer("core.compress_fill.s", "s", Better::Lower, false),
    layer("core.on_access.calls", "count", Better::Lower, true),
    layer("core.on_access.s", "s", Better::Lower, false),
    layer("core.on_ep.calls", "count", Better::Lower, true),
    layer("core.on_ep.s", "s", Better::Lower, false),
    layer("core.self_s", "s", Better::Lower, false),
    layer("compress.probe.ops", "count", Better::Lower, true),
    layer("compress.probe.s", "s", Better::Lower, false),
    layer("compress.encode.ops", "count", Better::Lower, true),
    layer("compress.encode.s", "s", Better::Lower, false),
    layer("compress.decode.ops", "count", Better::Lower, true),
    layer("compress.decode.s", "s", Better::Lower, false),
    layer("compress.probes_per_fill", "ratio", Better::Lower, true),
    layer("compress.useful_ratio", "ratio", Better::Higher, true),
    layer("cache.l1.accesses", "count", Better::Lower, true),
    layer("cache.l1.hit_ratio", "ratio", Better::Higher, true),
    layer("cache.l1.fills", "count", Better::Lower, true),
    layer("cache.mshr.stalls", "cycles", Better::Lower, true),
    layer(
        "cache.decomp_queue.wait_cycles",
        "cycles",
        Better::Lower,
        true,
    ),
    layer("cache.l2.accesses", "count", Better::Lower, true),
    layer("cache.l2.hit_ratio", "ratio", Better::Higher, true),
    layer("cache.dram.accesses", "count", Better::Lower, true),
    layer("cache.writebacks", "count", Better::Lower, true),
    layer("gpusim.run_kernel.calls", "count", Better::Lower, true),
    layer("gpusim.run_kernel.s", "s", Better::Lower, false),
    layer("gpusim.self_s", "s", Better::Lower, false),
    layer("gpusim.ns_per_inst", "ns", Better::Lower, true),
    layer("gpusim.instructions", "count", Better::Lower, true),
    layer("gpusim.sim_cycles", "cycles", Better::Lower, true),
    layer("gpusim.ipc", "inst/cycle", Better::Higher, true),
    layer("gpusim.parallel.epochs", "count", Better::Lower, true),
    layer(
        "gpusim.parallel.mean_epoch_cycles",
        "cycles",
        Better::Lower,
        true,
    ),
    layer("gpusim.parallel.busy_s", "s", Better::Lower, false),
    layer("gpusim.parallel.stall_frac", "ratio", Better::Lower, true),
    layer("gpusim.parallel.speedup", "ratio", Better::Higher, true),
    layer("oracle.calls", "count", Better::Lower, true),
    layer("oracle.s", "s", Better::Lower, false),
    layer("oracle.violations", "count", Better::Lower, true),
    layer("energy.account.s", "s", Better::Lower, false),
    layer("bench.memo.requests", "count", Better::Lower, true),
    layer("bench.memo.hit_ratio", "ratio", Better::Higher, true),
    layer("bench.memo.computed", "count", Better::Lower, true),
    layer("bench.sim_s", "s", Better::Lower, true),
    layer("bench.pool.busy_frac", "ratio", Better::Higher, true),
    layer("store.durable_writes", "count", Better::Lower, true),
    layer("store.write_failures", "count", Better::Lower, true),
    layer("store.mem_hits", "count", Better::Higher, true),
    layer("store.evictions", "count", Better::Lower, true),
    layer("tracing.overhead_frac", "ratio", Better::Lower, true),
    layer("tracing.traced_batch_s", "s", Better::Lower, true),
    layer("tracing.untraced_batch_s", "s", Better::Lower, true),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one `run --workload` process reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, for stderr.
    pub failures: Vec<String>,
    /// `#`-prefixed context lines (sample counts, percentile used).
    pub notes: Vec<String>,
    pub values: Values,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The process exit code this report calls for.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// `(name, unit, value, in JSON)` for every metric this run kind
    /// reports, in catalogue order. A metric the run did not produce is
    /// an error: the output contract names every one.
    fn rows(&self) -> Result<Vec<(&'static str, &'static str, f64, bool)>, String> {
        let get = |name: &str| {
            self.values
                .get(name)
                .copied()
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))
        };
        let mut rows = Vec::new();
        if self.traced {
            for m in PER_LAYER {
                rows.push((m.name, m.unit, get(m.name)?, m.listed));
            }
        } else {
            for m in END_TO_END {
                rows.push((m.name, m.unit, get(m.name)?, true));
            }
            rows.push((FAILED_FRAC.0, FAILED_FRAC.1, self.failed_frac(), false));
        }
        Ok(rows)
    }

    /// The human-readable lines: notes, then `workload metric value unit`.
    pub fn lines(&self) -> Result<Vec<String>, String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for (name, unit, value, _) in self.rows()? {
            out.push(format!("{} {name} {} {unit}", self.workload, number(value)));
        }
        Ok(out)
    }

    /// The final JSON line of the output contract.
    pub fn json(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .rows()?
            .into_iter()
            .filter(|row| row.3)
            .map(|(name, unit, value, _)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(value)
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Renders a value with every digit it has (shortest round-trip form),
/// never as NaN or infinity, which JSON cannot carry.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The regression bound and direction of an end-to-end metric.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static LayerDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.push(FAILED_FRAC.0);
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        units.extend(PER_LAYER.iter().map(|m| m.unit));
        units.push(FAILED_FRAC.1);
        for unit in units {
            assert!(valid_unit(unit), "{unit}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").map(|m| m.bound);
        assert!(
            END_TO_END.iter().all(|m| Some(m.bound) <= setup),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let compact: String = text.split_whitespace().collect();
        for m in END_TO_END {
            let row = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(compact.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let listed = PER_LAYER.iter().filter(|m| m.listed);
        for m in listed.clone() {
            let row = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(compact.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let per_layer_rows = compact.matches("\"better\":").count() - END_TO_END.len();
        assert_eq!(
            per_layer_rows,
            listed.count(),
            "BENCHMARK.json lists extra per-layer rows"
        );
    }

    #[test]
    fn json_line_carries_the_listed_metrics_only() {
        let mut report = Report {
            workload: "w",
            traced: false,
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        for m in END_TO_END {
            report.values.insert(m.name, 1.5);
        }
        let json = report.json().unwrap_or_default();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1, "));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("failed_frac"));
        assert_eq!(report.exit_code(), 1);
        let lines = report.lines().unwrap_or_default();
        assert!(lines.contains(&"w failed_frac 0.25 failed/attempted".to_owned()));
        report.values.remove("batch_s");
        assert!(report.json().is_err(), "a missing metric is an error");
    }
}
