//! `latte-perf` — the repository benchmark.
//!
//! ```text
//! latte-perf run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! latte-perf compare <run-file>... -- <run-file>...
//! latte-perf bless
//! ```
//!
//! `run` without `--workload` runs every workload, each in its own child
//! process, and prints one `workload metric value unit` line per metric.
//! With `--workload` it runs that one workload in this process and ends
//! with the JSON line of the benchmark contract. `--trace` (or
//! `--trace 1`) makes it the traced run: per-layer metrics instead of
//! end-to-end ones, and `target/latte-perf/trace-<workload>.json`.
//! `bless` rewrites `expected.txt` from a seed-0 pass over every workload.
//! See README.md for the workloads, the metrics and their bounds.

mod compare;
mod exec;
mod expected;
mod host;
mod metrics;
mod run;
mod stats;
mod sweep;
mod trace;
mod workload;

use run::RunArgs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use workload::{Body, WorkloadDef, WORKLOADS};

const USAGE: &str = "usage:
  latte-perf run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
  latte-perf compare <run-file>... -- <run-file>...
  latte-perf bless";

/// Parsed `run` options.
struct Cli {
    workload: Option<&'static WorkloadDef>,
    args: RunArgs,
}

fn parse_run(mut rest: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        args: RunArgs {
            seed: 0,
            seconds: 10.0,
            traced: false,
        },
    };
    while let [flag, tail @ ..] = rest {
        let value = || tail.first().ok_or(format!("{flag} needs a value"));
        rest = tail;
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload::find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name}; one of: {}", names.join(", "))
                })?;
                cli.workload = Some(w);
                rest = &tail[1..];
            }
            "--seed" => {
                cli.args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                rest = &tail[1..];
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                cli.args.seconds = s;
                rest = &tail[1..];
            }
            "--trace" => {
                cli.args.traced = true;
                match tail.first().map(String::as_str) {
                    Some("1") => rest = &tail[1..],
                    Some("0") => {
                        cli.args.traced = false;
                        rest = &tail[1..];
                    }
                    _ => {}
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process; prints its lines and the JSON line.
fn run_one(w: &'static WorkloadDef, args: RunArgs) -> i32 {
    // Outputs at seed 0 are pinned by expected.txt; other seeds are only
    // checked for self-consistency.
    let expected = if args.seed == 0 {
        match expected::load() {
            Ok(e) => Some(e),
            Err(e) => {
                eprintln!("latte-perf: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let report = run::run_workload(w, args, expected.as_ref());
    for failure in &report.failures {
        eprintln!("latte-perf: FAILED {failure}");
    }
    match report.lines().and_then(|lines| Ok((lines, report.json()?))) {
        Ok((lines, json)) => {
            for line in lines {
                println!("{line}");
            }
            println!("{json}");
            report.exit_code()
        }
        Err(e) => {
            eprintln!("latte-perf: {e}");
            1
        }
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("latte-perf: current_exe: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in &WORKLOADS {
        let output = Command::new(&exe)
            .args([
                "run",
                "--workload",
                w.name,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        match output {
            Ok(out) => {
                let text = String::from_utf8_lossy(&out.stdout);
                for line in text.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                }
                if !out.status.success() {
                    eprintln!("latte-perf: workload {} failed ({})", w.name, out.status);
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("latte-perf: cannot start workload {}: {e}", w.name);
                code = 1;
            }
        }
    }
    code
}

/// Regenerates `expected.txt` from one seed-0 round of every workload.
fn bless() -> Result<PathBuf, String> {
    let mut out = expected::Expected::new();
    for w in &WORKLOADS {
        let digests = match w.body {
            Body::Sims(build) => {
                let mut digests = Vec::new();
                for job in build(0).into_iter().map(exec::Job::build) {
                    let run = exec::run_sim(&job, None);
                    if !run.termination.is_clean() || run.violations > 0 {
                        return Err(format!(
                            "{} {}: terminated {} with {} oracle violation(s)",
                            w.name,
                            job.key(),
                            run.termination,
                            run.violations
                        ));
                    }
                    digests.push((job.key(), run.digest));
                }
                digests
            }
            Body::Sweep => sweep::bless_round(w)
                .map_err(|e| format!("{}: {e}", w.name))?
                .into_iter()
                .collect(),
        };
        eprintln!("latte-perf: {}: {} digests", w.name, digests.len());
        out.extend(
            digests
                .into_iter()
                .map(|(k, d)| (format!("{} {k}", w.name), d)),
        );
    }
    expected::store(&out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(Cli {
                workload: Some(w),
                args,
            }) => run_one(w, args),
            Ok(Cli {
                workload: None,
                args,
            }) => run_all(args),
            Err(e) => {
                eprintln!("latte-perf: {e}\n{USAGE}");
                2
            }
        },
        Some((cmd, rest)) if cmd == "compare" => match rest.iter().position(|a| a == "--") {
            Some(split) if split > 0 && split + 1 < rest.len() => {
                match compare::compare(&rest[..split], &rest[split + 1..]) {
                    Ok(worse) => i32::from(worse),
                    Err(e) => {
                        eprintln!("latte-perf: {e}");
                        2
                    }
                }
            }
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some((cmd, [])) if cmd == "bless" => match bless() {
            Ok(path) => {
                println!("wrote {}", path.display());
                0
            }
            Err(e) => {
                eprintln!("latte-perf: bless: {e}");
                1
            }
        },
        // Internal: the child process of a sweep round (see sweep.rs).
        Some((cmd, rest)) if cmd == "sweep-round" => {
            let round = match rest {
                [flag, dir] if flag == "--dir" => Some((false, dir)),
                [trace, flag, dir] if trace == "--trace" && flag == "--dir" => Some((true, dir)),
                _ => None,
            };
            match round.map(|(traced, dir)| sweep::child_main(&PathBuf::from(dir), traced)) {
                None => 2,
                Some(Ok(())) => 0,
                Some(Err(e)) => {
                    eprintln!("latte-perf: sweep round: {e}");
                    1
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn run_options_parse_as_the_contract_passes_them() {
        let cli = parse_run(&args(&[
            "--workload",
            "csens-adaptive",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        let cli = cli.unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(cli.workload.map(|w| w.name), Some("csens-adaptive"));
        assert_eq!(
            (cli.args.seed, cli.args.seconds, cli.args.traced),
            (3, 10.0, true)
        );
        let untraced =
            parse_run(&args(&["--trace", "0", "--seed", "1"])).unwrap_or_else(|e| panic!("{e}"));
        assert!(!untraced.args.traced);
        let bare = parse_run(&args(&["--trace"])).unwrap_or_else(|e| panic!("{e}"));
        assert!(bare.args.traced);
        assert!(parse_run(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run(&args(&["--seed"])).is_err());
        assert!(parse_run(&args(&["--seconds", "-1"])).is_err());
    }
}
