//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload read-mix|edit|cold-start|churn|all --seed N
//!           --seconds S --trace 0|1 --matchd PATH [--work DIR]
//! ```
//!
//! With `--trace 0` it boots `matchd` and measures the workload end to end;
//! with `--trace 1` it replays the workload's inputs in process against
//! the public API of each layer and reports per-layer spans. Either way it
//! prints a report and, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero when
//! an output check fails. `perfbench/run.py` builds it and `matchd` and
//! supplies `--matchd`; see `perfbench/README.md`.

mod checks;
mod daemon;
mod measure;
mod report;
mod trace;
mod traced;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Metric, Outcome};
use workloads::Run;

const WORKLOADS: [&str; 4] = ["read-mix", "edit", "cold-start", "churn"];

/// The end-to-end metrics of `BENCHMARK.json`, in its order.
const END_TO_END: [&str; 5] = ["setup_s", "cpu_ms", "peak_rss_mb", "ok_share", "align_f1"];

struct Args {
    workload: String,
    trace: bool,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut matchd = None;
    let mut work = PathBuf::from(".bench_work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value()? == "1",
            "--matchd" => matchd = Some(PathBuf::from(value()?)),
            "--work" => work = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        trace,
        run: Run {
            matchd: matchd.ok_or("--matchd is required")?,
            work,
            seed: seed.ok_or("--seed is required")?,
            seconds,
        },
    })
}

fn run_one(workload: &str, trace: bool, run: &Run) -> Result<Outcome, String> {
    let run = Run {
        work: workloads::work_dir(&run.work, workload)?,
        ..run.clone()
    };
    let start = std::time::Instant::now();
    let mut outcome = match (trace, workload) {
        (true, _) => traced::run(workload, &run),
        (false, "read-mix") => workloads::read_mix(&run),
        (false, "edit") => workloads::edit(&run),
        (false, "cold-start") => workloads::cold_start(&run),
        (false, "churn") => workloads::churn(&run),
        (false, other) => Err(format!("unknown workload {other:?}")),
    }?;
    outcome.condition("run_s", format!("{:.3}", start.elapsed().as_secs_f64()));
    Ok(outcome)
}

/// The metrics of the JSON line: every end-to-end metric untraced, every
/// per-layer metric traced.
fn json_metrics(outcome: &Outcome, trace: bool) -> Result<Vec<Metric>, String> {
    if trace {
        return Ok(outcome.layers.clone());
    }
    let roles = outcome.role_metrics();
    END_TO_END
        .iter()
        .map(|name| {
            roles
                .iter()
                .find(|m| m.name == *name)
                .cloned()
                .ok_or_else(|| format!("{} did not measure {name}", outcome.workload))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    let mut last = None;
    for workload in selected {
        let outcome = match run_one(workload, args.trace, &args.run) {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("perfbench: {workload}: {message}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcome.render());
        if !args.trace {
            for m in outcome.role_metrics() {
                println!(
                    "  end-to-end {:<26} {:>14.4} {:<6} = {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        all_correct &= outcome.correct();
        last = Some(outcome);
    }
    let Some(outcome) = last else {
        return ExitCode::FAILURE;
    };
    match json_metrics(&outcome, args.trace) {
        Ok(metrics) => {
            let mut line = outcome.json_line(&metrics);
            if !all_correct && outcome.correct() {
                // `all`: an earlier workload failed its checks.
                line = line.replacen("\"correct\": true", "\"correct\": false", 1);
            }
            println!("{line}");
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}
