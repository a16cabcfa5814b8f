//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a host/provenance line, then the result line (the last line of
//! standard output). `--workload all` runs every workload in turn, each
//! for `S` seconds, and prints both lines for each. `perfbench --record`
//! prints a fresh `expected.json`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::workloads::Workload;
use perfbench::{report, WORK_ROOT};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads = Some(match name.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    _ => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
                });
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        return match perfbench::record() {
            Ok(doc) => {
                print!("{doc}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Failed operations are reported in the result line (`correct`,
    // `failed`); only a run that cannot report exits non-zero.
    for w in args.workloads {
        if let Err(e) = run(w, args.seed, args.seconds, args.trace) {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs one workload and prints its table, host line and result line.
fn run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let size = w.full_size();
    let outcome = if trace {
        let spans = Path::new(WORK_ROOT)
            .join("spans")
            .join(format!("{}-seed{seed}.jsonl", w.name()));
        let out = perfbench::trace(w, seed, seconds, size, &spans)?;
        eprintln!("perfbench: spans written to {}", spans.display());
        out
    } else {
        perfbench::measure(w, seed, seconds, size)?
    };
    eprintln!("== {}", w.name());
    for (name, unit, value) in &outcome.metrics {
        eprintln!("{:<28} {value:>16.6} {unit}", name);
    }
    eprintln!(
        "{:<28} {:>16.6} ratio ({} of {} operations failed)",
        "failed_ratio",
        perfbench::jobs::ratio(outcome.failed, outcome.attempted),
        outcome.failed,
        outcome.attempted
    );
    for (name, unit, value) in &outcome.raw {
        eprintln!("unscaled {:<19} {value:>16.6} {unit}", name);
    }
    let variant = seed % w.variants();
    println!(
        "{}",
        report::host_line(w.name(), seed, variant, &outcome.raw)
    );
    println!(
        "{}",
        report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(())
}
