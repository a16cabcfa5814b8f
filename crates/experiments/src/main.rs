//! CLI driver: `experiments [ids... | all] [--quick] [--out DIR]`.
//!
//! Runs the selected experiments — fanned across the work-stealing pool,
//! one pool item per experiment — prints their Markdown reports in suite
//! order via the buffered [`OrderedReporter`], and (with `--out`) writes
//! one JSON + one Markdown file per experiment plus a combined
//! `EXPERIMENTS.generated.md`. Every experiment derives its randomness
//! from its own fixed seeds, so output is byte-identical at any
//! `LGG_THREADS` setting.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use experiments::reporter::OrderedReporter;
use experiments::{run_experiment, ExperimentReport, ALL_IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" | "-q" => quick = true,
            "--out" | "-o" => {
                i += 1;
                if i >= args.len() {
                    eprintln!("--out needs a directory argument");
                    return ExitCode::FAILURE;
                }
                out_dir = Some(PathBuf::from(&args[i]));
            }
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids.extend(ALL_IDS.iter().map(|s| s.to_string()));
    }
    ids.dedup();

    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    // Validate ids before spending any compute.
    if let Some(bad) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        eprintln!("unknown experiment id: {bad} (known: {})", ALL_IDS.join(", "));
        return ExitCode::FAILURE;
    }

    // Fan the experiments across the pool. Reports stream to stdout in
    // suite order through the buffered reporter no matter which worker
    // finishes first; the collected vector is ordered by construction.
    let reporter = OrderedReporter::new(std::io::stdout());
    let indexed: Vec<(usize, String)> = ids.iter().cloned().enumerate().collect();
    let reports: Vec<(ExperimentReport, String)> = parpool::run_ordered(indexed, |(i, id)| {
        let report = run_experiment(&id, quick).expect("id validated above");
        let md = report.markdown();
        reporter.complete(i, format!("{md}\n"));
        (report, md)
    });
    reporter.into_inner();

    let mut all_pass = true;
    let mut combined = String::from("# Generated experiment reports\n\n");
    for (report, md) in &reports {
        combined.push_str(md);
        all_pass &= report.pass;
        if let Some(dir) = &out_dir {
            write_report(dir, report, md);
        }
    }

    if let Some(dir) = &out_dir {
        let _ = fs::write(dir.join("EXPERIMENTS.generated.md"), &combined);
    }

    println!(
        "== {} experiment(s), overall: {} ==",
        ids.len(),
        if all_pass { "REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_report(dir: &std::path::Path, report: &ExperimentReport, md: &str) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    let _ = fs::write(dir.join(format!("{}.json", report.id)), json);
    let _ = fs::write(dir.join(format!("{}.md", report.id)), md);
}

fn print_help() {
    println!(
        "experiments — regenerate the figures/claims of the IPPS 2010 LGG paper\n\n\
         USAGE: experiments [IDS...|all] [--quick] [--out DIR]\n\n\
         IDS: {}\n\n\
         --quick   shrink step counts (CI mode)\n\
         --out DIR write per-experiment .md/.json and a combined report",
        ALL_IDS.join(", ")
    );
}
