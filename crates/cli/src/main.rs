//! `lgg-sim`: run a JSON scenario file through the LGG simulator.
//!
//! Every subcommand declares its flags in [`COMMANDS`]; one parser reads
//! them all, and each subcommand renders what the library returns.

use std::fs;
use std::io::Write;
use std::process::ExitCode;

use lgg_cli::{
    capture_trace, check_observer_baseline, fnv1a_digest, replay_reproducer, run_bench_suite,
    run_chaos, run_scenario, run_sweep, run_with_checkpoints, trace_smoke_scenario,
    write_sweep_into_bench, BenchReport, ChaosConfig, LggError, RunConfig, Scenario, SweepConfig,
};

/// Print a typed error and exit with its dedicated code (see
/// [`LggError::exit_code`]): scenario 2, parse 3, I/O 4, graph/model 5,
/// corrupt checkpoint 6, checkpoint version 7, checkpoint mismatch 8,
/// invariant violation 9.
fn fail(e: &LggError) -> ExitCode {
    eprintln!("{e}");
    ExitCode::from(e.exit_code())
}

/// A usage error: print `msg` and exit 1.
fn usage(msg: &str) -> Result<ExitCode, LggError> {
    eprintln!("{msg}");
    Ok(ExitCode::FAILURE)
}

const TEMPLATE: &str = r#"{
  "topology": {"kind": "dumbbell", "clique": 4, "bridge": 2},
  "sources": [{"node": 0, "rate": 1}],
  "sinks":   [{"node": 9, "rate": 4}],
  "generalized": [],
  "retention": 0,
  "protocol": "lgg",
  "injection": {"kind": "exact"},
  "loss": {"kind": "none"},
  "dynamics": {"kind": "static"},
  "declaration": "truthful",
  "extraction": "max",
  "steps": 50000,
  "seed": 7,
  "track_ages": true
}"#;

/// What a flag takes after it.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: a switch.
    Nothing,
    /// A string, described as `what` when missing ("a file path").
    Text(&'static str),
    /// A `u64` of at least `min`, described as `what` when missing, not a
    /// number or too small.
    Number(&'static str, u64),
}

use Takes::{Nothing, Number, Text};

/// One subcommand: its name (empty for `lgg-sim SCENARIO`), whether it
/// takes a scenario path, its flags, and its body.
struct Command {
    name: &'static str,
    positional: bool,
    flags: &'static [(&'static str, Takes)],
    run: fn(&Args) -> Result<ExitCode, LggError>,
}

const NON_NEGATIVE: Takes = Number("a non-negative integer", 0);
const POSITIVE: Takes = Number("a positive integer", 1);
const STEP: Takes = Number("a non-negative step", 0);
const FILE: Takes = Text("a file path");
const DIR: Takes = Text("a directory");

/// Every subcommand's flags.
const COMMANDS: &[Command] = &[
    Command {
        name: "",
        positional: true,
        flags: &[
            ("--json", Nothing),
            ("--template", Nothing),
            ("--help", Nothing),
            ("-h", Nothing),
        ],
        run: scenario_cmd,
    },
    Command {
        name: "run",
        positional: true,
        flags: &[
            ("--json", Nothing),
            ("--resume", Nothing),
            ("--steps", NON_NEGATIVE),
            ("--checkpoint-every", POSITIVE),
            ("--checkpoint-dir", DIR),
            ("--trace", FILE),
            ("--sample-every", POSITIVE),
            ("--kill-after", NON_NEGATIVE),
            ("--guard", Nothing),
            ("--guard-dump", DIR),
            ("--inject-fault", STEP),
            ("--max-backlog", POSITIVE),
            ("--max-wall-ms", POSITIVE),
        ],
        run: run_cmd,
    },
    Command {
        name: "trace",
        positional: true,
        flags: &[
            ("--smoke", Nothing),
            ("--out", FILE),
            ("--steps", NON_NEGATIVE),
            ("--sample-every", POSITIVE),
        ],
        run: trace_cmd,
    },
    Command {
        name: "chaos",
        positional: false,
        flags: &[
            ("--smoke", Nothing),
            ("--replay", Text("a reproducer file")),
            ("--trials", POSITIVE),
            ("--steps", POSITIVE),
            ("--seed", NON_NEGATIVE),
            ("--out", DIR),
            ("--inject-fault", STEP),
        ],
        run: chaos_cmd,
    },
    Command {
        name: "bench",
        positional: false,
        flags: &[("--out", FILE), ("--baseline", FILE)],
        run: bench_cmd,
    },
    Command {
        name: "sweep",
        positional: false,
        flags: &[("--smoke", Nothing), ("--out", FILE), ("--scenarios", DIR)],
        run: sweep_cmd,
    },
];

/// The parsed command line of one subcommand. A repeated flag keeps its
/// last value, as does a repeated scenario path.
#[derive(Debug, Default)]
struct Args {
    path: Option<String>,
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn on(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn text(&self, flag: &str) -> Option<String> {
        self.value(flag).map(str::to_string)
    }

    fn number(&self, flag: &str) -> Option<u64> {
        self.value(flag)
            .map(|v| v.parse().expect("checked by parse"))
    }
}

/// Reads `args` against `cmd`'s flags; the error is the usage message.
fn parse(cmd: &Command, args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(&(flag, takes)) = cmd.flags.iter().find(|(f, _)| f == a) else {
            if cmd.positional && !a.starts_with('-') {
                out.path = Some(a.clone());
                continue;
            }
            return Err(match cmd.name {
                "" => format!("unknown flag {a}"),
                name => format!("unknown {name} flag {a}"),
            });
        };
        let value = match takes {
            Nothing => String::new(),
            Text(what) | Number(what, _) => {
                let fits = |v: &&String| match takes {
                    Number(_, min) => v.parse::<u64>().is_ok_and(|n| n >= min),
                    _ => true,
                };
                it.next()
                    .filter(fits)
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))?
            }
        };
        out.given.push((flag, value));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match COMMANDS[1..]
        .iter()
        .find(|c| args.first().is_some_and(|a| a == c.name))
    {
        Some(cmd) => (cmd, &args[1..]),
        None => (&COMMANDS[0], &args[..]),
    };
    match parse(cmd, rest) {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Ok(parsed) => (cmd.run)(&parsed).unwrap_or_else(|e| fail(&e)),
    }
}

/// `lgg-sim SCENARIO.json [--json]`, `--template`, `--help`: run a
/// scenario and print its report.
fn scenario_cmd(a: &Args) -> Result<ExitCode, LggError> {
    if a.on("--template") {
        println!("{TEMPLATE}");
        return Ok(ExitCode::SUCCESS);
    }
    if a.on("--help") || a.on("-h") {
        print_help();
        return Ok(ExitCode::SUCCESS);
    }
    let Some(path) = &a.path else {
        print_help();
        return Ok(ExitCode::FAILURE);
    };
    let report = run_scenario(&Scenario::from_file(path)?)?;
    if a.on("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serializable")
        );
    } else {
        print!("{}", report.human());
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim run`: a long run with crash-safe snapshots, optionally
/// guarded (exit 9 on a violation). Each flag sets the [`RunConfig`]
/// field of the same name.
fn run_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let Some(path) = a.path.clone() else {
        return usage("run needs a scenario file");
    };
    let summary = run_with_checkpoints(&RunConfig {
        scenario_path: path,
        steps: a.number("--steps"),
        checkpoint_every: a.number("--checkpoint-every"),
        checkpoint_dir: a.text("--checkpoint-dir"),
        resume: a.on("--resume"),
        trace: a.text("--trace"),
        sample_stride: a.number("--sample-every").unwrap_or(1),
        kill_after: a.number("--kill-after"),
        guard: a.on("--guard"),
        guard_dump: a.text("--guard-dump"),
        inject_fault: a.number("--inject-fault"),
        max_backlog: a.number("--max-backlog"),
        max_wall_ms: a.number("--max-wall-ms"),
    })?;
    if a.on("--json") {
        println!(
            "{{\"steps\":{},\"resumed_from\":{},\"injected\":{},\"delivered\":{},\
             \"lost\":{},\"final_pt\":{},\"sup_pt\":{}}}",
            summary.steps,
            summary
                .resumed_from
                .map_or("null".to_string(), |t| t.to_string()),
            summary.injected,
            summary.delivered,
            summary.lost,
            summary.final_pt,
            summary.sup_pt
        );
    } else {
        println!("{}", summary.human());
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim chaos`: the seeded adversarial campaign ([`run_chaos`]); exits
/// 9 when any trial violates an invariant. `--replay FILE` re-runs one
/// reproducer and exits 9 iff its violation re-triggers at its step.
fn chaos_cmd(a: &Args) -> Result<ExitCode, LggError> {
    if let Some(file) = a.text("--replay") {
        return match replay_reproducer(&file)? {
            Some(v) => {
                println!(
                    "chaos replay: violation reproduced — {} at step {}",
                    v.kind, v.step
                );
                Ok(ExitCode::from(9))
            }
            None => usage("chaos replay: recorded violation did NOT reproduce (stale reproducer?)"),
        };
    }
    let mut cfg = if a.on("--smoke") {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };
    if let Some(n) = a.number("--trials") {
        cfg.trials = n as usize;
    }
    if let Some(n) = a.number("--steps") {
        cfg.steps = n;
    }
    if let Some(n) = a.number("--seed") {
        cfg.seed = n;
    }
    if let Some(d) = a.text("--out") {
        cfg.out_dir = d;
    }
    cfg.inject_fault = a.number("--inject-fault");
    let report = run_chaos(&cfg)?;
    println!(
        "chaos: {} trials  clean {}  budget-stopped {}  build-errors {}  violations {}  digest {}",
        report.trials,
        report.clean,
        report.budget,
        report.build_errors,
        report.violations,
        report.digest
    );
    for r in &report.reproducers {
        println!("chaos: reproducer {r}");
    }
    Ok(if report.violations > 0 {
        ExitCode::from(9)
    } else {
        ExitCode::SUCCESS
    })
}

/// `lgg-sim bench`: time the observer and guard overhead legs into the
/// bench file; `--baseline FILE` also fails if the disabled-observer leg
/// is more than 2% below FILE's.
fn bench_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let out = a
        .text("--out")
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    // Read the baseline before the run overwrites the default --out
    // (they are usually the same file).
    let baseline = match a.text("--baseline") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(&path)
                .map_err(|e| LggError::io(format!("cannot read baseline {path}"), e))?;
            match serde_json::from_str::<BenchReport>(&text) {
                Ok(b) => Some(b),
                Err(e) => return usage(&format!("baseline {path} does not parse: {e}")),
            }
        }
    };
    let mut report = run_bench_suite()?;
    // Keep a previously recorded sweep section: the two commands own
    // disjoint parts of the same file.
    if let Ok(old) = fs::read_to_string(&out) {
        if let Ok(prev) = serde_json::from_str::<BenchReport>(&old) {
            report.sweep = prev.sweep;
        }
    }
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    fs::write(&out, format!("{json}\n"))
        .map_err(|e| LggError::io(format!("cannot write {out}"), e))?;
    if let Some(obs) = &report.observer {
        println!(
            "observer overhead on {} ({}): off {:.1} steps/s  ring {:.1} ({:.3} of off)  window {:.1} ({:.3} of off)",
            obs.case,
            obs.engine,
            obs.off.steps_per_sec,
            obs.ring.steps_per_sec,
            obs.ring_vs_off,
            obs.window.steps_per_sec,
            obs.window_vs_off
        );
    }
    if let Some(g) = &report.guard {
        println!(
            "guard overhead on {} ({}): off {:.1} steps/s  guarded {:.1} ({:.3} of off)",
            g.case, g.engine, g.off.steps_per_sec, g.guarded.steps_per_sec, g.guarded_vs_off
        );
    }
    println!("wrote {out}");
    if let Some(baseline) = &baseline {
        check_observer_baseline(&report, baseline)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim trace`: the per-step event trace as JSON Lines on stdout (or
/// in `--out FILE`). `--smoke` captures the built-in scenario twice,
/// checks the captures are byte-identical, and prints the line count and
/// FNV-1a digest.
fn trace_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let smoke = a.on("--smoke");
    let scenario = if smoke {
        trace_smoke_scenario()
    } else {
        let Some(path) = &a.path else {
            return usage("trace needs a scenario file (or --smoke)");
        };
        Scenario::from_file(path)?
    };
    let steps = a.number("--steps").unwrap_or(scenario.steps);
    let sample_every = a.number("--sample-every").unwrap_or(1);
    let bytes = capture_trace(&scenario, steps, sample_every)?;
    let out = a.text("--out");
    if smoke {
        // Self-checking: a second capture must be byte-identical — this
        // is the determinism witness CI records.
        if capture_trace(&scenario, steps, sample_every)? != bytes {
            return usage("trace smoke FAILED: two captures differ; determinism is broken");
        }
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        println!(
            "trace smoke ok: {steps} steps, {lines} events, digest {}",
            fnv1a_digest(&bytes)
        );
        if out.is_none() {
            return Ok(ExitCode::SUCCESS);
        }
    }
    match out {
        Some(file) => {
            fs::write(&file, &bytes)
                .map_err(|e| LggError::io(format!("cannot write {file}"), e))?;
            eprintln!("wrote {file}");
        }
        None => std::io::stdout()
            .lock()
            .write_all(&bytes)
            .map_err(|e| LggError::io("cannot write trace to stdout", e))?,
    }
    Ok(ExitCode::SUCCESS)
}

/// `lgg-sim sweep`: the parameter grid serially and across the pool
/// (`LGG_THREADS` wide), checked bit-for-bit, timed into the `sweep`
/// section of the bench file.
fn sweep_cmd(a: &Args) -> Result<ExitCode, LggError> {
    let mut cfg = SweepConfig {
        smoke: a.on("--smoke"),
        ..SweepConfig::default()
    };
    if let Some(dir) = a.text("--scenarios") {
        cfg.scenario_dir = dir;
    }
    let out = a
        .text("--out")
        .unwrap_or_else(|| "BENCH_throughput.json".into());
    let report = run_sweep(&cfg)?;
    println!(
        "sweep: {} items  serial {:.3}s  parallel {:.3}s ({} threads)  \
         speedup x{:.2}  efficiency {:.2}  digest {}",
        report.items,
        report.serial_secs,
        report.parallel_secs,
        report.threads,
        report.speedup,
        report.per_core_efficiency,
        report.digest
    );
    write_sweep_into_bench(&out, report)?;
    println!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}

fn print_help() {
    println!(
        "lgg-sim — run an LGG-routing scenario from a JSON file\n\n\
         USAGE: lgg-sim SCENARIO.json [--json]\n\
         \u{20}      lgg-sim --template   # print a starter scenario\n\
         \u{20}      lgg-sim bench [--out FILE] [--baseline FILE]\n\
         \u{20}                           # observer/guard overhead -> BENCH_throughput.json;\n\
         \u{20}                           # --baseline gates the disabled observer at 2%\n\
         \u{20}      lgg-sim sweep [--smoke] [--out FILE] [--scenarios DIR]\n\
         \u{20}                           # parallel parameter grid, serial-vs-parallel\n\
         \u{20}                           # wall clock -> sweep section of the bench file\n\
         \u{20}      lgg-sim trace [SCENARIO.json | --smoke] [--out FILE] [--steps N] [--sample-every N]\n\
         \u{20}                           # per-step event trace as JSON Lines\n\
         \u{20}      lgg-sim run SCENARIO.json [--steps N] [--checkpoint-every N] [--checkpoint-dir D]\n\
         \u{20}                  [--resume] [--trace FILE] [--sample-every N] [--json]\n\
         \u{20}                  [--guard] [--guard-dump DIR] [--max-backlog N] [--max-wall-ms N]\n\
         \u{20}                           # long run with crash-safe snapshots; --resume\n\
         \u{20}                           # continues bit-for-bit from the newest snapshot;\n\
         \u{20}                           # --guard checks invariants every step and exits 9\n\
         \u{20}                           # on violation with a replayable reproducer\n\
         \u{20}      lgg-sim chaos [--smoke] [--trials N] [--steps N] [--seed N] [--out DIR]\n\
         \u{20}                  [--replay FILE]\n\
         \u{20}                           # seeded adversarial campaign; violations are\n\
         \u{20}                           # shrunk to minimal reproducers in results/chaos\n\n\
         The scenario format covers topology, sources/sinks/R-generalized\n\
         nodes, protocol (lgg, matching-lgg, maxflow-routing, shortest-path,\n\
         flood, random-forward), arrival processes, loss models, topology\n\
         dynamics, lying/extraction policies, steps, seed and age tracking."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS
            .iter()
            .find(|c| c.name == name)
            .expect("known subcommand")
    }

    fn parse_args(name: &str, args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(command(name), &args)
    }

    /// Every flag of every subcommand (`""` is `lgg-sim SCENARIO`).
    const FLAGS: &[(&str, &[&str])] = &[
        ("", &["--json", "--template", "--help", "-h"]),
        (
            "run",
            &[
                "--json",
                "--resume",
                "--steps",
                "--checkpoint-every",
                "--checkpoint-dir",
                "--trace",
                "--sample-every",
                "--kill-after",
                "--guard",
                "--guard-dump",
                "--inject-fault",
                "--max-backlog",
                "--max-wall-ms",
            ],
        ),
        ("trace", &["--smoke", "--out", "--steps", "--sample-every"]),
        (
            "chaos",
            &[
                "--smoke",
                "--replay",
                "--trials",
                "--steps",
                "--seed",
                "--out",
                "--inject-fault",
            ],
        ),
        ("bench", &["--out", "--baseline"]),
        ("sweep", &["--smoke", "--out", "--scenarios"]),
    ];

    /// `(subcommand, flag, message)`: what a missing or unusable value
    /// prints before exit 1.
    const VALUE_MESSAGES: &[(&str, &str, &str)] = &[
        ("run", "--steps", "--steps needs a non-negative integer"),
        (
            "run",
            "--checkpoint-every",
            "--checkpoint-every needs a positive integer",
        ),
        (
            "run",
            "--checkpoint-dir",
            "--checkpoint-dir needs a directory",
        ),
        ("run", "--trace", "--trace needs a file path"),
        (
            "run",
            "--sample-every",
            "--sample-every needs a positive integer",
        ),
        (
            "run",
            "--kill-after",
            "--kill-after needs a non-negative integer",
        ),
        ("run", "--guard-dump", "--guard-dump needs a directory"),
        (
            "run",
            "--inject-fault",
            "--inject-fault needs a non-negative step",
        ),
        (
            "run",
            "--max-backlog",
            "--max-backlog needs a positive integer",
        ),
        (
            "run",
            "--max-wall-ms",
            "--max-wall-ms needs a positive integer",
        ),
        ("trace", "--out", "--out needs a file path"),
        ("trace", "--steps", "--steps needs a non-negative integer"),
        (
            "trace",
            "--sample-every",
            "--sample-every needs a positive integer",
        ),
        ("chaos", "--replay", "--replay needs a reproducer file"),
        ("chaos", "--trials", "--trials needs a positive integer"),
        ("chaos", "--steps", "--steps needs a positive integer"),
        ("chaos", "--seed", "--seed needs a non-negative integer"),
        ("chaos", "--out", "--out needs a directory"),
        (
            "chaos",
            "--inject-fault",
            "--inject-fault needs a non-negative step",
        ),
        ("bench", "--out", "--out needs a file path"),
        ("bench", "--baseline", "--baseline needs a file path"),
        ("sweep", "--out", "--out needs a file path"),
        ("sweep", "--scenarios", "--scenarios needs a directory"),
    ];

    #[test]
    fn every_flag_parses_and_reads_back() {
        assert_eq!(COMMANDS.len(), FLAGS.len());
        for &(name, flags) in FLAGS {
            let table: Vec<&str> = command(name).flags.iter().map(|(f, _)| *f).collect();
            assert_eq!(table, flags, "flags of {name:?}");
            for &(flag, takes) in command(name).flags {
                let a = match takes {
                    Nothing => parse_args(name, &[flag]),
                    Text(_) => parse_args(name, &[flag, "some/path"]),
                    Number(..) => parse_args(name, &[flag, "7"]),
                }
                .unwrap_or_else(|e| panic!("{name:?} {flag}: {e}"));
                assert!(a.on(flag), "{name:?} {flag}");
                match takes {
                    Nothing => {}
                    Text(_) => assert_eq!(a.text(flag).as_deref(), Some("some/path")),
                    Number(..) => assert_eq!(a.number(flag), Some(7)),
                }
            }
        }
    }

    #[test]
    fn bad_values_print_the_flags_message() {
        let value_flags = COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter().filter(|(_, t)| !matches!(t, Nothing)))
            .count();
        assert_eq!(
            value_flags,
            VALUE_MESSAGES.len(),
            "every value flag has a message"
        );
        for &(name, flag, message) in VALUE_MESSAGES {
            let err = |args: &[&str]| parse_args(name, args).unwrap_err();
            assert_eq!(err(&[flag]), message, "{name} {flag} missing its value");
            let numeric = message.contains("integer") || message.contains("step");
            if numeric {
                assert_eq!(err(&[flag, "x"]), message, "{name} {flag} x");
                assert_eq!(err(&[flag, "-1"]), message, "{name} {flag} -1");
            }
            if message.contains("positive") {
                assert_eq!(err(&[flag, "0"]), message, "{name} {flag} 0");
            } else if numeric {
                assert_eq!(
                    parse_args(name, &[flag, "0"]).unwrap().number(flag),
                    Some(0)
                );
            }
        }
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        for (name, message) in [
            ("", "unknown flag --nope"),
            ("run", "unknown run flag --nope"),
            ("trace", "unknown trace flag --nope"),
            ("chaos", "unknown chaos flag --nope"),
            ("bench", "unknown bench flag --nope"),
            ("sweep", "unknown sweep flag --nope"),
        ] {
            assert_eq!(parse_args(name, &["--nope"]).unwrap_err(), message);
        }
        // Only `lgg-sim SCENARIO`, `run` and `trace` take a scenario path.
        for name in ["chaos", "bench", "sweep"] {
            assert_eq!(
                parse_args(name, &["s.json"]).unwrap_err(),
                format!("unknown {name} flag s.json")
            );
        }
        // There is no `sweep --threads`: `LGG_THREADS` sets the pool width.
        assert_eq!(
            parse_args("sweep", &["--threads", "2"]).unwrap_err(),
            "unknown sweep flag --threads"
        );
    }

    #[test]
    fn switches_take_no_value_and_repeats_keep_the_last() {
        let a = parse_args(
            "run",
            &[
                "--guard", "a.json", "--steps", "5", "--steps", "9", "b.json",
            ],
        )
        .unwrap();
        assert!(a.on("--guard"));
        assert_eq!(a.path.as_deref(), Some("b.json"));
        assert_eq!(a.number("--steps"), Some(9));
        assert!(!a.on("--resume"));
        assert_eq!(a.number("--kill-after"), None);
    }
}
