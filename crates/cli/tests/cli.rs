//! The `lgg-sim` binary end to end: exit codes, and the equivalence of
//! `trace --out` and `run --trace` that lets both share one run driver.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn lgg_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lgg-sim"))
        .args(args)
        .output()
        .expect("lgg-sim starts")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lgg-cli-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unreadable_or_unwritable_files_exit_with_the_io_code() {
    let dir = scratch("missing");
    let missing = dir.join("missing.json");
    let missing = missing.to_str().unwrap();
    for args in [vec![missing], vec!["run", missing], vec!["trace", missing]] {
        let out = lgg_sim(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("cannot read {missing}: ")),
            "{stderr}"
        );
    }
    let unwritable = dir.join("no-such-dir/trace.jsonl");
    let unwritable = unwritable.to_str().unwrap();
    let telemetry = dir.join("telemetry.json");
    let template = String::from_utf8(lgg_sim(&["--template"]).stdout).unwrap();
    let with_telemetry = template.replacen(
        "\"steps\": 50000",
        &format!(
            "\"steps\": 10, \"telemetry\": {{\"kind\": \"jsonl\", \"path\": \"{unwritable}\"}}"
        ),
        1,
    );
    fs::write(&telemetry, with_telemetry).unwrap();
    let telemetry = telemetry.to_str().unwrap();
    let no_scenarios = dir.to_str().unwrap();
    for args in [
        vec!["trace", "--smoke", "--out", unwritable],
        vec!["bench", "--baseline", missing],
        vec!["sweep", "--smoke", "--scenarios", no_scenarios],
        vec![telemetry],
    ] {
        assert_eq!(lgg_sim(&args).status.code(), Some(4), "{args:?}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_errors_exit_1_and_invalid_flag_combinations_exit_2() {
    for args in [
        &["run", "x.json", "--steps", "x"][..],
        &["run"],
        &["trace"],
        &["chaos", "--trials", "0"],
    ] {
        assert_eq!(lgg_sim(args).status.code(), Some(1), "{args:?}");
    }
    // Checked before the scenario file is read.
    let out = lgg_sim(&["run", "x.json", "--guard-dump", "d"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("require --guard"));
}

#[test]
fn trace_out_writes_the_bytes_run_trace_writes() {
    let dir = scratch("trace-eq");
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/lossy_sensor_field.json"
    );
    let traced = dir.join("trace.jsonl");
    let run = dir.join("run.jsonl");
    let flags = ["--steps", "2000", "--sample-every", "3"];
    let out = lgg_sim(
        &[
            &["trace", scenario, "--out", traced.to_str().unwrap()][..],
            &flags,
        ]
        .concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = lgg_sim(
        &[
            &["run", scenario, "--trace", run.to_str().unwrap()][..],
            &flags,
        ]
        .concat(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let traced = fs::read(&traced).unwrap();
    assert!(traced.len() > 1000);
    assert_eq!(traced, fs::read(&run).unwrap());
    fs::remove_dir_all(&dir).unwrap();
}
