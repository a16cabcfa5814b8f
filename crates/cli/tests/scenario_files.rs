//! Every checked-in scenario file must parse, classify and run.

use std::fs;

use lgg_cli::{capture_trace, run_scenario, run_with_checkpoints, RunConfig, Scenario};
use simqueue::StabilityVerdict;

fn scenarios_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[test]
fn all_checked_in_scenarios_parse_and_run() {
    let dir = scenarios_dir();
    let mut found = 0;
    for entry in fs::read_dir(&dir).expect("scenarios dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        found += 1;
        let text = fs::read_to_string(&path).unwrap();
        let mut scenario =
            Scenario::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        // Shrink for the test: the files ship with full-length runs.
        scenario.steps = 3000;
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        assert!(report.metrics.steps == 3000, "{path:?}");
        assert_ne!(
            report.stability.verdict,
            StabilityVerdict::Diverging,
            "{path:?} diverged: these showcase scenarios are all feasible-loaded"
        );
    }
    assert!(found >= 4, "expected the shipped scenario files, found {found}");
}

/// The `--template` scenario at source rate 2^62 over 20 steps used to
/// wrap its packet counters silently: `run --guard` reported `injected 0`
/// and `guard: clean`. It must be rejected as a scenario error (exit 2),
/// both as written and when `--steps` stretches a horizon that fits.
#[test]
fn rate_times_horizon_overflow_is_rejected_by_run_and_trace() {
    let json = r#"{
        "topology": {"kind": "dumbbell", "clique": 4, "bridge": 2},
        "sources": [{"node": 0, "rate": 4611686018427387904}],
        "sinks":   [{"node": 9, "rate": 4}],
        "generalized": [],
        "retention": 0,
        "protocol": "lgg",
        "injection": {"kind": "exact"},
        "loss": {"kind": "none"},
        "dynamics": {"kind": "static"},
        "declaration": "truthful",
        "extraction": "max",
        "steps": 20,
        "seed": 7,
        "track_ages": false
    }"#;
    let dir = std::env::temp_dir().join(format!("lgg-overflow-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let overflowing = dir.join("overflow.json");
    fs::write(&overflowing, json).unwrap();
    let fitting = dir.join("fits.json");
    fs::write(&fitting, json.replace("\"steps\": 20", "\"steps\": 3")).unwrap();

    let run = |path: &std::path::Path, steps: Option<u64>| {
        run_with_checkpoints(&RunConfig {
            scenario_path: path.to_str().unwrap().into(),
            steps,
            guard: true,
            ..RunConfig::default()
        })
    };
    for (path, steps) in [(&overflowing, None), (&fitting, Some(20))] {
        let err = run(path, steps).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("rate × horizon overflow"), "{err}");
    }
    // The same horizon override through `lgg-sim trace --steps`.
    let sc = Scenario::from_json(&fs::read_to_string(&fitting).unwrap()).unwrap();
    let err = capture_trace(&sc, 20, 1).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");
    fs::remove_dir_all(&dir).unwrap();
}
