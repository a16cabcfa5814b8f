//! The benchmark's self-test, on short versions of every workload:
//! tracing must not change what is simulated, the timed layers must fit in
//! the step time of their run, the layers costed by difference must not
//! read below zero, the traced campaign must agree with `lgg-sim chaos`'s
//! runner, and the metric tables must match `BENCHMARK.json` and the
//! README.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::path::{Path, PathBuf};

use perfbench::jobs::{self, ScratchFiles};
use perfbench::layers::Spans;
use perfbench::report::{Acc, END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn value(layers: &[(&str, &str, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|l| l.0 == name)
        .expect("metric present")
        .2
}

#[test]
fn traced_runs_simulate_what_untraced_runs_do() {
    for w in [
        Workload::LggGradient,
        Workload::SparseDrain,
        Workload::GuardedRun,
    ] {
        let size = w.short_size();
        let dir = scratch(w.name());
        let files = ScratchFiles::new(&dir);
        for variant in 0..w.variants().min(2) {
            let rep = perfbench::untraced_rep(w, variant, size, &files).expect("untraced run");
            assert_eq!(
                rep.failed,
                0,
                "{}: untraced run or restore failed",
                w.name()
            );
            let json = w.scenario_json(variant, size).expect("single run");
            let mut acc = Acc::default();
            let mut spans = Spans::default();
            if w == Workload::GuardedRun {
                let g = jobs::traced_guarded(&json, size, &files, &mut spans, &mut acc)
                    .expect("traced run");
                for (what, digest) in [
                    ("traced run", &g.full),
                    ("traced restore", &g.restored),
                    ("run without guard", &g.sink_only),
                    ("run without observer", &g.bare),
                ] {
                    assert_eq!(digest, &rep.digest, "{}: {what} diverged", w.name());
                }
            } else {
                let digest =
                    jobs::traced_plain(&json, size, &mut spans, &mut acc).expect("traced run");
                assert_eq!(digest, rep.digest, "{}: tracing changed the run", w.name());
            }
            let layers = perfbench::per_layer(w, &acc);
            let injected = rep
                .digest
                .split(' ')
                .find_map(|f| f.strip_prefix("injected="))
                .expect("digest field");
            assert_eq!(value(&layers, "sim.injected").to_string(), injected);
            assert_timed_layers_fit(w, &acc);
            assert_differenced_layers_cost(w, &layers);
        }
    }
}

/// The runs whose per-call layers are timed: the one traced run, or on
/// `guarded-run` each of the three lockstep runs (full job, without the
/// guard, without any observer).
fn timed_runs(w: Workload) -> &'static [&'static str] {
    if w == Workload::GuardedRun {
        &["", "diff.sink.", "diff.bare."]
    } else {
        &[""]
    }
}

/// On every repetition and every timed run, the time inside `plan`, the
/// loss model and the topology process fits in that run's step time.
fn assert_timed_layers_fit(w: Workload, acc: &Acc) {
    for prefix in timed_runs(w) {
        let samples = |name: &str| acc.samples(&format!("{prefix}{name}")).to_vec();
        let step = samples("simqueue.step_s");
        let parts = [
            samples("core.plan_s"),
            samples("simqueue.loss_s"),
            samples("simqueue.topology_s"),
        ];
        assert!(!step.is_empty(), "{}: no {prefix}step time", w.name());
        for (i, step) in step.iter().enumerate() {
            let timed: f64 = parts.iter().map(|p| p[i]).sum();
            assert!(
                timed <= *step,
                "{}: {prefix} repetition {i}: timed layers {timed} s exceed step time {step} s",
                w.name()
            );
        }
    }
}

/// Host noise allowed between runs that step in lockstep, as a share of
/// `simqueue.step_s`.
const LOCKSTEP_NOISE: f64 = 0.10;

/// The layers costed as differences between runs cost something: the run
/// with the guard steps no faster than the run without it, and that one no
/// faster than the run without any observer, within [`LOCKSTEP_NOISE`].
/// (`engine_self_s`, `guard.s` and `trace.observe_s` plus the timed layers
/// add up to `simqueue.step_s` by definition, so that sum checks nothing.)
fn assert_differenced_layers_cost(w: Workload, layers: &[(&str, &str, f64)]) {
    let step = value(layers, "simqueue.step_s");
    assert!(step > 0.0, "{}: no step time", w.name());
    for name in ["simqueue.engine_self_s", "guard.s", "trace.observe_s"] {
        let cost = value(layers, name);
        assert!(
            cost >= -LOCKSTEP_NOISE * step,
            "{}: {name} = {cost} s is below zero by more than noise (step time {step} s)",
            w.name()
        );
    }
}

#[test]
fn traced_campaign_agrees_with_the_campaign_runner() {
    let w = Workload::ChaosCampaign;
    let size = w.short_size();
    let seed = 3;
    let files = ScratchFiles::new(&scratch("chaos"));
    let untraced = perfbench::untraced_rep(w, seed, size, &files).expect("campaign runs");
    assert_eq!(untraced.failed, 0);
    let report = untraced.campaign.expect("campaign report");
    assert_eq!(report.clean, size.trials, "every short trial runs clean");
    let mut acc = Acc::default();
    let mut spans = Spans::default();
    let traced = jobs::traced_chaos(seed, size, &mut spans, &mut acc);
    assert!(
        traced.agrees_with(&report),
        "traced outcomes {:?} differ from run_chaos's",
        traced.tally
    );
    assert_eq!(traced.perturbed, 0, "the guard or counter changed a trial");
    let layers = perfbench::per_layer(w, &acc);
    assert_eq!(
        value(&layers, "simqueue.steps") as u64,
        untraced.steps,
        "traced and untraced campaigns ran different step counts"
    );
    assert_differenced_layers_cost(w, &layers);
    assert!(value(&layers, "parpool.utilization") > 0.0);
    assert_eq!(
        value(&layers, "parpool.trial_samples") as usize,
        size.trials
    );
}

#[test]
fn every_input_has_a_recorded_digest() {
    for w in Workload::ALL {
        for variant in 0..w.variants() {
            assert!(
                perfbench::expected_digest(w, variant).is_some(),
                "{} variant {variant}",
                w.name()
            );
        }
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory");
    let doc = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    let list = serde::value_lookup(doc.as_object().expect("object"), key).expect(key);
    list.as_array()
        .expect("array")
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric object");
            let field = |k| {
                serde::value_lookup(m, k)
                    .and_then(|v| v.as_str())
                    .expect(k)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json_and_readme() {
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(benchmark_metrics("end_to_end"), own(END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), own(PER_LAYER));
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("README");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            readme.contains(&format!("`{name}` | {unit}")),
            "README lacks {name} ({unit})"
        );
    }
}
