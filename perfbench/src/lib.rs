//! The repository benchmark: four workloads that drive the library crates
//! through their public functions, end-to-end metrics from untraced runs,
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod jobs;
pub mod layers;
pub mod probe;
pub mod report;
pub mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use jobs::{Rep, ScratchFiles};
use layers::Spans;
use report::{percentile, Acc, END_TO_END, PER_LAYER};
use workloads::{Size, Workload};

/// Digests recorded by `--record`, one per workload input variant.
const EXPECTED: &str = include_str!("../expected.json");

/// Where runs keep scratch files and span logs, relative to the
/// directory the benchmark runs in (the root of a checkout).
pub const WORK_ROOT: &str = ".bench_work";

/// What one benchmark run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Unscaled values, reported alongside for provenance.
    pub raw: Vec<(&'static str, &'static str, f64)>,
}

/// The recorded digest of `w`'s input `variant`.
pub fn expected_digest(w: Workload, variant: u64) -> Option<String> {
    let doc = serde_json::from_str_value(EXPECTED).ok()?;
    let entry = serde::value_lookup(doc.as_object()?, w.name())?.as_object()?;
    let digests = serde::value_lookup(entry, "digests")?.as_array()?;
    digests
        .get(usize::try_from(variant).ok()?)?
        .as_str()
        .map(String::from)
}

/// A per-run scratch directory under [`WORK_ROOT`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One untraced repetition of `w`.
pub fn untraced_rep(
    w: Workload,
    variant: u64,
    size: Size,
    files: &ScratchFiles,
) -> Result<Rep, String> {
    match w {
        Workload::LggGradient | Workload::SparseDrain => jobs::plain_rep(
            &w.scenario_json(variant, size).expect("single run"),
            size.steps,
        ),
        Workload::GuardedRun => jobs::guarded_rep(
            &w.scenario_json(variant, size).expect("single run"),
            size,
            files,
        ),
        Workload::ChaosCampaign => jobs::chaos_rep(variant, size, &files.chaos),
    }
}

/// Operation counts of a run.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts `rep`; a digest mismatch fails the run (every trial, for a
    /// campaign, since the digest covers them all).
    fn rep(&mut self, w: Workload, rep: &Rep, expected: &str) {
        let mut failed = rep.failed;
        if rep.digest != expected {
            eprintln!(
                "perfbench: {} digest mismatch: got {}, expected {expected}",
                w.name(),
                rep.digest
            );
            failed = if w == Workload::ChaosCampaign {
                rep.attempted
            } else {
                failed + 1
            };
        }
        self.attempted += rep.attempted;
        self.failed += failed.min(rep.attempted);
    }

    /// Counts one operation that produced `digest` (or an error).
    fn check(&mut self, what: &str, digest: Result<&str, &str>, expected: &str) {
        self.attempted += 1;
        match digest {
            Ok(d) if d == expected => {}
            Ok(d) => {
                eprintln!("perfbench: {what} digest mismatch: got {d}, expected {expected}");
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("perfbench: {what}: {e}");
                self.failed += 1;
            }
        }
    }

    fn error(&mut self, e: &str) {
        eprintln!("perfbench: {e}");
        self.attempted += 1;
        self.failed += 1;
    }
}

/// Runs `w` untraced for `seconds` and reports the end-to-end metrics:
/// medians over the repetitions, each repetition's times scaled to the
/// reference host by its probe factor (see [`probe`]). The unscaled
/// medians and the probe time are returned as `raw`.
pub fn measure(w: Workload, seed: u64, seconds: f64, size: Size) -> Result<Outcome, String> {
    let variant = seed % w.variants();
    let expected =
        expected_digest(w, variant).ok_or("expected.json has no digest for this input")?;
    let dir = WorkDir::new(w)?;
    let files = ScratchFiles::new(&dir.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Ops::default();
    let mut acc = Acc::default();
    let mut raw = Acc::default();
    loop {
        match untraced_rep(w, variant, size, &files) {
            Ok(rep) => {
                ops.rep(w, &rep, &expected);
                for (acc, f) in [(&mut acc, rep.probe.factor()), (&mut raw, 1.0)] {
                    let setup: Vec<f64> = rep.setup_s.iter().map(|s| s * f).collect();
                    acc.pool("setup_s", &setup);
                    acc.add("steps_per_s", rep.steps as f64 / (rep.step_s * f));
                    acc.add("wall_s", rep.wall_s * f);
                    acc.add("trials_per_s", rep.jobs as f64 / (rep.wall_s * f));
                }
                let ms = |xs: &[f64]| xs.iter().map(|s| s * 1e3).collect::<Vec<_>>();
                raw.pool("probe_ms", &ms(&rep.probe.samples));
            }
            Err(e) => ops.error(&e),
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let rss = report::peak_rss_mb();
    let value = |acc: &Acc, name: &str| {
        if name == "peak_rss_mb" {
            rss
        } else {
            acc.median(name)
        }
    };
    Ok(Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, value(&acc, n)))
            .collect(),
        raw: END_TO_END
            .iter()
            .map(|&(n, u)| (n, u, value(&raw, n)))
            .chain([("probe_ms", "ms", raw.median("probe_ms"))])
            .collect(),
    })
}

/// Runs `w` traced for `seconds`: each round is one untraced repetition
/// (the tracing-overhead reference), one traced repetition, and for the
/// guarded run two more without the guard and without any observer, whose
/// differences give the guard's and the trace sink's cost. Writes the
/// span log to `spans_path` and reports the per-layer metrics.
pub fn trace(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let variant = seed % w.variants();
    let expected =
        expected_digest(w, variant).ok_or("expected.json has no digest for this input")?;
    let dir = WorkDir::new(w)?;
    let files = ScratchFiles::new(&dir.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ops = Ops::default();
    let mut acc = Acc::default();
    let mut spans = Spans::default();
    loop {
        // The round's untraced campaign report, which the traced campaign
        // must agree with.
        let mut campaign = None;
        match untraced_rep(w, variant, size, &files) {
            Ok(rep) => {
                ops.rep(w, &rep, &expected);
                acc.add(
                    "bench.untraced_steps_per_s",
                    rep.steps as f64 / (rep.step_s * rep.probe.factor()),
                );
                campaign = rep.campaign;
            }
            Err(e) => ops.error(&e),
        }
        spans.open("traced");
        if w == Workload::ChaosCampaign {
            let traced = jobs::traced_chaos(variant, size, &mut spans, &mut acc);
            let agrees = campaign.as_ref().is_some_and(|r| traced.agrees_with(r));
            if !agrees {
                eprintln!(
                    "perfbench: traced campaign {:?} differs from the campaign runner's",
                    traced.tally
                );
            }
            ops.attempted += size.trials as u64;
            ops.failed += if agrees {
                traced.failed() as u64
            } else {
                size.trials as u64
            };
        } else if w == Workload::GuardedRun {
            let json = w.scenario_json(variant, size).expect("single run");
            match jobs::traced_guarded(&json, size, &files, &mut spans, &mut acc) {
                Ok(g) => {
                    ops.check("traced run", Ok(&g.full), &expected);
                    ops.check("traced restore", Ok(&g.restored), &expected);
                    ops.check("run without guard", Ok(&g.sink_only), &expected);
                    ops.check("run without observer", Ok(&g.bare), &expected);
                }
                Err(e) => ops.check("traced run", Err(&e), &expected),
            }
        } else {
            let json = w.scenario_json(variant, size).expect("single run");
            let digest = jobs::traced_plain(&json, size, &mut spans, &mut acc);
            ops.check(
                "traced run",
                digest.as_deref().map_err(String::as_str),
                &expected,
            );
        }
        spans.close();
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(parent) = spans_path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    fs::write(spans_path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    Ok(Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: per_layer(w, &acc),
        raw: Vec::new(),
    })
}

/// Resolves every [`PER_LAYER`] metric from a traced run's samples.
pub fn per_layer(w: Workload, acc: &Acc) -> Vec<(&'static str, &'static str, f64)> {
    let step = acc.median("simqueue.step_s");
    // Costs of layers only counted per call are differences between runs
    // with and without the layer. The per-call layers are timed in the run
    // without any of them, so the self times below add up to `step` by
    // construction; the self-test checks the parts instead.
    let (bare, guard_s, observe_s) = match w {
        Workload::GuardedRun => {
            let sink = acc.median("diff.sink.simqueue.step_s");
            let bare = acc.median("diff.bare.simqueue.step_s");
            ("diff.bare.", step - sink, sink - bare)
        }
        Workload::ChaosCampaign => {
            let unguarded = acc.median("diff.unguarded.simqueue.step_s");
            ("diff.unguarded.", step - unguarded, 0.0)
        }
        _ => ("", 0.0, 0.0),
    };
    let timed = |name: &str| acc.median(&format!("{bare}{name}"));
    let (plan_s, loss_s, topology_s) = (
        timed("core.plan_s"),
        timed("simqueue.loss_s"),
        timed("simqueue.topology_s"),
    );
    let engine_self_s = timed("simqueue.step_s") - plan_s - loss_s - topology_s;
    let traced_sps = acc.median("simqueue.steps") / acc.median("bench.traced_step_wall_s");
    let untraced_sps = acc.median("bench.untraced_steps_per_s");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let pooled = |base: &str| acc.samples(base);
            let value = match name {
                "simqueue.engine_self_s" => engine_self_s,
                "core.plan_s" => plan_s,
                "simqueue.loss_s" => loss_s,
                "simqueue.topology_s" => topology_s,
                "guard.s" => guard_s,
                "trace.observe_s" => observe_s,
                "trace.jsonl_mb_per_s" if observe_s > 0.0 => {
                    acc.median("trace.jsonl_bytes") / 1e6 / observe_s
                }
                "trace.jsonl_mb_per_s" => 0.0,
                "simqueue.chunk_samples" => pooled("simqueue.chunk_ms").len() as f64,
                "checkpoint.write_samples" => pooled("checkpoint.write_ms").len() as f64,
                "parpool.trial_samples" => pooled("parpool.trial_ms").len() as f64,
                "bench.traced_steps_per_s" => traced_sps,
                "bench.untraced_steps_per_s" => untraced_sps,
                "bench.traced_vs_untraced" => jobs::ratio_f(traced_sps, untraced_sps),
                _ => match name.rsplit_once('_') {
                    Some((base, "p50")) => percentile(pooled(base), 0.50),
                    Some((base, "p99")) => percentile(pooled(base), 0.99),
                    _ => acc.median(name),
                },
            };
            (name, unit, value)
        })
        .collect()
}

/// Runs every input variant of every workload once and returns the
/// `expected.json` document recording their digests.
pub fn record() -> Result<String, String> {
    let mut out = String::from("{\n");
    for (k, w) in Workload::ALL.into_iter().enumerate() {
        let dir = WorkDir::new(w)?;
        let files = ScratchFiles::new(&dir.0);
        let mut digests = Vec::new();
        for variant in 0..w.variants() {
            let rep = untraced_rep(w, variant, w.full_size(), &files)?;
            if rep.failed > 0 {
                return Err(format!(
                    "{} variant {variant}: {} failed operations",
                    w.name(),
                    rep.failed
                ));
            }
            eprintln!("perfbench: {} variant {variant}: {}", w.name(), rep.digest);
            if let Some(r) = &rep.campaign {
                eprintln!(
                    "perfbench: {} trials: {} clean, {} stopped by the budget",
                    r.trials, r.clean, r.budget
                );
            }
            digests.push(format!("      {}", report::json_str(&rep.digest)));
        }
        out.push_str(&format!(
            "  {}: {{\n    \"heldout_seed\": {},\n    \"digests\": [\n{}\n    ]\n  }}{}\n",
            report::json_str(w.name()),
            w.heldout_seed(),
            digests.join(",\n"),
            if k + 1 < Workload::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    Ok(out)
}
