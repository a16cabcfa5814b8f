//! `lgg-sim run`: checkpointed, resumable scenario execution.
//!
//! The paper's stability question only shows up over very long horizons —
//! a billion-step run that dies at step 900 million must not start over.
//! This subcommand wires [`simqueue::checkpoint`] into the scenario
//! runner: `--checkpoint-every N --checkpoint-dir D` snapshots the
//! complete simulation state crash-safely, and `--resume` picks the run
//! back up from the newest readable snapshot.
//!
//! Resume is *bit-for-bit*: the resumed run produces the same queues,
//! metrics, RNG draws and trace bytes as the uninterrupted one. For
//! `--trace` files that guarantee is kept by recording the flushed byte
//! count inside the snapshot and truncating the artifact back to it on
//! resume — any partially-written tail from the crash is cut off and
//! regenerated identically.
//!
//! `--kill-after K` exists for the crash-recovery smoke test: it runs to
//! step `K` and dies via `abort()` — no destructors, no buffer flushes —
//! the most faithful stand-in for a power cut that a process can produce.

use simqueue::{GuardOutcome, GuardReport, LggError};

use crate::chaos::{write_reproducer, Reproducer};
use crate::driver::{drive, trace_file};
use crate::{RunConfig, Scenario};

/// What a completed `lgg-sim run` reports.
#[derive(Debug)]
pub struct RunSummary {
    /// Final step count.
    pub steps: u64,
    /// The snapshot step the run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Total packets injected (across the whole run, resumes included).
    pub injected: u64,
    /// Total packets delivered.
    pub delivered: u64,
    /// Total packets lost in transit.
    pub lost: u64,
    /// Final network state `P_t = Σ q²`.
    pub final_pt: u128,
    /// Supremum of `P_t` over the run.
    pub sup_pt: u128,
}

impl RunSummary {
    /// One-line human rendering.
    pub fn human(&self) -> String {
        let resumed = match self.resumed_from {
            Some(t) => format!(" (resumed from step {t})"),
            None => String::new(),
        };
        format!(
            "run: {} steps{}  injected {}  delivered {}  lost {}  P_t {}  sup P_t {}",
            self.steps,
            resumed,
            self.injected,
            self.delivered,
            self.lost,
            self.final_pt,
            self.sup_pt
        )
    }
}

/// Executes `cfg`: build (or resume) the scenario simulation, run it to
/// the target step with periodic crash-safe snapshots, and summarize.
/// Under `--guard` a violation dumps a reproducer (replayable via
/// `lgg-sim chaos --replay`) plus a checkpoint into the dump dir and
/// surfaces as [`LggError::InvariantViolation`] — exit code 9.
pub fn run_with_checkpoints(cfg: &RunConfig) -> Result<RunSummary, LggError> {
    cfg.validate()?;
    let sc = Scenario::from_file(&cfg.scenario_path)?;
    let done = match &cfg.trace {
        Some(path) => drive(&sc, cfg, || trace_file(path, cfg.sample_stride))?.0,
        None => drive(&sc, cfg, || sc.telemetry.build())?.0,
    };
    if let Some(report) = &done.guard {
        report_guard(&sc, cfg, report)?;
    }
    let m = &done.metrics;
    Ok(RunSummary {
        steps: done.steps,
        resumed_from: done.resumed_from,
        injected: m.injected,
        delivered: m.delivered,
        lost: m.lost,
        final_pt: done.final_pt,
        sup_pt: m.sup_pt,
    })
}

/// Prints how a guarded run ended; a violation also writes its
/// reproducer and becomes the error.
fn report_guard(sc: &Scenario, cfg: &RunConfig, report: &GuardReport) -> Result<(), LggError> {
    let dumped = || {
        if let Some(p) = &report.checkpoint {
            eprintln!("guard: state checkpoint dumped to {}", p.display());
        }
    };
    match &report.outcome {
        GuardOutcome::Completed => {
            eprintln!(
                "guard: clean after {} steps — online stability {:?}, sup total {}",
                report.steps, report.stability.verdict, report.stability.sup_total
            );
            Ok(())
        }
        GuardOutcome::BudgetExceeded(kind) => {
            eprintln!(
                "guard: {kind} budget exceeded at step {} — partial verdict {:?}, sup total {}",
                report.steps, report.stability.verdict, report.stability.sup_total
            );
            dumped();
            Ok(())
        }
        GuardOutcome::Violated(v) => {
            let repro = Reproducer {
                scenario: sc.clone(),
                seed: sc.seed,
                steps: (v.step + 1).min(cfg.target(sc)),
                fault: cfg.fault(),
                violation: v.clone(),
            };
            let path = write_reproducer(&cfg.guard_dump(), 0, &repro)?;
            eprintln!(
                "guard: INVARIANT VIOLATION at step {}: {}: {}",
                v.step, v.kind, v.detail
            );
            eprintln!(
                "guard: seed {}  reproducer {}  (replay: lgg-sim chaos --replay {})",
                sc.seed,
                path.display(),
                path.display()
            );
            dumped();
            Err(v.clone().into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn write_scenario(dir: &std::path::Path) -> String {
        let path = dir.join("sc.json");
        fs::write(
            &path,
            r#"{
                "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
                "sources": [{"node": 0, "rate": 1}],
                "sinks": [{"node": 8, "rate": 2}],
                "generalized": [{"node": 4, "in": 1, "out": 0}],
                "retention": 4,
                "declaration": "full-retention",
                "protocol": "lgg",
                "loss": {"kind": "iid", "p": 0.1},
                "steps": 400,
                "seed": 11
            }"#,
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn fresh_run_then_resume_is_byte_identical() {
        let base = std::env::temp_dir().join(format!("lgg_run_cmd_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);

        // Uninterrupted reference trace.
        let full_trace = base.join("full.jsonl");
        let summary = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path.clone(),
            trace: Some(full_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(summary.steps, 400);
        assert!(summary.resumed_from.is_none());

        // Two-part run: stop at 150 (checkpointed), then resume to 400.
        let part_trace = base.join("part.jsonl");
        let ckpt = base.join("ckpts");
        let first = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path.clone(),
            steps: Some(150),
            checkpoint_every: Some(60),
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            trace: Some(part_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(first.steps, 150);
        let second = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            steps: Some(400),
            checkpoint_every: Some(60),
            checkpoint_dir: Some(ckpt.to_string_lossy().into_owned()),
            resume: true,
            trace: Some(part_trace.to_string_lossy().into_owned()),
            sample_stride: 1,
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(second.resumed_from, Some(150));
        assert_eq!(second.steps, 400);
        assert_eq!(second.injected, summary.injected);
        assert_eq!(second.sup_pt, summary.sup_pt);

        let a = fs::read(&full_trace).unwrap();
        let b = fs::read(&part_trace).unwrap();
        assert_eq!(a, b, "resumed trace must be byte-identical");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guarded_run_is_clean_on_a_correct_engine() {
        let base = std::env::temp_dir().join(format!("lgg_guard_clean_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);
        let summary = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            guard: true,
            guard_dump: Some(base.join("dump").to_string_lossy().into_owned()),
            ..RunConfig::default()
        })
        .unwrap();
        assert_eq!(summary.steps, 400);
        assert!(!base.join("dump").exists(), "clean run must dump nothing");
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guarded_run_with_planted_fault_exits_violation_and_dumps() {
        let base = std::env::temp_dir().join(format!("lgg_guard_fault_{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let sc_path = write_scenario(&base);
        let dump = base.join("dump");
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: sc_path,
            guard: true,
            guard_dump: Some(dump.to_string_lossy().into_owned()),
            inject_fault: Some(77),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.exit_code(), 9, "{err}");
        assert!(matches!(err, LggError::InvariantViolation { step: 77, .. }), "{err}");
        // The dump dir holds both the reproducer and a state checkpoint.
        let repro = dump.join("repro_conservation_t0.json");
        assert!(repro.exists(), "missing {}", repro.display());
        let parsed: Reproducer =
            serde_json::from_str(&fs::read_to_string(&repro).unwrap()).unwrap();
        assert_eq!(parsed.violation.step, 77);
        assert_eq!(parsed.steps, 78, "horizon tightened to violation + 1");
        assert!(
            fs::read_dir(&dump).unwrap().count() >= 2,
            "expected reproducer + checkpoint"
        );
        // And the reproducer replays to the same violation.
        let v = crate::replay_reproducer(repro.to_str().unwrap())
            .unwrap()
            .expect("reproducer must re-trigger");
        assert_eq!(v.step, 77);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn guard_flag_combinations_are_validated() {
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "x.json".into(),
            inject_fault: Some(5),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Scenario(_)), "{err}");
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "x.json".into(),
            guard: true,
            resume: true,
            checkpoint_dir: Some("d".into()),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Scenario(_)), "{err}");
    }

    #[test]
    fn checkpoint_flags_require_dir() {
        let err = run_with_checkpoints(&RunConfig {
            scenario_path: "does-not-matter.json".into(),
            checkpoint_every: Some(10),
            ..RunConfig::default()
        })
        .unwrap_err();
        assert!(matches!(err, LggError::Scenario(_)), "{err}");
    }
}
