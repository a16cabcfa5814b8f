//! `lgg-sim sweep`: fan a parameter grid across the in-tree work-stealing
//! pool and record serial-vs-parallel wall-clock numbers.
//!
//! The grid is scenario × seed × injection rate × engine mode. Every item
//! is an independent simulation carrying its own master seed, so the sweep
//! is embarrassingly parallel *and* deterministic by construction: the
//! pool only decides which worker runs which item, never what any item
//! computes, and results are collected in input order. The command runs
//! the whole grid twice — pinned to one thread, then across
//! [`parpool::max_threads`] workers — and refuses to report timings unless
//! the two result vectors (condensed into an FNV-1a digest) are
//! byte-identical. The digest doubles as the regression witness used by
//! the cross-thread-count determinism test and CI.
//!
//! Timings land in the `sweep` section of `BENCH_throughput.json`,
//! alongside (and preserving) the overhead sections from `lgg-sim bench`.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::bench::{synthetic_cases, BenchReport};
use crate::{EngineSpec, InjectionSpec, Scenario, LggError, SimOverrides};
use simqueue::checkpoint::fnv1a;
use simqueue::{HistoryMode, NoopObserver};

/// One grid point: a scenario under a specific seed, rate and engine.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepItem {
    /// Suite-stable scenario name.
    pub scenario: String,
    /// Master seed for this run.
    pub seed: u64,
    /// Injection scaling `num/den` applied to every source rate.
    pub rate: String,
    /// Engine mode (kebab-case, as in scenario files).
    pub engine: EngineSpec,
    /// Steps simulated.
    pub steps: u64,
}

/// The observable outcome of one grid point — enough state to witness
/// any divergence (queue trajectory divergences always reach one of
/// these aggregates within a few steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Packets delivered at sinks.
    pub delivered: u64,
    /// Packets sent across links.
    pub sent: u64,
    /// Packets lost in flight.
    pub lost: u64,
    /// Peak total queue mass over the run.
    pub sup_total: u64,
    /// FNV-1a hash of the final queue vector.
    pub queue_fnv: u64,
}

/// The `sweep` section of `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SweepReport {
    /// Worker threads used for the parallel leg.
    pub threads: usize,
    /// Grid size (number of independent simulations per leg).
    pub items: usize,
    /// Wall-clock seconds for the one-thread leg.
    pub serial_secs: f64,
    /// Wall-clock seconds for the `threads`-worker leg.
    pub parallel_secs: f64,
    /// `serial_secs / parallel_secs`.
    pub speedup: f64,
    /// `speedup / threads` — 1.0 is perfect scaling.
    pub per_core_efficiency: f64,
    /// FNV-1a digest over every item outcome in input order; identical
    /// across thread counts by construction (verified on every run).
    pub digest: String,
    /// The grid, in input order.
    pub grid: Vec<SweepItem>,
}

/// Sweep invocation parameters (`lgg-sim sweep` flags).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Divide step counts by 10 (CI smoke runs).
    pub smoke: bool,
    /// Directory holding the `scenarios/` corpus.
    pub scenario_dir: String,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            smoke: false,
            scenario_dir: "scenarios".into(),
        }
    }
}

/// Builds the parameter grid: scenario × seed × rate × engine.
fn build_grid(cfg: &SweepConfig) -> Result<Vec<(SweepItem, Scenario)>, LggError> {
    // Two synthetic suite scenarios with opposite density profiles (the
    // steady grid is sparse-friendly, the oversubscribed random graph is
    // dense), plus one file-backed scenario exercising the declaration
    // and loss machinery.
    let mut scenarios = synthetic_cases();
    let dumbbell = Scenario::from_file(&format!("{}/saturated_dumbbell.json", cfg.scenario_dir))?;
    scenarios.push(("saturated-dumbbell".into(), dumbbell));

    let steps_for = |name: &str| -> u64 {
        let full = match name {
            "grid-16x16-steady" => 3_000,
            "random-512-dense" => 400,
            _ => 2_000,
        };
        if cfg.smoke {
            full / 10
        } else {
            full
        }
    };

    let engines = [EngineSpec::Auto, EngineSpec::SparseActive, EngineSpec::DenseReference];
    let mut grid = Vec::new();
    for (name, base) in &scenarios {
        for seed in [1u64, 2] {
            for (num, den) in [(1u64, 1u64), (1, 2)] {
                for engine in engines {
                    let steps = steps_for(name);
                    let sc = Scenario {
                        seed,
                        injection: InjectionSpec::Scaled { num, den },
                        engine,
                        steps,
                        ..base.clone()
                    };
                    grid.push((
                        SweepItem {
                            scenario: name.clone(),
                            seed,
                            rate: format!("{num}/{den}"),
                            engine,
                            steps,
                        },
                        sc,
                    ));
                }
            }
        }
    }
    Ok(grid)
}

/// Runs one grid point to completion and condenses the outcome.
fn run_item(item: &SweepItem, sc: &Scenario) -> Result<SweepOutcome, LggError> {
    let mut sim = sc.build_with_observer(
        SimOverrides {
            history: Some(HistoryMode::None),
            ..SimOverrides::default()
        },
        NoopObserver,
    )?;
    sim.run(item.steps);
    let m = sim.metrics();
    let queue_bytes: Vec<u8> = sim.queues().iter().flat_map(|q| q.to_le_bytes()).collect();
    let queue_fnv = fnv1a(&queue_bytes);
    Ok(SweepOutcome {
        delivered: m.delivered,
        sent: m.sent,
        lost: m.lost,
        sup_total: m.sup_total,
        queue_fnv,
    })
}

/// Runs the whole grid once across the current pool configuration,
/// returning outcomes in input order.
fn run_grid(grid: &[(SweepItem, Scenario)]) -> Result<Vec<SweepOutcome>, LggError> {
    parpool::run_ordered(grid.iter().collect(), |(item, sc)| run_item(item, sc))
        .into_iter()
        .collect()
}

/// Condenses an outcome vector into a printable FNV-1a digest.
pub fn digest_outcomes(outcomes: &[SweepOutcome]) -> String {
    let bytes: Vec<u8> = outcomes
        .iter()
        .flat_map(|o| [o.delivered, o.sent, o.lost, o.sup_total, o.queue_fnv])
        .flat_map(u64::to_le_bytes)
        .collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// Runs the sweep grid once under the *current* pool configuration and
/// returns its digest. The determinism test calls this under different
/// `LGG_THREADS` settings and compares digests across processes.
pub fn sweep_digest(cfg: &SweepConfig) -> Result<String, LggError> {
    let grid = build_grid(cfg)?;
    let outcomes = run_grid(&grid)?;
    Ok(digest_outcomes(&outcomes))
}

fn round(x: f64, decimals: i32) -> f64 {
    let f = 10f64.powi(decimals);
    (x * f).round() / f
}

/// Runs the full sweep: one-thread leg, parallel leg, equality check,
/// wall-clock report.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, LggError> {
    let grid = build_grid(cfg)?;
    let items = grid.len();

    eprintln!("sweep: {items} items, serial leg (1 thread)...");
    parpool::set_thread_override(Some(1));
    let t = Instant::now();
    let serial = run_grid(&grid);
    let serial_secs = t.elapsed().as_secs_f64();
    parpool::set_thread_override(None);
    let serial = serial?;

    let threads = parpool::max_threads();
    eprintln!("sweep: parallel leg ({threads} threads)...");
    let t = Instant::now();
    let parallel = run_grid(&grid);
    let parallel_secs = t.elapsed().as_secs_f64();
    let parallel = parallel?;

    if serial != parallel {
        let first = serial
            .iter()
            .zip(&parallel)
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Err(LggError::scenario(format!(
            "sweep results diverged between 1 and {threads} threads \
             (first at item {first}: {:?}); determinism is broken",
            grid[first].0
        )));
    }

    let speedup = serial_secs / parallel_secs.max(1e-9);
    Ok(SweepReport {
        threads,
        items,
        serial_secs: round(serial_secs, 3),
        parallel_secs: round(parallel_secs, 3),
        speedup: round(speedup, 2),
        per_core_efficiency: round(speedup / threads as f64, 2),
        digest: digest_outcomes(&serial),
        grid: grid.into_iter().map(|(item, _)| item).collect(),
    })
}

/// Installs `report` as the `sweep` section of the bench file at `path`,
/// preserving its `observer` and `guard` sections; creates a file
/// without them when none exists yet.
pub fn write_sweep_into_bench(path: &str, report: SweepReport) -> Result<(), LggError> {
    // An absent or empty file (e.g. `--out "$(mktemp)"`) starts fresh; a
    // non-empty file that fails to parse is an error, so a corrupted bench
    // baseline is never silently clobbered.
    let fresh = || BenchReport {
        generated_by: "lgg-sim sweep (no overhead legs yet; run `lgg-sim bench`)".into(),
        sweep: None,
        observer: None,
        guard: None,
    };
    let mut bench: BenchReport = match std::fs::read_to_string(path) {
        Ok(text) if text.trim().is_empty() => fresh(),
        Ok(text) => serde_json::from_str(&text).map_err(|e| {
            LggError::scenario(format!("{path} exists but does not parse: {e}"))
        })?,
        Err(_) => fresh(),
    };
    bench.sweep = Some(report);
    let json = serde_json::to_string_pretty(&bench)
        .map_err(|e| LggError::scenario(format!("serialize: {e}")))?;
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| LggError::io(format!("cannot write {path}"), e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_dir() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios").to_string()
    }

    fn smoke_cfg() -> SweepConfig {
        SweepConfig {
            smoke: true,
            scenario_dir: scenario_dir(),
        }
    }

    #[test]
    fn grid_covers_all_dimensions() {
        let grid = build_grid(&smoke_cfg()).unwrap();
        // 3 scenarios x 2 seeds x 2 rates x 3 engines.
        assert_eq!(grid.len(), 36);
        let scenarios: std::collections::BTreeSet<_> =
            grid.iter().map(|(i, _)| i.scenario.clone()).collect();
        assert_eq!(scenarios.len(), 3);
        let engines: std::collections::BTreeSet<_> =
            grid.iter().map(|(i, _)| format!("{:?}", i.engine)).collect();
        assert_eq!(engines.len(), 3);
    }

    #[test]
    fn smoke_sweep_is_deterministic_and_reports() {
        let report = run_sweep(&smoke_cfg()).unwrap();
        assert_eq!(report.items, 36);
        assert_eq!(report.grid.len(), 36);
        assert!(report.serial_secs > 0.0);
        assert!(report.parallel_secs > 0.0);
        assert!(report.threads >= 1);
        // The digest `lgg-sim sweep --smoke` prints, pinned.
        assert_eq!(report.digest, "772da3ec771db265");
        // Digest is reproducible across whole-grid reruns.
        assert_eq!(report.digest, sweep_digest(&smoke_cfg()).unwrap());
    }

    #[test]
    fn sweep_section_round_trips_through_bench_file() {
        let report = SweepReport {
            threads: 4,
            items: 2,
            serial_secs: 1.0,
            parallel_secs: 0.5,
            speedup: 2.0,
            per_core_efficiency: 0.5,
            digest: "00ff00ff00ff00ff".into(),
            grid: vec![SweepItem {
                scenario: "grid-16x16-steady".into(),
                seed: 1,
                rate: "1/2".into(),
                engine: EngineSpec::Auto,
                steps: 300,
            }],
        };
        let dir = std::env::temp_dir().join("lgg-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        write_sweep_into_bench(path, report.clone()).unwrap();
        let back: BenchReport =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back.sweep, Some(report.clone()));
        assert!(back.observer.is_none());
        // A second write replaces the sweep section.
        write_sweep_into_bench(path, report.clone()).unwrap();
        let back2: BenchReport =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(back2.sweep, Some(report.clone()));
        // An existing empty file (mktemp) counts as absent, not corrupt...
        std::fs::write(path, "").unwrap();
        write_sweep_into_bench(path, report.clone()).unwrap();
        // ...but a non-empty unparseable one is an error.
        std::fs::write(path, "{ not json").unwrap();
        assert!(write_sweep_into_bench(path, report).is_err());
    }
}
