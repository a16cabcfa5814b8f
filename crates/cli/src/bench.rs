//! `lgg-sim bench`: observer and invariant-guard overhead on the sparse
//! active-set engine ([`EngineMode::SparseActive`]), written to
//! `BENCH_throughput.json`, plus the 2% disabled-observer regression
//! gate (`--baseline`).
//!
//! Every leg runs the same fixed case, `grid-16x16-steady`: a single
//! source/sink pair on a 16×16 grid at a feasible rate, shortest-path
//! forwarding. Its steady state keeps only the packets in flight busy, so
//! the per-step cost is small and any per-event observer cost shows.
//! Each leg is run once untimed as warm-up, then `REPS` times; the
//! fastest repetition is reported (minimum-of-N is the usual noise filter
//! for throughput benches).
//!
//! Engine throughput per layer and end to end is measured by the
//! separate `perfbench` harness; the engine cases this command once ran
//! survive only as the historical `cases` key of the checked-in
//! `BENCH_throughput.json`, which the current schema ignores.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use simqueue::{
    EngineMode, GuardConfig, HistoryMode, InvariantGuard, RingRecorder, SimObserver, Simulation,
    WindowAggregator,
};

use crate::sweep::SweepReport;
use crate::{Endpoint, LggError, ProtocolSpec, Scenario, SimOverrides, TopologySpec};

/// Timed repetitions per leg; the fastest is reported. Five repetitions
/// because the min-of-N filter has to beat scheduler noise on shared
/// machines.
const REPS: usize = 5;

/// The case every overhead leg runs on.
const GATE_CASE: &str = "grid-16x16-steady";

/// Steps per timed repetition of every leg. The regression gate compares
/// these numbers against a recorded baseline, and a 2% bar is
/// meaningless on short runs.
const GATE_STEPS: u64 = 50_000;

/// Engine of every leg.
const GATE_ENGINE: EngineMode = EngineMode::SparseActive;

/// Throughput numbers for one leg.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct EngineThroughput {
    /// Simulation steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Nanoseconds per (node + edge) · step — a size-normalized cost that
    /// is comparable across topologies.
    pub ns_per_node_edge_step: f64,
}

/// The whole report, as serialized to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BenchReport {
    /// Provenance marker for the file.
    pub generated_by: String,
    /// Parallel sweep wall-clock numbers (`lgg-sim sweep`); absent until
    /// the first sweep run, preserved across `lgg-sim bench` rewrites.
    #[serde(default)]
    pub sweep: Option<SweepReport>,
    /// Observer-overhead numbers (disabled vs live observers); absent in
    /// files written only by `lgg-sim sweep`.
    #[serde(default)]
    pub observer: Option<ObserverBench>,
    /// Invariant-guard overhead numbers; absent in files written only by
    /// `lgg-sim sweep`.
    #[serde(default)]
    pub guard: Option<GuardBench>,
}

/// Invariant-guard overhead on one case: the unguarded production path
/// against a fully-checking [`simqueue::InvariantGuard`], same engine and
/// step count for both legs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GuardBench {
    /// Case the overhead is measured on.
    pub case: String,
    /// Engine mode used for both legs (kebab-case).
    pub engine: String,
    /// Steps per timed repetition.
    pub steps: u64,
    /// The unguarded production path (`Scenario::build`, telemetry off);
    /// the guard must cost nothing when it is not installed.
    pub off: EngineThroughput,
    /// All hard invariant checks live (conservation, link capacity,
    /// declaration legality) on a [`simqueue::NoopObserver`] inner.
    pub guarded: EngineThroughput,
    /// `guarded.steps_per_sec / off.steps_per_sec`.
    pub guarded_vs_off: f64,
}

/// Observer overhead on one case: the production disabled path against
/// two live observers, same engine and step count for all three legs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ObserverBench {
    /// Case the overhead is measured on.
    pub case: String,
    /// Engine mode used for every leg (kebab-case).
    pub engine: String,
    /// Steps per timed repetition.
    pub steps: u64,
    /// The production path of a default run: `Scenario::build` with the
    /// `telemetry` section off (dynamically dispatched disabled
    /// observer). This is the leg the 2% regression gate watches.
    pub off: EngineThroughput,
    /// In-memory [`RingRecorder`], capacity 4096 — every event crosses
    /// the observer boundary and most are retained.
    pub ring: EngineThroughput,
    /// [`WindowAggregator`] with window 256 — every event is folded into
    /// running aggregates (the experiments-driver configuration).
    pub window: EngineThroughput,
    /// `ring.steps_per_sec / off.steps_per_sec`.
    pub ring_vs_off: f64,
    /// `window.steps_per_sec / off.steps_per_sec`.
    pub window_vs_off: f64,
}

/// The two synthetic scenarios with opposite density profiles, by name:
/// `grid-16x16-steady` (the gate case; almost the whole grid is idle)
/// and `random-512-dense`, an oversubscribed random graph where backlogs
/// grow everywhere and the active set approaches all of `V`. Shared with
/// `lgg-sim sweep`.
pub(crate) fn synthetic_cases() -> Vec<(String, Scenario)> {
    let base = Scenario::from_json(
        r#"{"topology": {"kind": "path", "n": 2},
            "sources": [{"node": 0, "rate": 1}],
            "sinks": [{"node": 1, "rate": 1}],
            "protocol": "lgg"}"#,
    )
    .expect("static template parses");

    let grid16 = Scenario {
        topology: TopologySpec::Grid2d { rows: 16, cols: 16 },
        sources: vec![Endpoint { node: 0, rate: 1 }],
        sinks: vec![Endpoint { node: 255, rate: 2 }],
        protocol: ProtocolSpec::ShortestPath,
        seed: 1,
        ..base.clone()
    };
    // Oversubscribed: 64 spread sources feed one sink whose extraction
    // cannot keep up, so queues grow network-wide.
    let random512 = Scenario {
        topology: TopologySpec::ConnectedRandom {
            n: 512,
            extra: 1536,
            seed: 42,
        },
        sources: (0..64).map(|i| Endpoint { node: i * 8, rate: 1 }).collect(),
        sinks: vec![Endpoint { node: 511, rate: 64 }],
        protocol: ProtocolSpec::Lgg,
        seed: 1,
        ..base
    };
    vec![
        (GATE_CASE.into(), grid16),
        ("random-512-dense".into(), random512),
    ]
}

/// The overrides every timed leg runs with. `SimOverrides` owns a boxed
/// observer slot, so it is rebuilt per call rather than cloned.
fn bench_overrides() -> SimOverrides {
    SimOverrides {
        engine: Some(GATE_ENGINE),
        history: Some(HistoryMode::None),
        ..SimOverrides::default()
    }
}

fn round(x: f64, decimals: i32) -> f64 {
    let f = 10f64.powi(decimals);
    (x * f).round() / f
}

/// Times [`GATE_STEPS`] of a freshly built simulation: one untimed
/// warm-up run, then min-of-[`REPS`]. The build closure executes outside
/// the timed region, so observer construction cost never leaks into the
/// per-step numbers. `size` is the topology's node + edge count.
fn time_leg<O, F>(size: f64, build: F) -> Result<EngineThroughput, LggError>
where
    O: SimObserver,
    F: Fn() -> Result<Simulation<O>, LggError>,
{
    // Warm-up: populate caches and fault pages outside the measurement.
    let mut warm = build()?;
    warm.run(GATE_STEPS.min(1_000));

    let mut best_ns = f64::INFINITY;
    for _ in 0..REPS {
        let mut sim = build()?;
        let t = Instant::now();
        sim.run(GATE_STEPS);
        let ns = t.elapsed().as_nanos() as f64;
        // Consume a result so the run cannot be optimized away.
        std::hint::black_box(sim.metrics().sup_total);
        best_ns = best_ns.min(ns);
    }
    Ok(EngineThroughput {
        steps_per_sec: round(GATE_STEPS as f64 / (best_ns / 1e9), 1),
        ns_per_node_edge_step: round(best_ns / (GATE_STEPS as f64 * size), 3),
    })
}

/// The gate case's scenario and its node + edge count.
fn gate_case() -> Result<(Scenario, f64), LggError> {
    let (_, sc) = synthetic_cases()
        .into_iter()
        .next()
        .expect("the gate case comes first");
    let spec = sc.traffic_spec()?;
    let size = (spec.graph.node_count() + spec.graph.edge_count()) as f64;
    Ok((sc, size))
}

/// Measures observer overhead on the gate case. The disabled leg goes
/// through the production [`Scenario::build`] path (a
/// `Simulation<ScenarioObserver>` with `telemetry: off`), so the number
/// reflects what every default `lgg-sim` run actually pays for having
/// the telemetry subsystem compiled in — not an assumption about
/// dead-code elimination.
pub fn observer_bench() -> Result<ObserverBench, LggError> {
    let (sc, size) = gate_case()?;
    eprintln!(
        "bench: observer overhead on {GATE_CASE} ({GATE_STEPS} steps x{REPS} reps x3 observers)..."
    );
    let off = time_leg(size, || sc.build(bench_overrides()))?;
    let ring = time_leg(size, || {
        sc.build_with_observer(bench_overrides(), RingRecorder::new(4096))
    })?;
    let window = time_leg(size, || {
        sc.build_with_observer(bench_overrides(), WindowAggregator::new(256))
    })?;

    Ok(ObserverBench {
        case: GATE_CASE.into(),
        engine: "sparse-active".into(),
        steps: GATE_STEPS,
        off,
        ring,
        window,
        ring_vs_off: round(ring.steps_per_sec / off.steps_per_sec, 3),
        window_vs_off: round(window.steps_per_sec / off.steps_per_sec, 3),
    })
}

/// Measures invariant-guard overhead on the gate case: the unguarded
/// production build path against the same scenario with every hard check
/// live. The guard sees every per-step event (it wraps the observer
/// boundary before any thinning), so this is its worst-case honest price.
pub fn guard_bench() -> Result<GuardBench, LggError> {
    let (sc, size) = gate_case()?;
    eprintln!(
        "bench: guard overhead on {GATE_CASE} ({GATE_STEPS} steps x{REPS} reps x2 legs)..."
    );
    let off = time_leg(size, || sc.build(bench_overrides()))?;
    let guarded = time_leg(size, || {
        let guard = InvariantGuard::new(&sc.traffic_spec()?, GuardConfig::checks());
        sc.build_with_observer(bench_overrides(), guard)
    })?;

    Ok(GuardBench {
        case: GATE_CASE.into(),
        engine: "sparse-active".into(),
        steps: GATE_STEPS,
        off,
        guarded,
        guarded_vs_off: round(guarded.steps_per_sec / off.steps_per_sec, 3),
    })
}

/// CI gate: errors when the disabled-observer throughput in `report`
/// falls more than 2% below the baseline file's own `observer.off` leg.
pub fn check_observer_baseline(
    report: &BenchReport,
    baseline: &BenchReport,
) -> Result<(), LggError> {
    let current = report
        .observer
        .as_ref()
        .ok_or_else(|| LggError::scenario("report has no observer bench section"))?;
    let reference = baseline
        .observer
        .as_ref()
        .map(|o| o.off.steps_per_sec)
        .ok_or_else(|| LggError::scenario("baseline has no observer bench section"))?;
    if current.off.steps_per_sec < 0.98 * reference {
        return Err(LggError::scenario(format!(
            "disabled-observer throughput regressed: {} steps/s is more than 2% below \
             the recorded baseline {} steps/s on {}",
            current.off.steps_per_sec, reference, current.case
        )));
    }
    eprintln!(
        "bench: disabled-observer gate ok ({} steps/s vs baseline {} on {})",
        current.off.steps_per_sec, reference, current.case
    );
    Ok(())
}

/// Runs the observer and guard overhead legs.
pub fn run_bench_suite() -> Result<BenchReport, LggError> {
    let observer = Some(observer_bench()?);
    let guard = Some(guard_bench()?);
    Ok(BenchReport {
        generated_by: "lgg-sim bench (observer and guard overhead; schema documented in DESIGN.md)"
            .into(),
        sweep: None,
        observer,
        guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simqueue::NoopObserver;

    #[test]
    fn synthetic_cases_build_and_step() {
        for (name, sc) in synthetic_cases() {
            let mut sim = sc
                .build_with_observer(bench_overrides(), NoopObserver)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            sim.run(10);
        }
    }

    #[test]
    fn suite_produces_gate_legs_and_round_trips() {
        let report = run_bench_suite().unwrap();

        let obs = report.observer.as_ref().expect("observer section");
        assert_eq!(obs.case, "grid-16x16-steady");
        assert_eq!(obs.engine, "sparse-active");
        assert_eq!(obs.steps, 50_000);
        assert!(obs.off.steps_per_sec > 0.0);
        assert!(obs.ring.steps_per_sec > 0.0);
        assert!(obs.window.steps_per_sec > 0.0);
        let ring_vs_off = obs.ring.steps_per_sec / obs.off.steps_per_sec;
        assert!((obs.ring_vs_off - ring_vs_off).abs() <= 0.0005 + 1e-9);

        let g = report.guard.as_ref().expect("guard section");
        assert_eq!(g.case, "grid-16x16-steady");
        assert_eq!(g.engine, "sparse-active");
        assert_eq!(g.steps, 50_000);
        assert!(g.off.steps_per_sec > 0.0);
        assert!(g.guarded.steps_per_sec > 0.0);
        let guarded_vs_off = g.guarded.steps_per_sec / g.off.steps_per_sec;
        assert!((g.guarded_vs_off - guarded_vs_off).abs() <= 0.0005 + 1e-9);

        // The report must survive a JSON round trip unchanged — this is
        // the schema contract `lgg-sim sweep` relies on when it edits the
        // file in place.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.sweep.is_none());
    }

    #[test]
    fn checked_in_baseline_parses_despite_historical_cases() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let text = std::fs::read_to_string(path).unwrap();
        let baseline: BenchReport = serde_json::from_str(&text).unwrap();
        let obs = baseline.observer.expect("observer section");
        assert_eq!(obs.case, "grid-16x16-steady");
        assert_eq!(obs.steps, 50_000);
    }

    fn fake_report(off_sps: Option<f64>) -> BenchReport {
        let tp = |sps: f64| EngineThroughput {
            steps_per_sec: sps,
            ns_per_node_edge_step: 1.0,
        };
        let observer = off_sps.map(|sps| ObserverBench {
            case: "grid-16x16-steady".into(),
            engine: "sparse-active".into(),
            steps: 50_000,
            off: tp(sps),
            ring: tp(sps * 0.8),
            window: tp(sps * 0.9),
            ring_vs_off: 0.8,
            window_vs_off: 0.9,
        });
        BenchReport {
            generated_by: "test".into(),
            sweep: None,
            observer,
            guard: None,
        }
    }

    #[test]
    fn observer_baseline_gate_accepts_and_rejects() {
        // Within 2% of the baseline's off leg: ok (even slightly slower).
        let baseline = fake_report(Some(1000.0));
        check_observer_baseline(&fake_report(Some(985.0)), &baseline).unwrap();
        // More than 2% below: rejected.
        let err = check_observer_baseline(&fake_report(Some(975.0)), &baseline)
            .unwrap_err()
            .to_string();
        assert!(err.contains("regressed"), "{err}");
        // A baseline without an observer section is an error, as is a
        // report without one.
        let empty = fake_report(None);
        assert!(check_observer_baseline(&fake_report(Some(985.0)), &empty).is_err());
        assert!(check_observer_baseline(&empty, &baseline).is_err());
    }
}
