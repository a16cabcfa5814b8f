//! The one run driver behind `lgg-sim SCENARIO`, `run`, `run --guard`
//! and `trace`.
//!
//! [`drive`] runs a scenario once, in this order: check the horizon,
//! install the observer (optionally under the [`InvariantGuard`]), build
//! through [`Scenario::build_with_observer`], resume from a checkpoint and
//! align the trace artifact, run to the target step, and surface a sink
//! write error. The subcommands keep only their flags and their
//! rendering.

use std::fs::File;
use std::io::{self, BufWriter, Seek, SeekFrom};
use std::path::PathBuf;

use simqueue::{
    CheckpointConfig, FaultSpec, GuardConfig, GuardReport, InvariantGuard, JsonlSink, LatencyStats,
    LggError, Metrics, SimObserver, Simulation,
};

use crate::{
    DeclarationSpec, DynamicsSpec, InjectionSpec, LossSpec, ProtocolSpec, Scenario,
    ScenarioObserver, SimOverrides,
};

/// The options of one run, as `lgg-sim run` parses them from its flags.
/// `RunConfig::default()` runs the scenario as written.
#[derive(Debug, Default)]
pub struct RunConfig {
    /// Path of the scenario JSON file.
    pub scenario_path: String,
    /// Steps to run (default: the scenario's `steps`). Absolute: a
    /// resumed run continues *to* this step, not *for* this many more.
    pub steps: Option<u64>,
    /// Snapshot period in steps (`--checkpoint-every`).
    pub checkpoint_every: Option<u64>,
    /// Snapshot directory (`--checkpoint-dir`); required by
    /// `--checkpoint-every`, `--resume` and `--kill-after`.
    pub checkpoint_dir: Option<String>,
    /// Resume from the newest readable snapshot before running.
    pub resume: bool,
    /// Stream the event trace as JSON Lines to this file.
    pub trace: Option<String>,
    /// Thin per-step `sample` trace lines to every Nth step (0/1 = all).
    pub sample_stride: u64,
    /// Crash hard (`abort()`, skipping flushes) after this step.
    pub kill_after: Option<u64>,
    /// Run under the invariant guard (`--guard`): conservation, link
    /// capacity, declaration legality, online divergence, and — on
    /// core-model unsaturated networks — Lemma 1's `P_t` bound.
    pub guard: bool,
    /// Where a guard abort dumps its reproducer and checkpoint
    /// (`--guard-dump`, default `results/chaos`).
    pub guard_dump: Option<String>,
    /// Plant a synthetic conservation fault at this step
    /// (`--inject-fault`, test hook for the guard pipeline).
    pub inject_fault: Option<u64>,
    /// Guard backlog budget: abort gracefully with a partial verdict when
    /// total stored packets exceed this (`--max-backlog`).
    pub max_backlog: Option<u64>,
    /// Guard wall-clock budget in milliseconds (`--max-wall-ms`).
    pub max_wall_ms: Option<u64>,
}

impl RunConfig {
    /// Rejects flag combinations that cannot run, before any file is read.
    pub(crate) fn validate(&self) -> Result<(), LggError> {
        if self.checkpoint_dir.is_none()
            && (self.checkpoint_every.is_some() || self.resume || self.kill_after.is_some())
        {
            return Err(LggError::scenario(
                "--checkpoint-every/--resume/--kill-after require --checkpoint-dir",
            ));
        }
        if !self.guard
            && (self.guard_dump.is_some()
                || self.inject_fault.is_some()
                || self.max_backlog.is_some()
                || self.max_wall_ms.is_some())
        {
            return Err(LggError::scenario(
                "--guard-dump/--inject-fault/--max-backlog/--max-wall-ms require --guard",
            ));
        }
        if self.guard && (self.resume || self.kill_after.is_some()) {
            return Err(LggError::scenario(
                "--guard is incompatible with --resume and --kill-after",
            ));
        }
        Ok(())
    }

    /// The step the run ends at.
    pub(crate) fn target(&self, sc: &Scenario) -> u64 {
        self.steps.unwrap_or(sc.steps)
    }

    /// Where a guard abort writes its reproducer and checkpoint.
    pub(crate) fn guard_dump(&self) -> PathBuf {
        PathBuf::from(self.guard_dump.as_deref().unwrap_or("results/chaos"))
    }

    /// The planted conservation fault, if any.
    pub(crate) fn fault(&self) -> Option<FaultSpec> {
        self.inject_fault.map(|step| FaultSpec {
            step,
            node: 0,
            amount: 1,
        })
    }
}

/// What [`drive`] needs of an observer beyond [`SimObserver`].
pub(crate) trait RunObserver: SimObserver {
    /// Cuts a trace artifact back to the bytes the observer has flushed:
    /// zero on a fresh run, the snapshot's count after a resume. Bytes
    /// past that point are a crash's unflushed tail or an earlier run's.
    /// The scenario's own telemetry is left as built.
    fn rewind(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Takes the first write error of a JSONL sink, which keeps it
    /// instead of failing mid-step.
    fn take_error(&mut self) -> Option<io::Error>;
}

impl RunObserver for ScenarioObserver {
    fn take_error(&mut self) -> Option<io::Error> {
        match self {
            ScenarioObserver::Jsonl(sink) => sink.take_error(),
            _ => None,
        }
    }
}

impl RunObserver for JsonlSink<BufWriter<File>> {
    fn rewind(&mut self) -> io::Result<()> {
        let len = self.bytes_written();
        let file = self.writer_mut().get_mut();
        file.set_len(len)?;
        file.seek(SeekFrom::Start(len)).map(drop)
    }

    fn take_error(&mut self) -> Option<io::Error> {
        JsonlSink::take_error(self)
    }
}

impl RunObserver for JsonlSink<Vec<u8>> {
    fn take_error(&mut self) -> Option<io::Error> {
        JsonlSink::take_error(self)
    }
}

impl<O: RunObserver> RunObserver for InvariantGuard<O> {
    fn rewind(&mut self) -> io::Result<()> {
        self.inner_mut().rewind()
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.inner_mut().take_error()
    }
}

/// Opens `path` as a JSONL trace sink. The file is not truncated: on
/// resume the already-written prefix must survive ([`RunObserver::rewind`]
/// cuts it back to the checkpointed byte count, never rewrites it).
pub(crate) fn trace_file(
    path: &str,
    sample_stride: u64,
) -> Result<JsonlSink<BufWriter<File>>, LggError> {
    let f = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| LggError::io(format!("cannot open trace file {path}"), e))?;
    Ok(JsonlSink::new(BufWriter::new(f)).with_sample_stride(sample_stride))
}

/// The state a finished run leaves for the renderers.
pub(crate) struct Finished {
    /// Final step count.
    pub steps: u64,
    /// The snapshot step the run resumed from, if any.
    pub resumed_from: Option<u64>,
    /// Run metrics, resumes included.
    pub metrics: Metrics,
    /// Latency distribution (when `track_ages` is set).
    pub latency: Option<LatencyStats>,
    /// Final network state `P_t = Σ q²`.
    pub final_pt: u128,
    /// How a guarded run ended (`None` when unguarded).
    pub guard: Option<GuardReport>,
}

/// Runs `sc` as `cfg` says with the observer `install` makes, and returns
/// the final state plus the observer after its `finish()`.
/// `cfg.scenario_path`, `cfg.trace` and `cfg.sample_stride` are the
/// caller's: they chose `sc` and `install`. A guard violation is returned
/// in [`Finished::guard`], not as an error, so the caller can write its
/// reproducer first.
pub(crate) fn drive<O: RunObserver>(
    sc: &Scenario,
    cfg: &RunConfig,
    install: impl FnOnce() -> Result<O, LggError>,
) -> Result<(Finished, O), LggError> {
    let target = cfg.target(sc);
    sc.check_horizon(target)?;
    let observer = install()?;
    if !cfg.guard {
        return execute(sc, cfg, target, observer, |sim| {
            sim.run_until(target).map(|_| None)
        });
    }
    let spec = sc.traffic_spec()?;
    let mut gc = GuardConfig::checks();
    gc.divergence = true;
    gc.max_backlog = cfg.max_backlog;
    gc.max_wall_ms = cfg.max_wall_ms;
    gc.pt_bound = lemma1_bound(sc, &spec);
    if let Some(b) = gc.pt_bound {
        eprintln!(
            "guard: core model on an unsaturated network — enforcing P_t <= {b:.0} (Lemma 1)"
        );
    }
    let guard = InvariantGuard::with_inner(&spec, gc, observer);
    let dump = cfg.guard_dump();
    let (done, guard) = execute(sc, cfg, target, guard, |sim| {
        sim.run_guarded(target, Some(&dump), cfg.fault()).map(Some)
    })?;
    Ok((done, guard.into_inner()))
}

/// [`drive`] after the observer is installed: build, resume, align, run
/// with `run`, collect, finish.
fn execute<O: RunObserver>(
    sc: &Scenario,
    cfg: &RunConfig,
    target: u64,
    observer: O,
    run: impl FnOnce(&mut Simulation<O>) -> Result<Option<GuardReport>, LggError>,
) -> Result<(Finished, O), LggError> {
    let dir = cfg.checkpoint_dir.as_ref().map(PathBuf::from);
    // With a dir but no period, only the final-step snapshot is written
    // (useful to seed a later --resume without paying periodic I/O).
    let every = cfg.checkpoint_every.unwrap_or(target.max(1));
    let mut sim = sc.build_with_observer(
        SimOverrides {
            checkpoint: dir
                .as_ref()
                .map(|d| CheckpointConfig::new(every, d.clone())),
            ..SimOverrides::default()
        },
        observer,
    )?;
    let resumed_from = match (&dir, cfg.resume) {
        (Some(dir), true) => sim.resume_from_dir(dir)?,
        _ => None,
    };
    sim.observer_mut()
        .rewind()
        .map_err(|e| LggError::io("cannot align trace file", e))?;

    if let Some(k) = cfg.kill_after.filter(|&k| k < target) {
        // Periodic snapshots only — deliberately NOT the final-step
        // snapshot run_until would add — then die without unwinding, so
        // resume has to replay from the last periodic snapshot exactly
        // like after a real crash.
        let dir = dir
            .as_ref()
            .expect("RunConfig::validate requires a checkpoint dir");
        while sim.time() < k {
            sim.step();
            if sim.time() % every == 0 {
                sim.write_checkpoint_to(dir)?;
            }
        }
        std::process::abort();
    }

    let guard = run(&mut sim)?;
    let done = Finished {
        steps: sim.time(),
        resumed_from,
        metrics: sim.metrics().clone(),
        latency: sim.latency_stats().cloned(),
        final_pt: sim.network_state(),
        guard,
    };
    // into_observer() runs finish(): it flushes a trace and closes the
    // trailing telemetry window.
    let mut observer = sim.into_observer();
    if let Some(e) = observer.take_error() {
        return Err(LggError::io("trace write failed", e));
    }
    Ok((done, observer))
}

/// Lemma 1's `P_t ≤ nY² + 5nΔ²` bound holds for the *core* model only —
/// pure LGG, exact injection, no loss, static topology, truthful
/// declarations — and only on unsaturated networks. Returns the bound
/// when every precondition holds, so the guard can enforce it as a hard
/// invariant; anything else gets `None` (no `P_t` check).
fn lemma1_bound(sc: &Scenario, spec: &netmodel::TrafficSpec) -> Option<f64> {
    let core = matches!(sc.protocol, ProtocolSpec::Lgg)
        && matches!(sc.injection, InjectionSpec::Exact)
        && matches!(sc.loss, LossSpec::None)
        && matches!(sc.dynamics, DynamicsSpec::Static)
        && matches!(sc.declaration, DeclarationSpec::Truthful);
    if !core {
        return None;
    }
    lgg_core::bounds::unsaturated_bounds(spec).map(|b| b.state_bound)
}
