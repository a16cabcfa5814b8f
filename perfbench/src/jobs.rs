//! One repetition of each workload: the untraced job the end-to-end
//! metrics time, and the traced job the per-layer metrics come from.
//!
//! The untraced jobs call the same public functions the CLI does
//! (`Scenario::build`, `run_guarded`, `run_chaos`). The traced jobs build
//! the same simulations from the same scenarios, but hand
//! `SimulationBuilder` wrapped components; both must reach the same
//! recorded digest, or for the campaign the same trial outcomes.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use lgg_cli::{
    compose_trial, run_chaos, ChaosConfig, ChaosReport, DeclarationSpec, DynamicsSpec,
    ExtractionSpec, InjectionSpec, LossSpec, ProtocolSpec, Scenario, ScenarioObserver,
};
use lgg_core::baselines::ShortestPathRouting;
use lgg_core::interference::MatchingLgg;
use lgg_core::Lgg;
use maxflow::Algorithm;
use netmodel::{ExtendedNetwork, TrafficSpec, TrafficSpecBuilder};
use simqueue::checkpoint;
use simqueue::declare::{DeclarationPolicy, TruthfulDeclaration};
use simqueue::dynamic::{StaticTopology, TopologyProcess};
use simqueue::injection::{BernoulliInjection, ExactInjection, InjectionProcess};
use simqueue::loss::{GilbertElliottLoss, LossModel, NoLoss};
use simqueue::{
    assess_stability, EngineMode, ExtractionPolicy, GuardConfig, GuardOutcome, GuardReport,
    HistoryMode, InvariantGuard, JsonlSink, LggError, MaxExtraction, Metrics, NoopObserver,
    RoutingProtocol, SimObserver, SimOverrides, Simulation, SimulationBuilder,
};

use crate::layers::{
    CountedDeclaration, CountedExtraction, CountedInjection, Counters, CountingObserver, Spans,
    TimedLoss, TimedProtocol, TimedTopology,
};
use crate::probe::Probe;
use crate::report::Acc;
use crate::workloads::{self, Size};

/// Set-up is repeated this many times per repetition (the last one is
/// the simulation that runs), so `setup_s` is a median of many samples.
const SETUP_SAMPLES: usize = 11;

/// The untraced single runs step in slices of this many steps, with a
/// host-speed probe between slices (`Simulation::run` is a plain loop, so
/// slicing changes nothing simulated).
const PROBE_EVERY: u64 = 5_000;

/// The guarded run keeps one `sample` trace line every this many steps.
const SAMPLE_STRIDE: u64 = 100;

/// Backlog budget of a chaos trial, as `lgg-sim chaos` sets it.
const TRIAL_MAX_BACKLOG: u64 = 100_000;

/// What one untraced repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up samples in seconds.
    pub setup_s: Vec<f64>,
    /// Host seconds spent stepping (the campaign: its wall time).
    pub step_s: f64,
    /// Simulated steps in `step_s`.
    pub steps: u64,
    /// The user-visible job time.
    pub wall_s: f64,
    /// Completed jobs in `wall_s`: one run, or one campaign trial each.
    pub jobs: u64,
    /// Operations attempted and failed (runs, trials, restores).
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the simulated outcome, checked against `expected.json`.
    pub digest: String,
    /// Host-speed probe samples taken between slices of the work (never
    /// inside a timed interval).
    pub probe: Probe,
    /// The campaign's own report (campaign only).
    pub campaign: Option<ChaosReport>,
}

fn err(e: LggError) -> String {
    e.to_string()
}

/// The `sim.*` counts plus an FNV-1a hash of the final queues.
pub fn run_digest(m: &Metrics, queues: &[u64]) -> String {
    let bytes: Vec<u8> = queues.iter().flat_map(|q| q.to_le_bytes()).collect();
    format!(
        "injected={} delivered={} lost={} sup_total={} sup_pt={} queues={:016x}",
        m.injected,
        m.delivered,
        m.lost,
        m.sup_total,
        m.sup_pt,
        checkpoint::fnv1a(&bytes)
    )
}

/// Runs `setup` [`SETUP_SAMPLES`] times, keeping the last result and the
/// instant its set-up began (the start of the user-visible job). Only one
/// built simulation is alive at a time, so sampling does not raise the
/// peak memory.
fn sample_setup<T>(
    samples: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Instant), String> {
    let mut last = None;
    for _ in 0..SETUP_SAMPLES {
        drop(last.take());
        let t = Instant::now();
        let built = setup()?;
        samples.push(t.elapsed().as_secs_f64());
        last = Some((built, t));
    }
    Ok(last.expect("at least one sample"))
}

// ---------------------------------------------------------------------------
// Untraced jobs
// ---------------------------------------------------------------------------

/// `lgg-sim SCENARIO` as `run_scenario` does it: parse, spec, classify,
/// build, run, assess.
pub fn plain_rep(json: &str, steps: u64) -> Result<Rep, String> {
    let mut rep = Rep::default();
    rep.probe.sample();
    let (mut sim, setup_start) = sample_setup(&mut rep.setup_s, || {
        let sc = workloads::parse(json)?;
        let spec = sc.traffic_spec().map_err(err)?;
        black_box(netmodel::classify(&spec));
        sc.build(SimOverrides::default()).map_err(err)
    })?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    while sim.time() < steps {
        let slice = PROBE_EVERY.min(steps - sim.time());
        let t = Instant::now();
        sim.run(slice);
        rep.step_s += t.elapsed().as_secs_f64();
        rep.probe.sample();
    }
    let t = Instant::now();
    black_box(assess_stability(&sim.metrics().history));
    rep.digest = run_digest(sim.metrics(), sim.queues());
    drop(sim.into_observer());
    rep.wall_s = setup_s + rep.step_s + t.elapsed().as_secs_f64();
    rep.steps = steps;
    rep.jobs = 1;
    rep.attempted = 1;
    Ok(rep)
}

/// Scratch files of one run: those of the guarded run, and where the
/// campaign would write reproducers.
pub struct ScratchFiles {
    pub trace: PathBuf,
    pub sink_trace: PathBuf,
    pub restore_trace: PathBuf,
    pub ckpt: PathBuf,
    pub dump: PathBuf,
    pub chaos: PathBuf,
}

impl ScratchFiles {
    pub fn new(dir: &Path) -> Self {
        ScratchFiles {
            trace: dir.join("trace.jsonl"),
            sink_trace: dir.join("sink.jsonl"),
            restore_trace: dir.join("restore.jsonl"),
            ckpt: dir.join("ckpt"),
            dump: dir.join("dump"),
            chaos: dir.join("chaos"),
        }
    }

    fn reset(&self) -> Result<(), String> {
        for d in [&self.ckpt, &self.dump] {
            if d.exists() {
                fs::remove_dir_all(d).map_err(|e| format!("cannot clear {}: {e}", d.display()))?;
            }
        }
        Ok(())
    }
}

/// The guard `lgg-sim run --guard` installs on a scenario outside the
/// core model (no Lemma 1 bound to enforce): hard checks plus divergence.
fn run_guard_config() -> GuardConfig {
    let mut gc = GuardConfig::checks();
    gc.divergence = true;
    gc
}

fn jsonl_sink(path: &Path) -> Result<JsonlSink<BufWriter<File>>, String> {
    let f = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(JsonlSink::new(BufWriter::new(f)).with_sample_stride(SAMPLE_STRIDE))
}

type GuardedSim = Simulation<InvariantGuard<ScenarioObserver>>;

/// Builds the guarded simulation `lgg-sim run --guard --trace` builds.
fn guarded_setup(
    json: &str,
    trace: &Path,
    ckpt: Option<(u64, &Path)>,
) -> Result<GuardedSim, String> {
    let sc = workloads::parse(json)?;
    let spec = sc.traffic_spec().map_err(err)?;
    black_box(netmodel::classify(&spec));
    let guard = InvariantGuard::with_inner(
        &spec,
        run_guard_config(),
        ScenarioObserver::Jsonl(jsonl_sink(trace)?),
    );
    sc.build_with_observer(
        SimOverrides {
            checkpoint: ckpt.map(|(every, dir)| simqueue::CheckpointConfig::new(every, dir)),
            ..SimOverrides::default()
        },
        guard,
    )
    .map_err(err)
}

fn completed(report: &GuardReport) -> bool {
    matches!(report.outcome, GuardOutcome::Completed)
}

/// Flushes the run's trace sink and surfaces any write error.
fn close_trace<I: SimObserver>(
    sim: Simulation<InvariantGuard<I>>,
    sink: impl FnOnce(I) -> Option<std::io::Error>,
) -> Result<(), String> {
    match sink(sim.into_observer().into_inner()) {
        Some(e) => Err(format!("trace write failed: {e}")),
        None => Ok(()),
    }
}

fn scenario_sink_error(obs: ScenarioObserver) -> Option<std::io::Error> {
    match obs {
        ScenarioObserver::Jsonl(mut s) => s.take_error(),
        _ => None,
    }
}

/// The newest periodic snapshot strictly before `target` (the final-step
/// snapshot would leave nothing to continue).
fn last_periodic_snapshot(dir: &Path, target: u64) -> Result<PathBuf, String> {
    checkpoint::list(dir)
        .map_err(err)?
        .into_iter()
        .find(|(t, _)| *t < target)
        .map(|(_, p)| p)
        .ok_or_else(|| format!("no periodic snapshot in {}", dir.display()))
}

/// `lgg-sim run --guard --trace --checkpoint-every`, then a restore of the
/// last periodic snapshot into a fresh simulation that runs to the same
/// target and must end identical to the uninterrupted run. The run is
/// driven one snapshot period at a time, so the snapshots written are
/// exactly those of a single `run_guarded` call.
pub fn guarded_rep(json: &str, size: Size, files: &ScratchFiles) -> Result<Rep, String> {
    files.reset()?;
    let mut rep = Rep::default();
    rep.probe.sample();
    let (mut sim, setup_start) = sample_setup(&mut rep.setup_s, || {
        guarded_setup(json, &files.trace, Some((size.ckpt_every, &files.ckpt)))
    })?;
    let setup_s = setup_start.elapsed().as_secs_f64();
    let mut clean = true;
    while clean && sim.time() < size.steps {
        let target = (sim.time() + size.ckpt_every).min(size.steps);
        let t = Instant::now();
        let report = sim
            .run_guarded(target, Some(&files.dump), None)
            .map_err(err)?;
        rep.step_s += t.elapsed().as_secs_f64();
        clean = completed(&report);
        rep.probe.sample();
    }
    let t = Instant::now();
    rep.steps = sim.time();
    rep.digest = run_digest(sim.metrics(), sim.queues());
    rep.attempted = 2;
    rep.failed += u64::from(!clean);
    close_trace(sim, scenario_sink_error)?;

    let snapshot = last_periodic_snapshot(&files.ckpt, size.steps)?;
    let mut resumed = guarded_setup(json, &files.restore_trace, None)?;
    let (_, payload) = checkpoint::read_snapshot(&snapshot).map_err(err)?;
    resumed.restore_checkpoint_payload(&payload).map_err(err)?;
    let report = resumed.run_guarded(size.steps, None, None).map_err(err)?;
    let same = completed(&report) && run_digest(resumed.metrics(), resumed.queues()) == rep.digest;
    rep.failed += u64::from(!same);
    close_trace(resumed, scenario_sink_error)?;

    rep.wall_s = setup_s + rep.step_s + t.elapsed().as_secs_f64();
    rep.probe.sample();
    rep.jobs = 1;
    Ok(rep)
}

/// The guard a chaos trial runs under, as `lgg-sim chaos` sets it.
fn trial_guard_config() -> GuardConfig {
    let mut cfg = GuardConfig::checks();
    cfg.max_backlog = Some(TRIAL_MAX_BACKLOG);
    cfg
}

fn trial_overrides() -> SimOverrides {
    SimOverrides {
        history: Some(HistoryMode::None),
        ..SimOverrides::default()
    }
}

/// Set-up of one campaign is sampled this many times per repetition.
const CAMPAIGN_SETUP_SAMPLES: usize = 5;

/// `lgg-sim chaos` as the CLI runs it: `run_chaos` composes every trial,
/// then builds and runs each guarded on the pool (sized by
/// `parpool::max_threads`, i.e. `nproc` by default). Before it, the
/// campaign's set-up (compose, spec, guard and build of every trial) is
/// sampled on its own, serially.
pub fn chaos_rep(seed: u64, size: Size, out_dir: &Path) -> Result<Rep, String> {
    let mut rep = Rep::default();
    for _ in 0..CAMPAIGN_SETUP_SAMPLES {
        let t = Instant::now();
        for i in 0..size.trials {
            let sc = compose_trial(seed, i, size.steps);
            let _ = black_box(sc.traffic_spec().and_then(|spec| {
                let guard = InvariantGuard::with_inner(&spec, trial_guard_config(), NoopObserver);
                sc.build_with_observer(trial_overrides(), guard)
            }));
        }
        rep.setup_s.push(t.elapsed().as_secs_f64());
    }
    let threads = parpool::max_threads();
    (0..3).for_each(|_| rep.probe.sample_on(threads));
    let cfg = ChaosConfig {
        trials: size.trials,
        seed,
        steps: size.steps,
        out_dir: out_dir.display().to_string(),
        inject_fault: None,
    };
    let t = Instant::now();
    let report = run_chaos(&cfg).map_err(err)?;
    rep.wall_s = t.elapsed().as_secs_f64();
    (0..3).for_each(|_| rep.probe.sample_on(threads));
    rep.step_s = rep.wall_s;
    // Trials stopped by the backlog budget ran fewer steps, which the
    // report does not give; none of the recorded inputs has any.
    rep.steps = report.clean as u64 * size.steps;
    rep.jobs = size.trials as u64;
    rep.attempted = size.trials as u64;
    rep.failed = (report.violations + report.build_errors) as u64;
    rep.digest = report.digest.clone();
    rep.campaign = Some(report);
    Ok(rep)
}

// ---------------------------------------------------------------------------
// Traced jobs
// ---------------------------------------------------------------------------

/// The scenario's spec, built step by step so each layer gets a span:
/// the `mgraph` generator, then `netmodel`'s spec builder (as
/// `Scenario::traffic_spec` does).
fn traced_spec(sc: &Scenario, spans: &mut Spans, acc: &mut Acc) -> Result<TrafficSpec, String> {
    let (graph, d) = spans.time("mgraph.build", |_| sc.topology.build());
    let graph = graph.map_err(err)?;
    acc.add("mgraph.build_s", d);
    acc.add("mgraph.nodes", graph.node_count() as f64);
    acc.add("mgraph.edges", graph.edge_count() as f64);
    let (spec, d) = spans.time("netmodel.spec", |_| {
        let mut b = TrafficSpecBuilder::new(graph).retention(sc.retention);
        for s in &sc.sources {
            b = b.source(s.node, s.rate);
        }
        for s in &sc.sinks {
            b = b.sink(s.node, s.rate);
        }
        for g in &sc.generalized {
            b = b.generalized(g.node, g.r#in, g.out);
        }
        b.build()
    });
    acc.add("netmodel.spec_s", d);
    spec.map_err(|e| e.to_string())
}

/// The components `Scenario::build` would install, each wrapped. Only the
/// kinds the single-run workloads use are supported.
fn traced_builder(
    sc: &Scenario,
    spec: TrafficSpec,
    c: &Rc<Counters>,
) -> Result<SimulationBuilder, String> {
    let unsupported = |what: &str| format!("traced build does not support this {what}");
    let protocol: Box<dyn RoutingProtocol> = match sc.protocol {
        ProtocolSpec::Lgg => Box::new(Lgg::new()),
        ProtocolSpec::MatchingLgg => Box::new(MatchingLgg::new()),
        ProtocolSpec::ShortestPath => Box::new(ShortestPathRouting::new(&spec)),
        _ => return Err(unsupported("protocol")),
    };
    let injection: Box<dyn InjectionProcess> = match sc.injection {
        InjectionSpec::Exact => Box::new(ExactInjection),
        InjectionSpec::Bernoulli { p } => Box::new(BernoulliInjection::new(p)),
        _ => return Err(unsupported("injection")),
    };
    let loss: Box<dyn LossModel> = match sc.loss {
        LossSpec::None => Box::new(NoLoss),
        LossSpec::GilbertElliott {
            p_loss_good,
            p_loss_bad,
            p_g2b,
            p_b2g,
        } => Box::new(GilbertElliottLoss::new(
            p_loss_good,
            p_loss_bad,
            p_g2b,
            p_b2g,
        )),
        _ => return Err(unsupported("loss model")),
    };
    let topology: Box<dyn TopologyProcess> = match sc.dynamics {
        DynamicsSpec::Static => Box::new(StaticTopology),
        _ => return Err(unsupported("topology process")),
    };
    let declaration: Box<dyn DeclarationPolicy> = match sc.declaration {
        DeclarationSpec::Truthful => Box::new(TruthfulDeclaration),
        _ => return Err(unsupported("declaration policy")),
    };
    let extraction: Box<dyn ExtractionPolicy> = match sc.extraction {
        ExtractionSpec::Max => Box::new(MaxExtraction),
        _ => return Err(unsupported("extraction policy")),
    };
    Ok(
        SimulationBuilder::new(spec, Box::new(TimedProtocol(protocol, c.clone())))
            // The scenario's own engine setting (its default), passed through
            // exactly as `Scenario::build` does.
            .engine_mode(sc.engine.mode())
            .injection(Box::new(CountedInjection(injection, c.clone())))
            .loss(Box::new(TimedLoss(loss, c.clone())))
            .topology(Box::new(TimedTopology(topology, c.clone())))
            .declaration(Box::new(CountedDeclaration(declaration, c.clone())))
            .extraction(Box::new(CountedExtraction(extraction, c.clone())))
            .seed(sc.seed)
            .history(HistoryMode::Sampled((sc.steps / 1024).max(1)))
            .track_ages(sc.track_ages),
    )
}

/// The traced runs probe the host speed every this many chunks.
const PROBE_CHUNKS: usize = 16;

/// What stepping one traced simulation measured.
#[derive(Default)]
struct Drive {
    /// Stepping seconds, snapshot writes excluded.
    step_s: f64,
    chunk_ms: Vec<f64>,
    write_ms: Vec<f64>,
    ckpt_bytes: u64,
    active_frac: Vec<f64>,
    dense: Vec<f64>,
    violated: bool,
}

/// Steps `sim` to `end` as one timed chunk, writing a snapshot every
/// `ckpt.0` steps and at `target` (as `run_guarded` does), and stopping
/// at the first step `violated` reports.
fn drive_chunk<O: SimObserver>(
    sim: &mut Simulation<O>,
    end: u64,
    target: u64,
    ckpt: Option<(u64, &Path)>,
    violated: impl Fn(&O) -> bool,
    d: &mut Drive,
    spans: &mut Spans,
) -> Result<(), String> {
    let start = Instant::now();
    let mut writes = 0.0;
    while sim.time() < end && !d.violated {
        sim.step();
        if let Some((every, dir)) = ckpt {
            if sim.time().is_multiple_of(every) || sim.time() == target {
                spans.open("checkpoint.write");
                let path = sim.write_checkpoint_to(dir).map_err(err)?;
                let w = spans.close();
                writes += w;
                d.write_ms.push(w * 1e3);
                d.ckpt_bytes += fs::metadata(&path).map_or(0, |m| m.len());
            }
        }
        d.violated = violated(sim.observer());
    }
    let elapsed = start.elapsed().as_secs_f64();
    d.chunk_ms.push(elapsed * 1e3);
    d.step_s += elapsed - writes;
    d.active_frac
        .push(sim.active_node_count() as f64 / sim.spec().node_count().max(1) as f64);
    d.dense.push(f64::from(u8::from(
        sim.effective_mode() == EngineMode::DenseReference,
    )));
    Ok(())
}

/// Steps `sim` to `target` chunk by chunk, probing the host speed between
/// chunks.
fn drive<O: SimObserver>(
    sim: &mut Simulation<O>,
    target: u64,
    chunk: u64,
    violated: impl Fn(&O) -> bool,
    probe: &mut Probe,
    spans: &mut Spans,
) -> Result<Drive, String> {
    let mut d = Drive::default();
    spans.open("simqueue.run");
    while sim.time() < target && !d.violated {
        let end = (sim.time() + chunk.max(1)).min(target);
        drive_chunk(sim, end, target, None, &violated, &mut d, spans)?;
        if d.chunk_ms.len() % PROBE_CHUNKS == 0 {
            probe.sample();
        }
    }
    spans.close();
    probe.sample();
    Ok(d)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sink_bytes(obs: &ScenarioObserver) -> u64 {
    match obs {
        ScenarioObserver::Jsonl(s) => s.bytes_written(),
        _ => 0,
    }
}

/// The set-up both traced jobs share, each layer in its own span: parse,
/// generator, spec, classify; then one max-flow of the `maxflow` layer.
fn traced_setup(
    json: &str,
    spans: &mut Spans,
    acc: &mut Acc,
) -> Result<(Scenario, TrafficSpec), String> {
    spans.open("setup");
    let (sc, d) = spans.time("cli.parse", |_| workloads::parse(json));
    let sc = sc?;
    acc.add("cli.parse_s", d);
    let spec = traced_spec(&sc, spans, acc)?;
    let (_, d) = spans.time("netmodel.classify", |_| {
        black_box(netmodel::classify(&spec))
    });
    acc.add("netmodel.classify_s", d);
    spans.close();
    let (flow, d) = spans.time("maxflow.solve", |_| {
        let mut ext = ExtendedNetwork::feasibility(&spec);
        ext.solve(Algorithm::Dinic)
    });
    black_box(flow);
    acc.add("maxflow.solve_s", d);
    Ok((sc, spec))
}

/// Records a traced run's stepping time and the time inside its per-step
/// calls, under `prefix`.
fn record_timed(acc: &mut Acc, prefix: &str, d: &Drive, c: &Counters) {
    acc.add(&format!("{prefix}simqueue.step_s"), d.step_s);
    acc.add(&format!("{prefix}core.plan_s"), ns(c.plan_ns.get()));
    acc.add(&format!("{prefix}simqueue.loss_s"), ns(c.loss_ns.get()));
    acc.add(
        &format!("{prefix}simqueue.topology_s"),
        ns(c.topology_ns.get()),
    );
}

/// Records a traced run's call counts, engine samples and outcome.
fn record_run(acc: &mut Acc, d: &Drive, c: &Counters, m: &Metrics) {
    acc.add(
        "bench.traced_step_wall_s",
        d.chunk_ms.iter().sum::<f64>() / 1e3,
    );
    acc.add("simqueue.steps", m.steps as f64);
    acc.add("core.plan_calls", c.plan_calls.get() as f64);
    acc.add("core.planned", c.planned.get() as f64);
    acc.add(
        "core.plan_accept_ratio",
        ratio(m.sent, m.sent + m.rejected_plans),
    );
    acc.add("simqueue.inject_calls", c.inject_calls.get() as f64);
    acc.add("simqueue.declare_calls", c.declare_calls.get() as f64);
    acc.add("simqueue.extract_calls", c.extract_calls.get() as f64);
    acc.add("simqueue.active_frac", mean(&d.active_frac));
    acc.add("simqueue.dense_share", mean(&d.dense));
    acc.pool("simqueue.chunk_ms", &d.chunk_ms);
    acc.add("sim.injected", m.injected as f64);
    acc.add("sim.delivered", m.delivered as f64);
    acc.add("sim.lost", m.lost as f64);
    acc.add("sim.sup_total", m.sup_total as f64);
    acc.add("sim.sup_pt", m.sup_pt as f64);
}

/// One traced repetition of a single run without an observer, as
/// `lgg-sim SCENARIO` runs it. Returns the run digest.
pub fn traced_plain(
    json: &str,
    size: Size,
    spans: &mut Spans,
    out: &mut Acc,
) -> Result<String, String> {
    let mut probe = Probe::default();
    probe.sample();
    let mut acc = Acc::default();
    let (sc, spec) = traced_setup(json, spans, &mut acc)?;
    let c = Rc::new(Counters::default());
    let builder = traced_builder(&sc, spec, &c)?;
    let mut sim = spans
        .time("simqueue.build", |_| {
            builder.observer(ScenarioObserver::Off).build()
        })
        .0;
    let d = drive(
        &mut sim,
        size.steps,
        size.chunk,
        |_| false,
        &mut probe,
        spans,
    )?;
    record_timed(&mut acc, "", &d, &c);
    record_run(&mut acc, &d, &c, sim.metrics());
    out.merge_scaled(acc, probe.factor());
    Ok(run_digest(sim.metrics(), sim.queues()))
}

/// Digests of one traced guarded repetition.
pub struct GuardedDigests {
    /// The full job: guard around the sink, with snapshots.
    pub full: String,
    /// The restore of its last periodic snapshot, run to the end.
    pub restored: String,
    /// The same run with the sink but without the guard.
    pub sink_only: String,
    /// The same run without any observer.
    pub bare: String,
}

/// One traced repetition of the guarded run. Three simulations step in
/// lockstep, one chunk each in turn, so all three see the same host: the
/// full job (the guard around the JSONL sink, with snapshots), the same
/// without the guard, and the same without any observer. Their
/// differences give the guard's and the sink's cost. Then the last
/// periodic snapshot is restored into a fresh simulation that finishes
/// the run.
pub fn traced_guarded(
    json: &str,
    size: Size,
    files: &ScratchFiles,
    spans: &mut Spans,
    out: &mut Acc,
) -> Result<GuardedDigests, String> {
    files.reset()?;
    let mut probe = Probe::default();
    probe.sample();
    let mut acc = Acc::default();
    let (sc, spec) = traced_setup(json, spans, &mut acc)?;
    let guarded_sink = |trace: &Path| -> Result<_, String> {
        let sink = ScenarioObserver::Jsonl(jsonl_sink(trace)?);
        Ok(InvariantGuard::with_inner(
            &spec,
            run_guard_config(),
            CountingObserver::new(sink),
        ))
    };
    let counters: [Rc<Counters>; 3] = Default::default();
    spans.open("simqueue.build");
    let mut full = traced_builder(&sc, spec.clone(), &counters[0])?
        .observer(guarded_sink(&files.trace)?)
        .build();
    let mut sink = traced_builder(&sc, spec.clone(), &counters[1])?
        .observer(ScenarioObserver::Jsonl(jsonl_sink(&files.sink_trace)?))
        .build();
    let mut bare = traced_builder(&sc, spec.clone(), &counters[2])?
        .observer(ScenarioObserver::Off)
        .build();
    spans.close();
    let total = full.total_packets();
    full.observer_mut().prime_backlog(total);

    let target = size.steps;
    let ckpt = Some((size.ckpt_every, files.ckpt.as_path()));
    let mut d: [Drive; 3] = Default::default();
    spans.open("simqueue.run");
    let mut turn = 0;
    while full.time() < target && !d[0].violated {
        let end = (full.time() + size.chunk.max(1)).min(target);
        // Rotate the order, so that no run always follows a probe.
        for k in 0..3 {
            match (turn + k) % 3 {
                0 => drive_chunk(
                    &mut full,
                    end,
                    target,
                    ckpt,
                    |g| g.violation().is_some(),
                    &mut d[0],
                    spans,
                )?,
                1 => drive_chunk(&mut sink, end, target, None, |_| false, &mut d[1], spans)?,
                _ => drive_chunk(&mut bare, end, target, None, |_| false, &mut d[2], spans)?,
            }
        }
        turn += 1;
        if turn % PROBE_CHUNKS == 0 {
            probe.sample();
        }
    }
    spans.close();
    probe.sample();

    let [df, ds, db] = &d;
    record_timed(&mut acc, "", df, &counters[0]);
    record_timed(&mut acc, "diff.sink.", ds, &counters[1]);
    record_timed(&mut acc, "diff.bare.", db, &counters[2]);
    record_run(&mut acc, df, &counters[0], full.metrics());
    acc.add("trace.events", full.observer().inner().events as f64);
    acc.add(
        "trace.jsonl_bytes",
        sink_bytes(&full.observer().inner().inner) as f64,
    );
    acc.add("guard.violations", f64::from(u8::from(df.violated)));
    acc.add("checkpoint.writes", df.write_ms.len() as f64);
    acc.add("checkpoint.bytes", df.ckpt_bytes as f64);
    acc.pool("checkpoint.write_ms", &df.write_ms);
    let digest = |m: &Metrics, q: &[u64], violated: bool| {
        let d = run_digest(m, q);
        if violated {
            format!("violated: {d}")
        } else {
            d
        }
    };
    let full_digest = digest(full.metrics(), full.queues(), df.violated);
    let sink_only = run_digest(sink.metrics(), sink.queues());
    let bare_digest = run_digest(bare.metrics(), bare.queues());
    close_trace(full, |c| scenario_sink_error(c.inner))?;
    if let Some(e) = scenario_sink_error(sink.into_observer()) {
        return Err(format!("trace write failed: {e}"));
    }

    // Restore the last periodic snapshot into a fresh, identically
    // layered simulation and finish the run.
    let snapshot = last_periodic_snapshot(&files.ckpt, target)?;
    let unused = Rc::new(Counters::default());
    let mut resumed = traced_builder(&sc, spec.clone(), &unused)?
        .observer(guarded_sink(&files.restore_trace)?)
        .build();
    spans.open("checkpoint.restore");
    let (_, payload) = checkpoint::read_snapshot(&snapshot).map_err(err)?;
    resumed.restore_checkpoint_payload(&payload).map_err(err)?;
    acc.add("checkpoint.restore_ms", spans.close() * 1e3);
    let rd = drive(
        &mut resumed,
        target,
        size.chunk,
        |g| g.violation().is_some(),
        &mut probe,
        spans,
    )?;
    let restored = digest(resumed.metrics(), resumed.queues(), rd.violated);
    close_trace(resumed, |c| scenario_sink_error(c.inner))?;

    out.merge_scaled(acc, probe.factor());
    Ok(GuardedDigests {
        full: full_digest,
        restored,
        sink_only,
        bare: bare_digest,
    })
}

fn ns(x: u64) -> f64 {
    x as f64 * 1e-9
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-trial measurements of a traced campaign.
struct TracedTrial {
    /// Index into [`TracedCampaign::tally`].
    outcome: usize,
    /// Run digest of a trial that ran to the horizon.
    digest: Option<String>,
    steps: u64,
    start: Instant,
    end: Instant,
    compose_s: f64,
    mgraph_s: f64,
    nodes: u64,
    edges: u64,
    build_s: f64,
    run_s: f64,
    events: u64,
    counts: [u64; 3],
    sup_total: u64,
    sup_pt: u128,
}

/// One trial as `lgg-sim chaos` runs it (compose, spec, guard, build,
/// `run_guarded`), each part timed, with an event counter inside the
/// guard. The CLI's own per-trial runner is private, so this repeats it.
fn traced_trial(seed: u64, i: usize, steps: u64) -> TracedTrial {
    let start = Instant::now();
    let sc = compose_trial(seed, i, steps);
    let composed = Instant::now();
    // The generator alone, timed as its own layer (the build below runs
    // it again inside `traffic_spec`).
    let graph = sc.topology.build();
    let generated = Instant::now();
    let (nodes, edges) = graph
        .as_ref()
        .map_or((0, 0), |g| (g.node_count() as u64, g.edge_count() as u64));
    let built = sc.traffic_spec().and_then(|spec| {
        let guard = InvariantGuard::with_inner(
            &spec,
            trial_guard_config(),
            CountingObserver::new(NoopObserver),
        );
        sc.build_with_observer(trial_overrides(), guard)
    });
    let ready = Instant::now();
    let mut t = TracedTrial {
        outcome: TALLY_BUILD_ERROR,
        digest: None,
        steps: 0,
        start,
        end: start,
        compose_s: (composed - start).as_secs_f64(),
        mgraph_s: (generated - composed).as_secs_f64(),
        nodes,
        edges,
        build_s: (ready - generated).as_secs_f64(),
        run_s: 0.0,
        events: 0,
        counts: [0; 3],
        sup_total: 0,
        sup_pt: 0,
    };
    if let Ok(mut sim) = built {
        let result = sim.run_guarded(steps, None, None);
        let m = sim.metrics();
        t.counts = [m.injected, m.delivered, m.lost];
        t.sup_total = m.sup_total;
        t.sup_pt = m.sup_pt;
        t.events = sim.observer().inner().events;
        if let Ok(r) = result {
            t.steps = r.steps;
            t.outcome = match r.outcome {
                GuardOutcome::Completed => {
                    t.digest = Some(run_digest(m, sim.queues()));
                    TALLY_CLEAN
                }
                GuardOutcome::BudgetExceeded(_) => TALLY_BUDGET,
                GuardOutcome::Violated(_) => TALLY_VIOLATED,
            };
        }
    }
    t.end = Instant::now();
    t.run_s = (t.end - ready).as_secs_f64();
    t
}

/// The same trial without the guard or any observer (guard cost =
/// guarded − unguarded): its stepping time and run digest.
fn unguarded_trial(seed: u64, i: usize, steps: u64) -> (f64, Option<String>) {
    let sc = compose_trial(seed, i, steps);
    match sc.build_with_observer(trial_overrides(), NoopObserver) {
        Ok(mut sim) => {
            let t = Instant::now();
            sim.run(steps);
            let run_s = t.elapsed().as_secs_f64();
            (run_s, Some(run_digest(sim.metrics(), sim.queues())))
        }
        Err(_) => (0.0, None),
    }
}

/// Positions in [`TracedCampaign::tally`], in `ChaosReport`'s order.
const TALLY_CLEAN: usize = 0;
const TALLY_BUDGET: usize = 1;
const TALLY_BUILD_ERROR: usize = 2;
const TALLY_VIOLATED: usize = 3;

/// What a traced campaign simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedCampaign {
    /// Trials that were clean, stopped by the budget, failed to build and
    /// broke an invariant: `ChaosReport`'s `clean`, `budget`,
    /// `build_errors` and `violations`.
    pub tally: [usize; 4],
    /// Clean trials whose final state differs from the same trial run
    /// without the guard and the event counter.
    pub perturbed: usize,
}

impl TracedCampaign {
    /// Whether the traced trials came out as the campaign runner's did.
    pub fn agrees_with(&self, report: &ChaosReport) -> bool {
        self.tally
            == [
                report.clean,
                report.budget,
                report.build_errors,
                report.violations,
            ]
    }

    /// Trials that failed: build errors, violations and perturbed trials.
    pub fn failed(&self) -> usize {
        self.tally[TALLY_BUILD_ERROR] + self.tally[TALLY_VIOLATED] + self.perturbed
    }
}

/// One traced campaign: every pool item is timed and split into compose,
/// generator, build and guarded run; then the campaign runs once more
/// without the guard, and every clean trial must end as it did guarded.
pub fn traced_chaos(seed: u64, size: Size, spans: &mut Spans, out: &mut Acc) -> TracedCampaign {
    let threads = parpool::max_threads().min(size.trials.max(1));
    let mut probe = Probe::default();
    (0..3).for_each(|_| probe.sample_on(threads));
    spans.open("parpool.campaign");
    let t = Instant::now();
    let trials = parpool::run_ordered((0..size.trials).collect(), |i| {
        traced_trial(seed, i, size.steps)
    });
    let wall = t.elapsed().as_secs_f64();
    for tr in &trials {
        spans.record("parpool.item", tr.start, tr.end);
    }
    spans.close();

    let item_ms: Vec<f64> = trials
        .iter()
        .map(|t| (t.end - t.start).as_secs_f64() * 1e3)
        .collect();
    let busy: f64 = item_ms.iter().sum::<f64>() * 1e-3;
    let run_s: f64 = trials.iter().map(|t| t.run_s).sum();
    let (unguarded, _) = spans.time("parpool.campaign_unguarded", |_| {
        parpool::run_ordered((0..size.trials).collect(), |i| {
            unguarded_trial(seed, i, size.steps)
        })
    });
    (0..3).for_each(|_| probe.sample_on(threads));
    let steps: u64 = trials.iter().map(|t| t.steps).sum();
    let sum = |f: fn(&TracedTrial) -> f64| trials.iter().map(f).sum::<f64>();
    let mut campaign = TracedCampaign {
        tally: [0; 4],
        perturbed: 0,
    };
    for (tr, (_, plain)) in trials.iter().zip(&unguarded) {
        campaign.tally[tr.outcome] += 1;
        if tr.digest.is_some() && tr.digest != *plain {
            campaign.perturbed += 1;
        }
    }

    let mut acc = Acc::default();
    acc.add("parpool.threads", threads as f64);
    acc.add("parpool.busy_s", busy);
    acc.add("parpool.idle_s", (threads as f64 * wall - busy).max(0.0));
    acc.add("parpool.utilization", busy / (threads as f64 * wall));
    acc.pool("parpool.trial_ms", &item_ms);
    acc.add("cli.compose_s", sum(|t| t.compose_s));
    acc.add("cli.trial_build_s", sum(|t| t.build_s));
    acc.add("mgraph.build_s", sum(|t| t.mgraph_s));
    acc.add("mgraph.nodes", sum(|t| t.nodes as f64));
    acc.add("mgraph.edges", sum(|t| t.edges as f64));
    acc.add("simqueue.step_s", run_s);
    acc.add("simqueue.steps", steps as f64);
    acc.add(
        "diff.unguarded.simqueue.step_s",
        unguarded.iter().map(|u| u.0).sum(),
    );
    acc.add("trace.events", sum(|t| t.events as f64));
    acc.add("guard.violations", campaign.tally[TALLY_VIOLATED] as f64);
    acc.add("sim.injected", sum(|t| t.counts[0] as f64));
    acc.add("sim.delivered", sum(|t| t.counts[1] as f64));
    acc.add("sim.lost", sum(|t| t.counts[2] as f64));
    acc.add("sim.sup_total", sum(|t| t.sup_total as f64));
    acc.add("sim.sup_pt", sum(|t| t.sup_pt as f64));
    acc.add("bench.traced_step_wall_s", wall);
    out.merge_scaled(acc, probe.factor());
    campaign
}
