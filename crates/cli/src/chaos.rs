//! `lgg-sim chaos`: a seeded adversarial campaign over the whole fault
//! space, with failure shrinking.
//!
//! The paper's claims are adversarial — losses are adversary-controlled
//! (Section III), R-generalized nodes may lie (Definition 6(ii)), and the
//! conjectures cover bursts and churn — so the interesting engine bugs
//! live at the *composition* of fault models, not in any one of them.
//! This module randomly composes scenarios across topology × injection ×
//! loss × churn × liar declarations, runs every trial under the
//! [`InvariantGuard`], and — when a trial breaks an invariant — greedily
//! **shrinks** the failing scenario (shorter horizon, fewer fault models,
//! fewer nodes) to a minimal reproducer written to `results/chaos/`.
//!
//! Determinism: every trial derives from `campaign seed + trial index`,
//! trials are data-parallel on `parpool` (the pool decides *where* a
//! trial runs, never *what* it computes), and the campaign digest is an
//! FNV-1a over per-trial outcomes in input order — CI compares it across
//! `LGG_THREADS` settings. The engine is believed correct, so a clean
//! campaign is the expected result; `--inject-fault` plants a synthetic
//! conservation bug in every trial to exercise the
//! detect → shrink → reproduce pipeline end-to-end.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use simqueue::checkpoint::fnv1a;
use simqueue::{
    BudgetKind, FaultSpec, GuardConfig, GuardOutcome, GuardReport, HistoryMode, InvariantGuard,
    LggError, NoopObserver, SimOverrides, Violation,
};

use crate::{
    DeclarationSpec, DynamicsSpec, Endpoint, GeneralizedNode, InjectionSpec, LossSpec,
    ObserverSpec, ProtocolSpec, Scenario, TopologySpec,
};

/// Per-trial backlog budget: a runaway (legitimately diverging) random
/// scenario stops here instead of eating memory for the whole horizon.
const TRIAL_MAX_BACKLOG: u64 = 100_000;

/// Shrink iterations cap (each iteration applies at most one candidate).
const MAX_SHRINK_ROUNDS: usize = 40;

/// `lgg-sim chaos` invocation parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Trials in the campaign.
    pub trials: usize,
    /// Campaign master seed; trial `i` derives its own seed from it.
    pub seed: u64,
    /// Steps per trial.
    pub steps: u64,
    /// Where reproducers are written.
    pub out_dir: String,
    /// Plant a synthetic conservation fault at this step in every trial
    /// (test-only hook — exercises the shrink/reproduce pipeline).
    pub inject_fault: Option<u64>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            trials: 48,
            seed: 42,
            steps: 1500,
            out_dir: "results/chaos".into(),
            inject_fault: None,
        }
    }
}

impl ChaosConfig {
    /// The CI smoke configuration: small, fast, deterministic.
    pub fn smoke() -> Self {
        ChaosConfig {
            trials: 12,
            steps: 400,
            ..ChaosConfig::default()
        }
    }
}

/// A minimal failing scenario: everything needed to re-trigger the
/// recorded violation deterministically (`lgg-sim chaos --replay FILE`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reproducer {
    /// The (shrunk) scenario.
    pub scenario: Scenario,
    /// The master seed (duplicates `scenario.seed` for greppability).
    pub seed: u64,
    /// Steps to run (the shrunk horizon).
    pub steps: u64,
    /// The synthetic fault, when the violation was planted by the
    /// test-only hook rather than found in the engine.
    #[serde(default)]
    pub fault: Option<FaultSpec>,
    /// The violation this reproducer re-triggers.
    pub violation: Violation,
}

/// What one campaign run observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: usize,
    /// Trials that completed the full horizon violation-free.
    pub clean: usize,
    /// Trials stopped by the backlog budget (legitimately overloaded
    /// random scenarios — not engine bugs).
    pub budget: usize,
    /// Trials whose composed scenario failed to build (impossible
    /// parameter collisions; counted, never fatal).
    pub build_errors: usize,
    /// Trials that broke an invariant.
    pub violations: usize,
    /// FNV-1a digest over per-trial outcomes in input order — identical
    /// across `LGG_THREADS` settings by construction.
    pub digest: String,
    /// Reproducer files written (one per violating trial, post-shrink).
    pub reproducers: Vec<String>,
}

/// One trial's condensed, hashable outcome.
#[derive(Debug, Clone, PartialEq)]
enum TrialOutcome {
    Clean { steps: u64, sup_total: u64 },
    Budget { kind: BudgetKind, steps: u64 },
    BuildError(String),
    Violated(Box<(Scenario, Violation)>),
}

/// FNV-1a over every outcome in input order: a tag word, then the
/// outcome's fields as little-endian words or raw string bytes.
fn digest_outcomes(outcomes: &[TrialOutcome]) -> String {
    fn put(bytes: &mut Vec<u8>, words: &[u64], text: &str) {
        bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        bytes.extend_from_slice(text.as_bytes());
    }
    let mut bytes = Vec::new();
    for o in outcomes {
        match o {
            TrialOutcome::Clean { steps, sup_total } => {
                put(&mut bytes, &[0, *steps, *sup_total], "")
            }
            TrialOutcome::Budget { kind, steps } => {
                let k = match kind {
                    BudgetKind::Steps => 1,
                    BudgetKind::Backlog => 2,
                    BudgetKind::WallClock => 3,
                };
                put(&mut bytes, &[1, k, *steps], "");
            }
            TrialOutcome::BuildError(msg) => put(&mut bytes, &[2], msg),
            TrialOutcome::Violated(b) => put(&mut bytes, &[3, b.1.step], b.1.kind.as_str()),
        }
    }
    format!("{:016x}", fnv1a(&bytes))
}

/// The guard configuration chaos trials run under: the hard invariants
/// on, divergence *off* (random overloaded scenarios legitimately
/// diverge — that is the boundary being searched, not an engine bug),
/// and a backlog budget so runaways stop early. No wall-clock budget:
/// it would make outcomes timing-dependent and break the cross-thread
/// determinism digest.
fn trial_guard_config() -> GuardConfig {
    let mut cfg = GuardConfig::checks();
    cfg.max_backlog = Some(TRIAL_MAX_BACKLOG);
    cfg
}

/// Runs one scenario to `steps` under the chaos guard settings.
fn run_trial(sc: &Scenario, steps: u64, fault: Option<FaultSpec>) -> Result<GuardReport, LggError> {
    let spec = sc.traffic_spec()?;
    let guard = InvariantGuard::with_inner(&spec, trial_guard_config(), NoopObserver);
    let mut sim = sc.build_with_observer(
        SimOverrides {
            history: Some(HistoryMode::None),
            ..SimOverrides::default()
        },
        guard,
    )?;
    sim.run_guarded(steps, None, fault)
}

/// Derives trial `i`'s seed from the campaign seed (SplitMix64-style
/// increment keeps neighboring trials decorrelated).
fn trial_seed(campaign_seed: u64, i: usize) -> u64 {
    campaign_seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn pick_topology(rng: &mut StdRng) -> TopologySpec {
    match rng.random_range(0..9u32) {
        0 => TopologySpec::Path {
            n: rng.random_range(4..=16),
        },
        1 => TopologySpec::Cycle {
            n: rng.random_range(4..=16),
        },
        2 => TopologySpec::Grid2d {
            rows: rng.random_range(2..=5),
            cols: rng.random_range(2..=5),
        },
        3 => TopologySpec::Torus2d {
            rows: rng.random_range(3..=4),
            cols: rng.random_range(3..=4),
        },
        4 => TopologySpec::Dumbbell {
            clique: rng.random_range(2..=4),
            bridge: rng.random_range(1..=3),
        },
        5 => TopologySpec::LayeredDiamond {
            layers: rng.random_range(2..=4),
            width: rng.random_range(2..=3),
        },
        6 => TopologySpec::LeafSpine {
            leaves: rng.random_range(2..=3),
            spines: 2,
            trunks: 1,
            hosts_per_leaf: rng.random_range(1..=2),
        },
        7 => TopologySpec::ConnectedRandom {
            n: rng.random_range(8..=24),
            extra: rng.random_range(4..=16),
            seed: rng.random_range(0..1_000_000),
        },
        _ => TopologySpec::RandomGeometric {
            n: rng.random_range(12..=24),
            radius: 0.4 + rng.random_range(0..20u32) as f64 / 100.0,
            seed: rng.random_range(0..1_000_000),
        },
    }
}

fn distinct_nodes(rng: &mut StdRng, n: usize, count: usize) -> Vec<u32> {
    let count = count.min(n);
    let mut picked: Vec<u32> = Vec::with_capacity(count);
    while picked.len() < count {
        let v = rng.random_range(0..n as u32);
        if !picked.contains(&v) {
            picked.push(v);
        }
    }
    picked
}

fn pick_injection(rng: &mut StdRng) -> InjectionSpec {
    match rng.random_range(0..6u32) {
        0 => InjectionSpec::Exact,
        1 => InjectionSpec::Scaled { num: 1, den: 2 },
        2 => InjectionSpec::Bernoulli {
            p: 0.2 + rng.random_range(0..70u32) as f64 / 100.0,
        },
        3 => InjectionSpec::Uniform {
            mean: rng.random_range(1..=2),
        },
        4 => InjectionSpec::Burst {
            burst: rng.random_range(2..=6),
            quiet: rng.random_range(2..=6),
            amount: rng.random_range(1..=3),
        },
        _ => InjectionSpec::Trace {
            schedule: vec![1, 0, 2, 0, 1],
            scale: true,
        },
    }
}

fn pick_loss(rng: &mut StdRng) -> LossSpec {
    match rng.random_range(0..4u32) {
        0 => LossSpec::None,
        1 => LossSpec::Iid {
            p: 0.05 + rng.random_range(0..35u32) as f64 / 100.0,
        },
        2 => LossSpec::GilbertElliott {
            p_loss_good: 0.02,
            p_loss_bad: 0.3 + rng.random_range(0..40u32) as f64 / 100.0,
            p_g2b: 0.05,
            p_b2g: 0.25,
        },
        _ => LossSpec::Adversarial {
            budget: rng.random_range(1..=3),
        },
    }
}

fn pick_dynamics(rng: &mut StdRng) -> DynamicsSpec {
    match rng.random_range(0..4u32) {
        0 => DynamicsSpec::Static,
        1 => DynamicsSpec::Markov {
            p_fail: 0.01 + rng.random_range(0..9u32) as f64 / 100.0,
            p_repair: 0.2 + rng.random_range(0..40u32) as f64 / 100.0,
        },
        2 => DynamicsSpec::Rotating {
            k: rng.random_range(1..=2),
        },
        _ => DynamicsSpec::Periodic {
            affected: vec![0, 1],
            period: rng.random_range(8..=32),
            down_for: rng.random_range(2..=8),
        },
    }
}

fn pick_declaration(rng: &mut StdRng) -> DeclarationSpec {
    match rng.random_range(0..4u32) {
        0 => DeclarationSpec::Truthful,
        1 => DeclarationSpec::ZeroBelowR,
        2 => DeclarationSpec::FullRetention,
        _ => DeclarationSpec::RandomBelowR,
    }
}

fn pick_protocol(rng: &mut StdRng) -> ProtocolSpec {
    match rng.random_range(0..4u32) {
        0 => ProtocolSpec::Lgg,
        1 => ProtocolSpec::LggRandom,
        2 => ProtocolSpec::LggRoundRobin,
        _ => ProtocolSpec::MatchingLgg,
    }
}

/// Composes trial `i`'s scenario: one draw from every axis of the fault
/// space. Only the composition is random — the composed scenario is a
/// perfectly ordinary deterministic [`Scenario`].
pub fn compose_trial(campaign_seed: u64, i: usize, steps: u64) -> Scenario {
    let seed = trial_seed(campaign_seed, i);
    let mut rng = StdRng::seed_from_u64(seed);
    let topology = pick_topology(&mut rng);
    let n = topology
        .build()
        .expect("catalog topologies always build")
        .node_count();

    let declaration = pick_declaration(&mut rng);
    // Lying is only observable with R > 0 and a generalized node to do
    // the lying, so liar trials force both.
    let lying = declaration != DeclarationSpec::Truthful;
    let retention = if lying {
        rng.random_range(1..=6)
    } else {
        rng.random_range(0..=6)
    };

    // Endpoint layout: 1-2 sources, 1-2 sinks, 0-2 generalized nodes,
    // all distinct (the builder's last-write-wins would otherwise hide a
    // draw). Small topologies get the minimum layout.
    let extra_sources = usize::from(n >= 8 && rng.random_bool(0.5));
    let extra_sinks = usize::from(n >= 8 && rng.random_bool(0.5));
    let n_generalized = if lying {
        1 + usize::from(n >= 10 && rng.random_bool(0.5))
    } else if n >= 10 {
        rng.random_range(0..=2)
    } else {
        0
    };
    let wanted = 2 + extra_sources + extra_sinks + n_generalized;
    let nodes = distinct_nodes(&mut rng, n, wanted);
    let mut it = nodes.into_iter();
    let mut sources = vec![Endpoint {
        node: it.next().expect("n >= 2"),
        rate: rng.random_range(1..=2),
    }];
    let mut sinks = vec![Endpoint {
        node: it.next().expect("n >= 2"),
        rate: rng.random_range(1..=4),
    }];
    for _ in 0..extra_sources {
        if let Some(node) = it.next() {
            sources.push(Endpoint {
                node,
                rate: rng.random_range(1..=2),
            });
        }
    }
    for _ in 0..extra_sinks {
        if let Some(node) = it.next() {
            sinks.push(Endpoint {
                node,
                rate: rng.random_range(1..=3),
            });
        }
    }
    let mut generalized = Vec::new();
    for _ in 0..n_generalized {
        if let Some(node) = it.next() {
            let r#in = rng.random_range(0..=2);
            // The spec builder rejects a generalized node with in = out = 0
            // (it would declare nothing), so force at least one rate.
            let out = if r#in == 0 {
                rng.random_range(1..=2)
            } else {
                rng.random_range(0..=2)
            };
            generalized.push(GeneralizedNode { node, r#in, out });
        }
    }

    Scenario {
        topology,
        sources,
        sinks,
        generalized,
        retention,
        protocol: pick_protocol(&mut rng),
        injection: pick_injection(&mut rng),
        loss: pick_loss(&mut rng),
        dynamics: pick_dynamics(&mut rng),
        declaration,
        extraction: if rng.random_bool(0.5) {
            crate::ExtractionSpec::Max
        } else {
            crate::ExtractionSpec::Lazy
        },
        engine: crate::EngineSpec::Auto,
        telemetry: ObserverSpec::Off,
        steps,
        seed,
        track_ages: false,
    }
}

fn classify(sc: &Scenario, steps: u64, fault: Option<FaultSpec>) -> TrialOutcome {
    match run_trial(sc, steps, fault) {
        Err(e) => TrialOutcome::BuildError(e.to_string()),
        Ok(report) => match report.outcome {
            GuardOutcome::Completed => TrialOutcome::Clean {
                steps: report.steps,
                sup_total: report.stability.sup_total,
            },
            GuardOutcome::BudgetExceeded(kind) => TrialOutcome::Budget {
                kind,
                steps: report.steps,
            },
            GuardOutcome::Violated(v) => TrialOutcome::Violated(Box::new((sc.clone(), v))),
        },
    }
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Re-runs a candidate and returns the violation iff the *same kind*
/// still triggers (a different kind means the candidate changed the
/// failure, not simplified it).
fn reproduces(
    sc: &Scenario,
    steps: u64,
    fault: Option<FaultSpec>,
    kind: simqueue::ViolationKind,
) -> Option<Violation> {
    match run_trial(sc, steps, fault) {
        Ok(GuardReport {
            outcome: GuardOutcome::Violated(v),
            ..
        }) if v.kind == kind => Some(v),
        _ => None,
    }
}

/// Halves a topology, or `None` when it is already minimal.
fn shrink_topology(t: &TopologySpec) -> Option<TopologySpec> {
    Some(match t {
        TopologySpec::Path { n } if *n > 2 => TopologySpec::Path { n: (n / 2).max(2) },
        TopologySpec::Cycle { n } if *n > 3 => TopologySpec::Cycle { n: (n / 2).max(3) },
        TopologySpec::Grid2d { rows, cols } if *rows > 2 || *cols > 2 => TopologySpec::Grid2d {
            rows: (rows / 2).max(2),
            cols: (cols / 2).max(2),
        },
        TopologySpec::Torus2d { rows, cols } if *rows > 3 || *cols > 3 => TopologySpec::Torus2d {
            rows: (rows / 2).max(3),
            cols: (cols / 2).max(3),
        },
        TopologySpec::Dumbbell { clique, bridge } if *clique > 1 || *bridge > 1 => {
            TopologySpec::Dumbbell {
                clique: (clique / 2).max(1),
                bridge: (bridge / 2).max(1),
            }
        }
        TopologySpec::LayeredDiamond { layers, width } if *layers > 1 || *width > 1 => {
            TopologySpec::LayeredDiamond {
                layers: (layers / 2).max(1),
                width: (width / 2).max(1),
            }
        }
        TopologySpec::LeafSpine {
            leaves,
            spines,
            trunks,
            hosts_per_leaf,
        } if *leaves > 2 || *hosts_per_leaf > 1 => TopologySpec::LeafSpine {
            leaves: (leaves / 2).max(2),
            spines: *spines,
            trunks: *trunks,
            hosts_per_leaf: (hosts_per_leaf / 2).max(1),
        },
        TopologySpec::ConnectedRandom { n, extra, seed } if *n > 4 => {
            TopologySpec::ConnectedRandom {
                n: (n / 2).max(4),
                extra: extra / 2,
                seed: *seed,
            }
        }
        TopologySpec::RandomGeometric { n, radius, seed } if *n > 6 => {
            TopologySpec::RandomGeometric {
                n: (n / 2).max(6),
                radius: *radius,
                seed: *seed,
            }
        }
        _ => return None,
    })
}

/// Remaps every endpooint of `sc` into a smaller topology's node range,
/// rejecting the candidate when the remap collides (a collision would
/// silently merge two endpoints and change the failure, not shrink it).
fn remap_endpoints(sc: &Scenario, shrunk: TopologySpec) -> Option<Scenario> {
    let n = shrunk.build().ok()?.node_count() as u32;
    if n == 0 {
        return None;
    }
    let mut out = sc.clone();
    out.topology = shrunk;
    let mut seen = Vec::new();
    let mut remap = |node: u32| -> Option<u32> {
        let v = node % n;
        if seen.contains(&v) {
            None
        } else {
            seen.push(v);
            Some(v)
        }
    };
    for s in &mut out.sources {
        s.node = remap(s.node)?;
    }
    for s in &mut out.sinks {
        s.node = remap(s.node)?;
    }
    for g in &mut out.generalized {
        g.node = remap(g.node)?;
    }
    Some(out)
}

/// The shrink candidates for the current failing scenario, in order of
/// preference: drop whole fault models first (big semantic wins), then
/// endpoints, then topology size. The horizon is shrunk separately — it
/// is exact, not a candidate (prefix determinism: a violation at step
/// `s` reproduces verbatim with any horizon `> s`).
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    if sc.loss != LossSpec::None {
        out.push(Scenario {
            loss: LossSpec::None,
            ..sc.clone()
        });
    }
    if sc.dynamics != DynamicsSpec::Static {
        out.push(Scenario {
            dynamics: DynamicsSpec::Static,
            ..sc.clone()
        });
    }
    if sc.declaration != DeclarationSpec::Truthful {
        out.push(Scenario {
            declaration: DeclarationSpec::Truthful,
            ..sc.clone()
        });
    }
    if sc.injection != InjectionSpec::Exact {
        out.push(Scenario {
            injection: InjectionSpec::Exact,
            ..sc.clone()
        });
    }
    if sc.extraction != crate::ExtractionSpec::Max {
        out.push(Scenario {
            extraction: crate::ExtractionSpec::Max,
            ..sc.clone()
        });
    }
    if !sc.generalized.is_empty() {
        out.push(Scenario {
            generalized: Vec::new(),
            ..sc.clone()
        });
    }
    if sc.sources.len() > 1 {
        out.push(Scenario {
            sources: sc.sources[..1].to_vec(),
            ..sc.clone()
        });
    }
    if sc.sinks.len() > 1 {
        out.push(Scenario {
            sinks: sc.sinks[..1].to_vec(),
            ..sc.clone()
        });
    }
    if let Some(shrunk) = shrink_topology(&sc.topology) {
        if let Some(remapped) = remap_endpoints(sc, shrunk) {
            out.push(remapped);
        }
    }
    out
}

/// Greedy shrink to fixpoint: repeatedly apply the first candidate that
/// still reproduces the violation (same kind), re-tightening the horizon
/// to `violation.step + 1` after every acceptance.
pub fn shrink(
    sc: &Scenario,
    steps: u64,
    fault: Option<FaultSpec>,
    violation: &Violation,
) -> (Scenario, u64, Violation) {
    let kind = violation.kind;
    let mut cur = sc.clone();
    let mut cur_steps = (violation.step + 1).min(steps);
    let mut cur_violation = violation.clone();
    // The tightened horizon itself must reproduce (it always does — the
    // trajectory prefix is deterministic — but verify rather than trust).
    match reproduces(&cur, cur_steps, fault, kind) {
        Some(v) => cur_violation = v,
        None => cur_steps = steps,
    }
    for _ in 0..MAX_SHRINK_ROUNDS {
        let mut advanced = false;
        for cand in candidates(&cur) {
            if let Some(v) = reproduces(&cand, cur_steps, fault, kind) {
                let tightened = (v.step + 1).min(cur_steps);
                cur = cand;
                cur_violation = v;
                if tightened < cur_steps {
                    if let Some(v2) = reproduces(&cur, tightened, fault, kind) {
                        cur_steps = tightened;
                        cur_violation = v2;
                    }
                }
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    (cur, cur_steps, cur_violation)
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Writes `repro` as pretty JSON into `dir`, named after the violation
/// kind and trial index.
pub fn write_reproducer(dir: &Path, trial: usize, repro: &Reproducer) -> Result<PathBuf, LggError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| LggError::io(format!("cannot create {}", dir.display()), e))?;
    let path = dir.join(format!(
        "repro_{}_t{trial}.json",
        repro.violation.kind.as_str()
    ));
    let json = serde_json::to_string_pretty(repro)?;
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| LggError::io(format!("cannot write {}", path.display()), e))?;
    Ok(path)
}

/// Runs the campaign: compose, guard, shrink, reproduce.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, LggError> {
    let scenarios: Vec<Scenario> = (0..cfg.trials)
        .map(|i| compose_trial(cfg.seed, i, cfg.steps))
        .collect();
    let fault = cfg
        .inject_fault
        .map(|step| FaultSpec {
            step: step.min(cfg.steps.saturating_sub(1)),
            node: 0,
            amount: 1,
        });

    eprintln!(
        "chaos: {} trials x {} steps, seed {}{}...",
        cfg.trials,
        cfg.steps,
        cfg.seed,
        if fault.is_some() {
            " (synthetic conservation fault planted)"
        } else {
            ""
        }
    );
    let outcomes: Vec<TrialOutcome> = parpool::run_ordered(scenarios.iter().collect(), |sc| {
        classify(sc, cfg.steps, fault)
    });

    let digest = digest_outcomes(&outcomes);
    let mut report = ChaosReport {
        trials: cfg.trials,
        clean: 0,
        budget: 0,
        build_errors: 0,
        violations: 0,
        digest,
        reproducers: Vec::new(),
    };
    let out_dir = PathBuf::from(&cfg.out_dir);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            TrialOutcome::Clean { .. } => report.clean += 1,
            TrialOutcome::Budget { .. } => report.budget += 1,
            TrialOutcome::BuildError(msg) => {
                report.build_errors += 1;
                eprintln!("chaos: trial {i} failed to build: {msg}");
            }
            TrialOutcome::Violated(boxed) => {
                let (sc, violation) = *boxed;
                report.violations += 1;
                eprintln!(
                    "chaos: trial {i} VIOLATED {} at step {} — shrinking...",
                    violation.kind, violation.step
                );
                let (shrunk, steps, v) = shrink(&sc, cfg.steps, fault, &violation);
                let repro = Reproducer {
                    seed: shrunk.seed,
                    scenario: shrunk,
                    steps,
                    fault,
                    violation: v,
                };
                let path = write_reproducer(&out_dir, i, &repro)?;
                eprintln!(
                    "chaos: trial {i} shrunk to {} steps -> {}",
                    steps,
                    path.display()
                );
                report.reproducers.push(path.display().to_string());
            }
        }
    }
    Ok(report)
}

/// Replays a reproducer file. `Ok(Some(violation))` means the recorded
/// violation re-triggered (same kind and step — the deterministic-replay
/// guarantee); `Ok(None)` means the run stayed clean or failed
/// differently, i.e. the reproducer is stale.
pub fn replay_reproducer(path: &str) -> Result<Option<Violation>, LggError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LggError::io(format!("cannot read {path}"), e))?;
    let repro: Reproducer = serde_json::from_str(&text)?;
    let report = run_trial(&repro.scenario, repro.steps, repro.fault)?;
    match report.outcome {
        GuardOutcome::Violated(v)
            if v.kind == repro.violation.kind && v.step == repro.violation.step =>
        {
            Ok(Some(v))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simqueue::ViolationKind;

    #[test]
    fn composed_trials_build_and_run() {
        // Every composed scenario across a block of trial indices must
        // build a valid traffic spec (the composer promises this).
        for i in 0..24 {
            let sc = compose_trial(7, i, 50);
            let spec = sc.traffic_spec().unwrap_or_else(|e| panic!("trial {i}: {e}"));
            assert!(spec.node_count() >= 2, "trial {i}");
            let report = run_trial(&sc, 50, None).unwrap_or_else(|e| panic!("trial {i}: {e}"));
            assert!(
                !matches!(report.outcome, GuardOutcome::Violated(_)),
                "trial {i}: clean engine must not violate: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn composition_is_deterministic() {
        for i in [0, 3, 11] {
            assert_eq!(compose_trial(5, i, 100), compose_trial(5, i, 100));
        }
        // Different trials give different scenarios (astronomically
        // unlikely to collide on every axis).
        assert_ne!(compose_trial(5, 0, 100), compose_trial(5, 1, 100));
    }

    #[test]
    fn smoke_campaign_is_clean_and_deterministic() {
        let cfg = ChaosConfig {
            out_dir: std::env::temp_dir()
                .join("lgg_chaos_test_none")
                .display()
                .to_string(),
            ..ChaosConfig::smoke()
        };
        let a = run_chaos(&cfg).unwrap();
        assert_eq!(a.violations, 0, "clean engine must survive the campaign");
        assert_eq!(a.trials, 12);
        assert_eq!(a.clean + a.budget + a.build_errors, 12);
        let b = run_chaos(&cfg).unwrap();
        assert_eq!(a.digest, b.digest);
        // The digest `lgg-sim chaos --smoke` prints, pinned.
        assert_eq!(a.digest, "e1c95e5e4437d1d2");
    }

    #[test]
    fn planted_fault_is_found_shrunk_and_replayable() {
        let dir = std::env::temp_dir().join(format!("lgg_chaos_fault_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ChaosConfig {
            trials: 2,
            steps: 200,
            seed: 9,
            out_dir: dir.display().to_string(),
            inject_fault: Some(60),
        };
        let report = run_chaos(&cfg).unwrap();
        assert_eq!(report.violations, 2, "the planted fault must be caught");
        assert_eq!(report.reproducers.len(), 2);
        for path in &report.reproducers {
            let text = std::fs::read_to_string(path).unwrap();
            let repro: Reproducer = serde_json::from_str(&text).unwrap();
            assert_eq!(repro.violation.kind, ViolationKind::Conservation);
            assert_eq!(repro.violation.step, 60);
            // The shrunk horizon is tight: just past the violation.
            assert_eq!(repro.steps, 61);
            // And the reproducer re-triggers deterministically.
            let v = replay_reproducer(path).unwrap().expect("must re-trigger");
            assert_eq!(v.step, repro.violation.step);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shrink_drops_irrelevant_fault_models() {
        // A conservation fault planted at step 30 reproduces independent
        // of loss/dynamics/declaration, so shrinking must strip them.
        let sc = Scenario {
            loss: LossSpec::Iid { p: 0.2 },
            dynamics: DynamicsSpec::Rotating { k: 1 },
            declaration: DeclarationSpec::FullRetention,
            retention: 3,
            generalized: vec![GeneralizedNode {
                node: 4,
                r#in: 1,
                out: 1,
            }],
            ..compose_trial(1, 0, 200)
        };
        let sc = Scenario {
            topology: TopologySpec::Grid2d { rows: 4, cols: 4 },
            sources: vec![Endpoint { node: 0, rate: 1 }],
            sinks: vec![Endpoint { node: 15, rate: 2 }],
            ..sc
        };
        let fault = Some(FaultSpec {
            step: 30,
            node: 1,
            amount: 2,
        });
        let v = reproduces(&sc, 200, fault, ViolationKind::Conservation)
            .expect("planted fault triggers");
        let (shrunk, steps, v2) = shrink(&sc, 200, fault, &v);
        assert_eq!(steps, 31);
        assert_eq!(v2.step, 30);
        assert_eq!(shrunk.loss, LossSpec::None);
        assert_eq!(shrunk.dynamics, DynamicsSpec::Static);
        assert_eq!(shrunk.declaration, DeclarationSpec::Truthful);
        assert!(shrunk.generalized.is_empty());
        // Topology got halved at least once.
        assert!(matches!(
            shrunk.topology,
            TopologySpec::Grid2d { rows, cols } if rows <= 2 && cols <= 2
        ));
    }

    #[test]
    fn replay_of_a_stale_reproducer_reports_none() {
        let dir = std::env::temp_dir().join(format!("lgg_chaos_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // A reproducer whose scenario never violates (no fault recorded).
        let sc = compose_trial(3, 0, 50);
        let repro = Reproducer {
            seed: sc.seed,
            scenario: sc,
            steps: 50,
            fault: None,
            violation: Violation {
                kind: ViolationKind::Conservation,
                step: 10,
                detail: "stale".into(),
            },
        };
        let path = dir.join("stale.json");
        std::fs::write(&path, serde_json::to_string(&repro).unwrap()).unwrap();
        let out = replay_reproducer(path.to_str().unwrap()).unwrap();
        assert!(out.is_none(), "stale reproducer must not claim success");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
