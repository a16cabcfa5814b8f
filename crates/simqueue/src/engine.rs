//! The synchronous simulation engine.
//!
//! Two stepping strategies implement the same seven-phase semantics:
//!
//! * [`EngineMode::SparseActive`] (default) — the hot path is organized
//!   around the **active-node set** `{v : q_t(v) > 0}`. Injection and
//!   extraction iterate precomputed source/sink lists, declaration touches
//!   only nodes whose queue changed (for stateless policies), the network
//!   state `P_t = Σ q²` and total `Σ q` are maintained incrementally from
//!   per-node deltas, and plan validation replaces its O(m) `edge_used`
//!   clear with per-edge generation stamps. Cost per step is
//!   O(active + plan) instead of O(n + m).
//! * [`EngineMode::DenseReference`] — the straightforward full-scan
//!   implementation. It is kept verbatim as the semantic reference (the
//!   sparse mode must match it bit for bit, RNG streams included; the
//!   equivalence tests below and the property suite enforce this) and as
//!   the baseline the throughput harness compares against.
//! * [`EngineMode::Auto`] — measures the active-set density every
//!   [`AUTO_CHECK_INTERVAL`] steps and delegates to whichever strategy is
//!   cheaper for the current regime (sparse bookkeeping is pure overhead
//!   once most of `V` holds packets — LGG's saturated gradient regime).
//!   Because the two strategies are bit-for-bit identical, switching
//!   between them mid-run cannot change any observable outcome, so `Auto`
//!   inherits the same determinism guarantee.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use mgraph::NodeId;
use netmodel::{TrafficIndex, TrafficSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ages::AgeState;
use crate::checkpoint::{self, wire, CheckpointConfig};
use crate::declare::{clamp_declaration, DeclarationPolicy, TruthfulDeclaration};
use crate::dynamic::{StaticTopology, TopologyProcess};
use crate::error::LggError;
use crate::injection::{ExactInjection, InjectionProcess};
use crate::loss::{LossModel, NoLoss};
use crate::metrics::{HistoryMode, Metrics, Snapshot};
use crate::protocol::{NetView, RoutingProtocol, Transmission};
use crate::rng::{split_seed, streams};
use crate::trace::{NoopObserver, SimObserver, TraceEvent};

/// Which stepping strategy the engine uses. All modes produce identical
/// trajectories and metrics for the same seed; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Active-set stepping: O(active + plan) per step.
    #[default]
    SparseActive,
    /// Full-scan stepping: O(n + m) per step. The semantic reference and
    /// throughput baseline.
    DenseReference,
    /// Adaptive: re-measures the active-set density every
    /// [`AUTO_CHECK_INTERVAL`] steps and runs the sparse strategy below
    /// [`AUTO_SPARSE_BELOW`], the dense strategy above
    /// [`AUTO_DENSE_ABOVE`] (hysteresis in between). The scenario runner
    /// (`lgg-sim`) defaults to this mode.
    Auto,
}

/// Steps between density checks in [`EngineMode::Auto`]. The check is an
/// O(1) list-length read in the sparse regime and an O(n) queue scan in
/// the dense regime, so the amortized overhead is ≤ one node-read per
/// step either way.
pub const AUTO_CHECK_INTERVAL: u64 = 64;

/// [`EngineMode::Auto`] switches to dense stepping when at least this
/// fraction of nodes hold packets. Calibrated against the engine cases
/// `lgg-sim bench` once ran, whose numbers survive only as the historical
/// `cases` in `BENCH_throughput.json`: the dense engine's full-scan
/// advantage (no active-set maintenance) only materializes once roughly
/// half of `V` is active — `lgg-gradient-16x16` and `random-512-dense`
/// sat near density 1 and ran 1.1–1.3× faster dense, while the steady
/// grids sat below density 0.05 and ran 2–7× faster sparse.
pub const AUTO_DENSE_ABOVE: f64 = 0.5;

/// [`EngineMode::Auto`] switches back to sparse stepping when the active
/// fraction falls below this value. Strictly less than
/// [`AUTO_DENSE_ABOVE`] so a density hovering at the boundary cannot
/// oscillate (each dense→sparse switch pays an O(n + m) state rebuild).
pub const AUTO_SPARSE_BELOW: f64 = 0.375;

/// Decides how many packets an extractor removes at the end of a step.
///
/// The engine clamps the result to Definition 7(i)'s envelope:
/// `min(out, q − R) <= extracted <= min(out, q)` when `q > R`, and
/// `0 <= extracted <= min(out, q)` otherwise. Classic sinks (`R = 0`) are
/// therefore forced to extract exactly `min(out, q)` under
/// [`MaxExtraction`], matching Section II.
pub trait ExtractionPolicy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Raw extraction amount before legality clamping.
    fn extract(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng)
        -> u64;

    /// Appends the policy's evolving state to `out` for a checkpoint (see
    /// [`crate::checkpoint`]). Both shipped policies are pure functions of
    /// `(spec, v, q)`, so the default writes nothing; custom stateful
    /// policies must override both hooks.
    fn save_state(&mut self, _out: &mut Vec<u8>) {}

    /// Restores state captured by [`ExtractionPolicy::save_state`].
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), LggError> {
        Ok(())
    }
}

/// Extract as much as allowed: `min(out, q)` — the classic sink behavior.
#[derive(Debug, Default, Clone, Copy)]
pub struct MaxExtraction;

impl ExtractionPolicy for MaxExtraction {
    fn name(&self) -> &'static str {
        "max"
    }

    fn extract(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        q.min(spec.out_rate(v))
    }
}

/// Extract as *little* as Definition 7(i) allows: `min(out, q − R)` above
/// the retention threshold, nothing below — the laziest legal
/// R-pseudo-destination.
#[derive(Debug, Default, Clone, Copy)]
pub struct LazyExtraction;

impl ExtractionPolicy for LazyExtraction {
    fn name(&self) -> &'static str {
        "lazy"
    }

    fn extract(
        &mut self,
        spec: &TrafficSpec,
        v: NodeId,
        q: u64,
        _t: u64,
        _rng: &mut StdRng,
    ) -> u64 {
        if q > spec.retention {
            (q - spec.retention).min(spec.out_rate(v))
        } else {
            0
        }
    }
}

/// Clamps a raw extraction to Definition 7(i)'s envelope.
fn clamp_extraction(spec: &TrafficSpec, v: NodeId, q: u64, raw: u64) -> u64 {
    let out = spec.out_rate(v);
    let upper = q.min(out);
    let lower = if q > spec.retention {
        (q - spec.retention).min(out)
    } else {
        0
    };
    raw.clamp(lower, upper)
}

/// Adds `amt` packets to `v`'s queue, maintaining the incremental `Σ q²`
/// and `Σ q` accumulators; a node waking from empty is recorded in `woken`
/// for the next active-set merge.
#[inline]
fn credit_queue(
    queues: &mut [u64],
    acc_pt: &mut u128,
    acc_total: &mut u64,
    woken: &mut Vec<NodeId>,
    v: NodeId,
    amt: u64,
) {
    if amt == 0 {
        return;
    }
    let q = queues[v.index()];
    let nq = q + amt;
    queues[v.index()] = nq;
    *acc_pt += (nq as u128) * (nq as u128) - (q as u128) * (q as u128);
    *acc_total += amt;
    if q == 0 {
        woken.push(v);
    }
}

/// Removes `amt` packets from `v`'s queue, maintaining the accumulators.
/// A node draining to empty stays in the active list until the end-of-step
/// sweep removes it.
#[inline]
fn debit_queue(queues: &mut [u64], acc_pt: &mut u128, acc_total: &mut u64, v: NodeId, amt: u64) {
    if amt == 0 {
        return;
    }
    let q = queues[v.index()];
    let nq = q - amt;
    queues[v.index()] = nq;
    *acc_pt -= (q as u128) * (q as u128) - (nq as u128) * (nq as u128);
    *acc_total -= amt;
}

/// Merges the (unsorted, possibly duplicated) `woken` list into the
/// sorted, duplicate-free `active` list via `scratch`.
fn merge_woken(active: &mut Vec<NodeId>, woken: &mut Vec<NodeId>, scratch: &mut Vec<NodeId>) {
    if woken.is_empty() {
        return;
    }
    woken.sort_unstable();
    woken.dedup();
    scratch.clear();
    scratch.reserve(active.len() + woken.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < active.len() && j < woken.len() {
        match active[i].cmp(&woken[j]) {
            std::cmp::Ordering::Less => {
                scratch.push(active[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                scratch.push(woken[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                scratch.push(active[i]);
                i += 1;
                j += 1;
            }
        }
    }
    scratch.extend_from_slice(&active[i..]);
    scratch.extend_from_slice(&woken[j..]);
    std::mem::swap(active, scratch);
    woken.clear();
}

/// Builder for [`Simulation`] with sensible classic-network defaults:
/// exact injection, no loss, static topology, truthful declarations,
/// maximal extraction.
///
/// ```
/// use simqueue::{protocol::NullProtocol, SimulationBuilder};
/// use netmodel::TrafficSpecBuilder;
///
/// let spec = TrafficSpecBuilder::new(mgraph::generators::path(3))
///     .source(0, 2)
///     .sink(2, 2)
///     .build()
///     .unwrap();
/// let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
///     .seed(7)
///     .build();
/// sim.run(10);
/// // Nothing routes under the null protocol: all packets sit at the source.
/// assert_eq!(sim.queues()[0], 20);
/// ```
///
/// Telemetry: [`SimulationBuilder::observer`] swaps in any
/// [`SimObserver`]; the default [`NoopObserver`] keeps the step loop
/// trace-free at zero cost.
pub struct SimulationBuilder<O: SimObserver = NoopObserver> {
    spec: TrafficSpec,
    protocol: Box<dyn RoutingProtocol>,
    injection: Box<dyn InjectionProcess>,
    loss: Box<dyn LossModel>,
    topology: Box<dyn TopologyProcess>,
    declaration: Box<dyn DeclarationPolicy>,
    extraction: Box<dyn ExtractionPolicy>,
    seed: u64,
    history: HistoryMode,
    initial_queues: Option<Vec<u64>>,
    track_ages: bool,
    mode: EngineMode,
    observer: O,
}

impl SimulationBuilder<NoopObserver> {
    /// Starts a builder for `spec` driven by `protocol`.
    pub fn new(spec: TrafficSpec, protocol: Box<dyn RoutingProtocol>) -> Self {
        SimulationBuilder {
            spec,
            protocol,
            injection: Box::new(ExactInjection),
            loss: Box::new(NoLoss),
            topology: Box::new(StaticTopology),
            declaration: Box::new(TruthfulDeclaration),
            extraction: Box::new(MaxExtraction),
            seed: 0xC0FFEE,
            history: HistoryMode::Sampled(16),
            initial_queues: None,
            track_ages: false,
            mode: EngineMode::SparseActive,
            observer: NoopObserver,
        }
    }
}

impl<O: SimObserver> SimulationBuilder<O> {
    /// Installs `observer` as the simulation's telemetry sink, replacing
    /// the current one (the type parameter changes with it, so this works
    /// from the [`NoopObserver`] default and between real observers
    /// alike).
    pub fn observer<O2: SimObserver>(self, observer: O2) -> SimulationBuilder<O2> {
        SimulationBuilder {
            spec: self.spec,
            protocol: self.protocol,
            injection: self.injection,
            loss: self.loss,
            topology: self.topology,
            declaration: self.declaration,
            extraction: self.extraction,
            seed: self.seed,
            history: self.history,
            initial_queues: self.initial_queues,
            track_ages: self.track_ages,
            mode: self.mode,
            observer,
        }
    }

    /// Sets the injection process.
    pub fn injection(mut self, i: Box<dyn InjectionProcess>) -> Self {
        self.injection = i;
        self
    }

    /// Sets the loss model.
    pub fn loss(mut self, l: Box<dyn LossModel>) -> Self {
        self.loss = l;
        self
    }

    /// Sets the topology process.
    pub fn topology(mut self, t: Box<dyn TopologyProcess>) -> Self {
        self.topology = t;
        self
    }

    /// Sets the declaration policy.
    pub fn declaration(mut self, d: Box<dyn DeclarationPolicy>) -> Self {
        self.declaration = d;
        self
    }

    /// Sets the extraction policy.
    pub fn extraction(mut self, e: Box<dyn ExtractionPolicy>) -> Self {
        self.extraction = e;
        self
    }

    /// Sets the master seed (all randomness derives from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the history recording mode.
    pub fn history(mut self, h: HistoryMode) -> Self {
        self.history = h;
        self
    }

    /// Selects the stepping strategy (default: [`EngineMode::SparseActive`]).
    pub fn engine_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Starts the run from the given queue vector instead of all-empty —
    /// used by the drift experiments that warm-start above `nY²`.
    pub fn initial_queues(mut self, q: Vec<u64>) -> Self {
        self.initial_queues = Some(q);
        self
    }

    /// Enables per-packet age tracking (FIFO service discipline): the run
    /// then records true latency distributions, readable via
    /// [`Simulation::latency_stats`]. Costs one timestamp per stored
    /// packet.
    pub fn track_ages(mut self, on: bool) -> Self {
        self.track_ages = on;
        self
    }

    /// Finalizes the simulation.
    pub fn build(self) -> Simulation<O> {
        let n = self.spec.node_count();
        let m = self.spec.graph.edge_count();
        let queues = match self.initial_queues {
            Some(q) => {
                assert_eq!(q.len(), n, "initial queue vector length");
                q
            }
            None => vec![0; n],
        };
        let ages = self.track_ages.then(|| {
            let mut a = AgeState::new(n);
            a.seed(&queues);
            a
        });
        let traffic = TrafficIndex::new(&self.spec);
        let acc_pt: u128 = queues.iter().map(|&q| (q as u128) * (q as u128)).sum();
        let acc_total: u64 = queues.iter().sum();
        let active: Vec<NodeId> = self
            .spec
            .graph
            .nodes()
            .filter(|v| queues[v.index()] > 0)
            .collect();
        let mut declaration = self.declaration;
        let stateless_declaration = declaration.is_stateless();
        let idle_declared: Vec<u64> = if stateless_declaration {
            // A stateless policy ignores t and the RNG, so what a node
            // declares while empty is a run constant we can precompute
            // (FullRetention-style liars declare R > 0 even when idle).
            let mut scratch_rng = StdRng::seed_from_u64(0);
            self.spec
                .graph
                .nodes()
                .map(|v| {
                    let raw = declaration.declare(&self.spec, v, 0, 0, &mut scratch_rng);
                    clamp_declaration(&self.spec, v, 0, raw)
                })
                .collect()
        } else {
            vec![0; n]
        };
        let declared = if stateless_declaration {
            idle_declared.clone()
        } else {
            vec![0; n]
        };
        // Auto picks its starting regime from the initial density (warm
        // starts can begin saturated).
        let auto_dense = self.mode == EngineMode::Auto
            && active.len() as f64 / n.max(1) as f64 >= AUTO_DENSE_ABOVE;
        Simulation {
            ages,
            queues,
            declared,
            idle_declared,
            stateless_declaration,
            active_edges: vec![true; m],
            prev_active_edges: Vec::new(),
            arrivals: vec![0; n],
            plan: Vec::new(),
            lost_mask: Vec::new(),
            edge_used: vec![false; m],
            budget: vec![0; n],
            active,
            woken: Vec::new(),
            node_scratch: Vec::new(),
            touched: Vec::new(),
            declared_dirty: Vec::new(),
            acc_pt,
            acc_total,
            stamp: 0,
            edge_stamp: vec![0; m],
            budget_stamp: vec![0; n],
            all_nodes: self.spec.graph.nodes().collect(),
            traffic,
            auto_dense,
            mode: self.mode,
            t: 0,
            metrics: {
                let mut m = Metrics::new();
                m.link_sends = vec![0; self.spec.graph.edge_count()];
                m
            },
            rng_injection: StdRng::seed_from_u64(split_seed(self.seed, streams::INJECTION)),
            rng_loss: StdRng::seed_from_u64(split_seed(self.seed, streams::LOSS)),
            rng_topology: StdRng::seed_from_u64(split_seed(self.seed, streams::TOPOLOGY)),
            rng_policy: StdRng::seed_from_u64(split_seed(self.seed, streams::POLICY)),
            spec: self.spec,
            protocol: self.protocol,
            injection: self.injection,
            loss: self.loss,
            topology: self.topology,
            declaration,
            extraction: self.extraction,
            history: self.history,
            observer: self.observer,
            checkpoint: None,
        }
    }
}

/// Construction-time overrides a run driver threads into a scenario-built
/// simulation — the one bag of knobs `Scenario::build` (CLI), the sweep
/// grid, and the experiment harness all accept, so a new capability wired
/// here reaches every entry point at once.
#[derive(Default)]
pub struct SimOverrides {
    /// Replaces the scenario's master seed.
    pub seed: Option<u64>,
    /// Replaces the scenario's engine mode.
    pub engine: Option<EngineMode>,
    /// Replaces the scenario's history mode.
    pub history: Option<HistoryMode>,
    /// Installs a custom observer in place of the scenario's telemetry
    /// section.
    pub observer: Option<Box<dyn SimObserver>>,
    /// Enables periodic crash-safe checkpointing on the built simulation
    /// (see [`Simulation::set_checkpoint`]).
    pub checkpoint: Option<CheckpointConfig>,
}

/// A running simulation of one protocol on one network.
///
/// The `O` parameter is the installed [`SimObserver`]; the default
/// [`NoopObserver`] keeps existing `Simulation` signatures valid and the
/// step loop telemetry-free.
pub struct Simulation<O: SimObserver = NoopObserver> {
    spec: TrafficSpec,
    /// Precomputed source/sink/special-node lists (ascending node order).
    traffic: TrafficIndex,
    mode: EngineMode,
    /// [`EngineMode::Auto`]'s current regime: `true` while delegating to
    /// the dense strategy. Unused in the fixed modes.
    auto_dense: bool,
    protocol: Box<dyn RoutingProtocol>,
    injection: Box<dyn InjectionProcess>,
    loss: Box<dyn LossModel>,
    topology: Box<dyn TopologyProcess>,
    declaration: Box<dyn DeclarationPolicy>,
    extraction: Box<dyn ExtractionPolicy>,
    history: HistoryMode,

    queues: Vec<u64>,
    declared: Vec<u64>,
    /// What each node declares when its queue is empty — precomputed for
    /// stateless declaration policies so idle nodes need no per-step call.
    idle_declared: Vec<u64>,
    stateless_declaration: bool,
    active_edges: Vec<bool>,
    /// Last step's link states, kept only while an observer is enabled —
    /// phase 1 diffs it against `active_edges` to emit link flip events.
    prev_active_edges: Vec<bool>,

    // Active-set state (sparse mode). `active` is sorted, duplicate-free,
    // and equals {v : q > 0} exactly at the start of every step.
    active: Vec<NodeId>,
    /// Nodes whose queue went 0 → positive since the last merge.
    woken: Vec<NodeId>,
    node_scratch: Vec<NodeId>,
    /// Receivers that got at least one surviving packet this step.
    touched: Vec<NodeId>,
    /// Nodes written in the last declaration pass — exactly the entries of
    /// `declared` that may differ from `idle_declared`.
    declared_dirty: Vec<NodeId>,
    /// Incremental `P_t = Σ q²`.
    acc_pt: u128,
    /// Incremental `Σ q`.
    acc_total: u64,
    /// Generation counter for the stamp vectors below; bumped once per
    /// validation pass so "clearing" `edge_used`/`budget` is free.
    stamp: u64,
    edge_stamp: Vec<u64>,
    budget_stamp: Vec<u64>,

    // Reused per-step scratch (allocation-free hot loop).
    arrivals: Vec<u64>,
    plan: Vec<Transmission>,
    lost_mask: Vec<bool>,
    /// Dense-reference-mode link occupancy (the sparse path uses stamps).
    edge_used: Vec<bool>,
    budget: Vec<u64>,
    /// All of `V`, exposed as the dense mode's `active_nodes` view.
    all_nodes: Vec<NodeId>,

    t: u64,
    metrics: Metrics,
    ages: Option<AgeState>,
    observer: O,
    rng_injection: StdRng,
    rng_loss: StdRng,
    rng_topology: StdRng,
    rng_policy: StdRng,
    /// When set, [`Simulation::run_until`] writes periodic crash-safe
    /// snapshots (see [`crate::checkpoint`]).
    checkpoint: Option<CheckpointConfig>,
}

impl<O: SimObserver> Simulation<O> {
    /// The traffic specification being simulated.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// The stepping strategy in use.
    pub fn engine_mode(&self) -> EngineMode {
        self.mode
    }

    /// Current step count.
    pub fn time(&self) -> u64 {
        self.t
    }

    /// Current queue lengths.
    pub fn queues(&self) -> &[u64] {
        &self.queues
    }

    /// Current network state `P_t = Σ q²`, recomputed from scratch — an
    /// independent cross-check of the incremental accumulator.
    pub fn network_state(&self) -> u128 {
        self.queues.iter().map(|&q| (q as u128) * (q as u128)).sum()
    }

    /// Total stored packets `Σ q`, recomputed from scratch.
    pub fn total_packets(&self) -> u64 {
        self.queues.iter().sum()
    }

    /// Test-only fault hook: conjures `amount` packets into node
    /// `v mod n`'s queue *without* counting them as injected — a
    /// deliberate conservation bug for exercising the invariant guard
    /// (see [`crate::guard`]). The sparse bookkeeping (accumulators,
    /// active list) is kept consistent so the corruption is invisible to
    /// everything except the conservation ledger, exactly like a real
    /// state-update bug would be. Call between steps only.
    #[doc(hidden)]
    pub fn corrupt_queue_for_test(&mut self, v: u32, amount: u64) {
        if amount == 0 || self.queues.is_empty() {
            return;
        }
        let idx = (v as usize) % self.queues.len();
        let old = self.queues[idx];
        let new = old + amount;
        self.queues[idx] = new;
        self.acc_total += amount;
        self.acc_pt += (new as u128) * (new as u128) - (old as u128) * (old as u128);
        if old == 0 {
            let node = NodeId::new(idx as u32);
            if let Err(pos) = self.active.binary_search(&node) {
                self.active.insert(pos, node);
            }
        }
    }

    /// Number of nodes currently holding packets.
    pub fn active_node_count(&self) -> usize {
        match self.effective_mode() {
            EngineMode::SparseActive => self.active.len(),
            _ => self.queues.iter().filter(|&&q| q > 0).count(),
        }
    }

    /// The stepping strategy the next [`Simulation::step`] will execute:
    /// resolves [`EngineMode::Auto`] to its current regime, and is the
    /// identity for the fixed modes.
    pub fn effective_mode(&self) -> EngineMode {
        match self.mode {
            EngineMode::Auto if self.auto_dense => EngineMode::DenseReference,
            EngineMode::Auto => EngineMode::SparseActive,
            fixed => fixed,
        }
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Latency distribution of retired packets, when age tracking is on
    /// (see [`SimulationBuilder::track_ages`]).
    pub fn latency_stats(&self) -> Option<&crate::LatencyStats> {
        self.ages.as_ref().map(|a| &a.stats)
    }

    /// The installed telemetry observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the observer (e.g. to drain a
    /// [`RingRecorder`](crate::RingRecorder) mid-run).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the simulation, returning the observer — after calling
    /// its [`SimObserver::finish`], since the run is over.
    pub fn into_observer(mut self) -> O {
        self.observer.finish();
        self.observer
    }

    /// Runs `steps` more steps and returns the metrics.
    pub fn run(&mut self, steps: u64) -> &Metrics {
        for _ in 0..steps {
            self.step();
        }
        &self.metrics
    }

    /// Executes one synchronous step (the seven phases documented on the
    /// crate root).
    pub fn step(&mut self) {
        match self.mode {
            EngineMode::SparseActive => self.step_sparse(),
            EngineMode::DenseReference => self.step_dense(),
            EngineMode::Auto => self.step_auto(),
        }
    }

    /// Adaptive stepping: periodically re-measures the active-set density
    /// and delegates to the cheaper strategy. Correctness is free — both
    /// strategies are bit-for-bit identical — so only the switch points
    /// need care: the sparse invariants (active list, accumulators,
    /// dirty-declaration list, zeroed arrivals) go stale across dense
    /// steps and are rebuilt on re-entry.
    fn step_auto(&mut self) {
        if self.t % AUTO_CHECK_INTERVAL == 0 {
            let n = self.spec.node_count().max(1);
            let active = if self.auto_dense {
                self.queues.iter().filter(|&&q| q > 0).count()
            } else {
                // Sparse invariant: `active` is exactly {v : q > 0} at the
                // start of a step.
                self.active.len()
            };
            let density = active as f64 / n as f64;
            if self.auto_dense {
                if density < AUTO_SPARSE_BELOW {
                    self.auto_dense = false;
                    self.rebuild_sparse_state();
                    if self.observer.enabled() {
                        self.observer.observe(TraceEvent::EngineSwitch {
                            t: self.t,
                            dense: false,
                        });
                    }
                }
            } else if density >= AUTO_DENSE_ABOVE {
                self.auto_dense = true;
                if self.observer.enabled() {
                    self.observer.observe(TraceEvent::EngineSwitch {
                        t: self.t,
                        dense: true,
                    });
                }
            }
        }
        if self.auto_dense {
            self.step_dense()
        } else {
            self.step_sparse()
        }
    }

    /// Re-establishes every invariant the sparse stepper relies on after a
    /// stretch of dense steps: the sorted active list, the incremental
    /// `Σ q²` / `Σ q` accumulators, the zeroed arrivals scratch (the dense
    /// stepper leaves the previous step's counts behind), and the
    /// dirty-declaration list for stateless policies (dense full scans
    /// overwrite `declared` at every node).
    fn rebuild_sparse_state(&mut self) {
        let queues = &self.queues;
        self.active.clear();
        self.active
            .extend(self.spec.graph.nodes().filter(|v| queues[v.index()] > 0));
        self.woken.clear();
        self.arrivals.iter_mut().for_each(|a| *a = 0);
        self.acc_total = self.queues.iter().sum();
        self.acc_pt = self
            .queues
            .iter()
            .map(|&q| (q as u128) * (q as u128))
            .sum();
        if self.stateless_declaration {
            let declared = &self.declared;
            let idle = &self.idle_declared;
            self.declared_dirty.clear();
            self.declared_dirty.extend(
                self.spec
                    .graph
                    .nodes()
                    .filter(|v| declared[v.index()] != idle[v.index()]),
            );
        }
    }

    /// Active-set stepping. Equivalence with [`Simulation::step_dense`] is
    /// exact, RNG streams included; the per-phase comments record why.
    fn step_sparse(&mut self) {
        let t = self.t;
        let spec = &self.spec;
        let g = &spec.graph;
        // One flag check per step: when the observer is disabled (the
        // NoopObserver default makes this a compile-time constant) every
        // emit site below folds away and the step runs exactly as before.
        let observing = self.observer.enabled();

        // 1. Topology.
        if observing {
            self.prev_active_edges.clear();
            self.prev_active_edges.extend_from_slice(&self.active_edges);
        }
        self.topology
            .update(g, t, &mut self.rng_topology, &mut self.active_edges);
        if observing {
            for e in 0..self.active_edges.len() {
                if self.active_edges[e] != self.prev_active_edges[e] {
                    self.observer.observe(if self.active_edges[e] {
                        TraceEvent::LinkUp { t, edge: e as u32 }
                    } else {
                        TraceEvent::LinkDown { t, edge: e as u32 }
                    });
                }
            }
        }

        // 2. Injection (clamped to in(v); Definition 5). Only the
        // precomputed source list is visited — the dense loop skips
        // in(v) = 0 nodes before consuming any randomness, so restricting
        // the iteration leaves the injection RNG stream untouched.
        for &v in &self.traffic.sources {
            let cap = spec.in_rate(v);
            let amt = self
                .injection
                .amount(v, t, cap, &mut self.rng_injection)
                .min(cap);
            credit_queue(
                &mut self.queues,
                &mut self.acc_pt,
                &mut self.acc_total,
                &mut self.woken,
                v,
                amt,
            );
            self.metrics.injected += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Injection {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                ages.fifos[v.index()].extend(std::iter::repeat(t).take(amt as usize));
            }
        }

        // 3. Declaration (clamped to Definition 6(ii)). Merge freshly
        // woken sources first, so `active` is exactly the sorted set
        // {v : q > 0} from here through planning.
        merge_woken(&mut self.active, &mut self.woken, &mut self.node_scratch);
        if self.stateless_declaration {
            // A stateless policy consumes no randomness and depends only
            // on q, so idle nodes keep their precomputed declaration and
            // only nodes holding packets need a fresh call. Nodes that
            // drained since the last pass must fall back to their idle
            // value first.
            for &v in &self.declared_dirty {
                self.declared[v.index()] = self.idle_declared[v.index()];
            }
            self.declared_dirty.clear();
            for &v in &self.active {
                let q = self.queues[v.index()];
                let raw = self.declaration.declare(spec, v, q, t, &mut self.rng_policy);
                self.declared[v.index()] = clamp_declaration(spec, v, q, raw);
                self.declared_dirty.push(v);
            }
        } else {
            // Stateful or randomized policies get the full scan: their RNG
            // stream and internal state must see every node, every step.
            for v in g.nodes() {
                let q = self.queues[v.index()];
                let raw = self.declaration.declare(spec, v, q, t, &mut self.rng_policy);
                self.declared[v.index()] = clamp_declaration(spec, v, q, raw);
            }
        }
        // Lie audit: the declaration clamp forces every non-special node
        // truthful, so `declared ≠ q` can only occur on the precomputed
        // (ascending) special-node list — scanning it yields the same
        // event order in both engines.
        if observing {
            for &v in &self.traffic.specials {
                let q = self.queues[v.index()];
                let d = self.declared[v.index()];
                if d != q {
                    self.observer.observe(TraceEvent::DeclarationLie {
                        t,
                        node: v.index() as u32,
                        true_q: q,
                        declared: d,
                    });
                }
            }
        }

        // 4. Planning.
        self.plan.clear();
        {
            let view = NetView {
                graph: g,
                spec,
                declared: &self.declared,
                true_queues: &self.queues,
                active_edges: &self.active_edges,
                active_nodes: &self.active,
                t,
            };
            self.protocol.plan(&view, &mut self.plan);
        }

        // Validate the plan in order: one packet per link, active links
        // only, senders cannot overdraw. Invalid entries are dropped and
        // counted. Generation stamps replace the O(m) + O(n) clears of
        // `edge_used`/`budget`: a stamp from an earlier pass means
        // unused / uninitialized.
        self.stamp += 1;
        let cur = self.stamp;
        let mut write = 0usize;
        for read in 0..self.plan.len() {
            let tx = self.plan[read];
            let e = tx.edge.index();
            let from = tx.from.index();
            let valid = e < self.edge_stamp.len()
                && self.edge_stamp[e] != cur
                && self.active_edges[e]
                && {
                    if self.budget_stamp[from] != cur {
                        self.budget_stamp[from] = cur;
                        self.budget[from] = self.queues[from];
                    }
                    self.budget[from] > 0
                }
                && {
                    let (a, b) = g.endpoints(tx.edge);
                    a == tx.from || b == tx.from
                };
            if valid {
                self.edge_stamp[e] = cur;
                self.budget[from] -= 1;
                self.plan[write] = tx;
                write += 1;
            } else {
                self.metrics.rejected_plans += 1;
                if observing {
                    self.observer.observe(TraceEvent::PlanRejected {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
        }
        self.plan.truncate(write);

        // 5. Transmission & loss. Senders always delete; receivers gain
        // only surviving packets (Section II). Arrivals accumulate per
        // receiver and are applied through the touched-receiver list
        // instead of a full O(n) sweep.
        self.lost_mask.clear();
        self.lost_mask.resize(self.plan.len(), false);
        self.loss.apply(
            g,
            &self.plan,
            &self.queues,
            t,
            &mut self.rng_loss,
            &mut self.lost_mask,
        );
        self.touched.clear();
        for i in 0..self.plan.len() {
            let tx = self.plan[i];
            let lost = self.lost_mask[i];
            if observing {
                self.observer.observe(TraceEvent::Transmission {
                    t,
                    edge: tx.edge.index() as u32,
                    from: tx.from.index() as u32,
                    to: g.other_endpoint(tx.edge, tx.from).index() as u32,
                });
                if lost {
                    self.observer.observe(TraceEvent::Loss {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
            debit_queue(
                &mut self.queues,
                &mut self.acc_pt,
                &mut self.acc_total,
                tx.from,
                1,
            );
            self.metrics.sent += 1;
            self.metrics.link_sends[tx.edge.index()] += 1;
            let born = self
                .ages
                .as_mut()
                .map(|a| a.fifos[tx.from.index()].pop_front().expect("age/queue sync"));
            if lost {
                self.metrics.lost += 1;
            } else {
                let to = g.other_endpoint(tx.edge, tx.from);
                if self.arrivals[to.index()] == 0 {
                    self.touched.push(to);
                }
                self.arrivals[to.index()] += 1;
                if let (Some(ages), Some(b)) = (&mut self.ages, born) {
                    ages.staged[to.index()].push(b);
                }
            }
        }
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            let amt = self.arrivals[v.index()];
            self.arrivals[v.index()] = 0;
            credit_queue(
                &mut self.queues,
                &mut self.acc_pt,
                &mut self.acc_total,
                &mut self.woken,
                v,
                amt,
            );
        }
        if let Some(ages) = &mut self.ages {
            for &v in &self.touched {
                let staged = std::mem::take(&mut ages.staged[v.index()]);
                ages.fifos[v.index()].extend(staged);
            }
        }

        // 6. Extraction (clamped to Definition 7(i)). Only the precomputed
        // sink list — every sink is visited whether or not it holds
        // packets, exactly like the dense loop, so policies that consume
        // randomness (sharing rng_policy with declaration) see the same
        // stream.
        for &v in &self.traffic.sinks {
            let q = self.queues[v.index()];
            let raw = self.extraction.extract(spec, v, q, t, &mut self.rng_policy);
            let amt = clamp_extraction(spec, v, q, raw);
            debit_queue(
                &mut self.queues,
                &mut self.acc_pt,
                &mut self.acc_total,
                v,
                amt,
            );
            self.metrics.delivered += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Extraction {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                for _ in 0..amt {
                    let born = ages.fifos[v.index()].pop_front().expect("age/queue sync");
                    ages.stats.record(t - born);
                }
            }
        }

        // 7. Metrics, read off the incremental accumulators. Every node
        // with q > 0 is in `active` (held since the phase-3 merge) or
        // `woken` (first packets arrived in phase 5), so their union
        // covers the max; the merge-and-sweep then restores the exact
        // active-set invariant for the next step.
        self.t += 1;
        self.metrics.steps += 1;
        let pt = self.acc_pt;
        let total = self.acc_total;
        let mut max_q: u64 = 0;
        for &v in self.active.iter().chain(self.woken.iter()) {
            max_q = max_q.max(self.queues[v.index()]);
        }
        merge_woken(&mut self.active, &mut self.woken, &mut self.node_scratch);
        {
            let queues = &self.queues;
            self.active.retain(|v| queues[v.index()] > 0);
        }
        debug_assert_eq!(total, self.queues.iter().sum::<u64>());
        debug_assert_eq!(pt, self.network_state());
        debug_assert_eq!(
            self.active.len(),
            self.queues.iter().filter(|&&q| q > 0).count()
        );
        if observing {
            self.observer.observe(TraceEvent::Sample {
                t,
                pt,
                total,
                max_queue: max_q,
                active: self.active.len() as u64,
            });
        }
        self.metrics.sup_pt = self.metrics.sup_pt.max(pt);
        self.metrics.sup_total = self.metrics.sup_total.max(total);
        self.metrics.max_queue_ever = self.metrics.max_queue_ever.max(max_q);
        self.metrics.packet_steps += total as u128;
        let record = match self.history {
            HistoryMode::None => false,
            HistoryMode::EveryStep => true,
            HistoryMode::Sampled(stride) => stride > 0 && self.t % stride == 0,
        };
        if record {
            self.metrics.history.push(Snapshot {
                t: self.t,
                pt,
                total_packets: total,
                max_queue: max_q,
            });
        }
    }

    /// Full-scan reference stepping — the original engine, kept as the
    /// executable specification of the step semantics and as the
    /// throughput baseline.
    fn step_dense(&mut self) {
        let t = self.t;
        let spec = &self.spec;
        let g = &spec.graph;
        // Mirrors step_sparse exactly: same events, same order, so the
        // trace — like every other observable — is engine-mode-invariant.
        let observing = self.observer.enabled();

        // 1. Topology.
        if observing {
            self.prev_active_edges.clear();
            self.prev_active_edges.extend_from_slice(&self.active_edges);
        }
        self.topology
            .update(g, t, &mut self.rng_topology, &mut self.active_edges);
        if observing {
            for e in 0..self.active_edges.len() {
                if self.active_edges[e] != self.prev_active_edges[e] {
                    self.observer.observe(if self.active_edges[e] {
                        TraceEvent::LinkUp { t, edge: e as u32 }
                    } else {
                        TraceEvent::LinkDown { t, edge: e as u32 }
                    });
                }
            }
        }

        // 2. Injection (clamped to in(v); Definition 5).
        for v in g.nodes() {
            let cap = spec.in_rate(v);
            if cap == 0 {
                continue;
            }
            let amt = self
                .injection
                .amount(v, t, cap, &mut self.rng_injection)
                .min(cap);
            self.queues[v.index()] += amt;
            self.metrics.injected += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Injection {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                ages.fifos[v.index()].extend(std::iter::repeat(t).take(amt as usize));
            }
        }

        // 3. Declaration (clamped to Definition 6(ii)).
        for v in g.nodes() {
            let q = self.queues[v.index()];
            let raw = self
                .declaration
                .declare(spec, v, q, t, &mut self.rng_policy);
            self.declared[v.index()] = clamp_declaration(spec, v, q, raw);
        }
        // Lie audit — same special-node scan as the sparse stepper.
        if observing {
            for &v in &self.traffic.specials {
                let q = self.queues[v.index()];
                let d = self.declared[v.index()];
                if d != q {
                    self.observer.observe(TraceEvent::DeclarationLie {
                        t,
                        node: v.index() as u32,
                        true_q: q,
                        declared: d,
                    });
                }
            }
        }

        // 4. Planning.
        self.plan.clear();
        {
            let view = NetView {
                graph: g,
                spec,
                declared: &self.declared,
                true_queues: &self.queues,
                active_edges: &self.active_edges,
                active_nodes: &self.all_nodes,
                t,
            };
            self.protocol.plan(&view, &mut self.plan);
        }

        // Validate the plan in order: one packet per link, active links
        // only, senders cannot overdraw. Invalid entries are dropped and
        // counted.
        self.budget.copy_from_slice(&self.queues);
        self.edge_used.iter_mut().for_each(|u| *u = false);
        let mut write = 0usize;
        for read in 0..self.plan.len() {
            let tx = self.plan[read];
            let e = tx.edge.index();
            let from = tx.from.index();
            let valid = e < self.edge_used.len()
                && !self.edge_used[e]
                && self.active_edges[e]
                && self.budget[from] > 0
                && {
                    let (a, b) = g.endpoints(tx.edge);
                    a == tx.from || b == tx.from
                };
            if valid {
                self.edge_used[e] = true;
                self.budget[from] -= 1;
                self.plan[write] = tx;
                write += 1;
            } else {
                self.metrics.rejected_plans += 1;
                if observing {
                    self.observer.observe(TraceEvent::PlanRejected {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
        }
        self.plan.truncate(write);

        // 5. Transmission & loss. Senders always delete; receivers gain
        // only surviving packets (Section II).
        self.lost_mask.clear();
        self.lost_mask.resize(self.plan.len(), false);
        self.loss.apply(
            g,
            &self.plan,
            &self.queues,
            t,
            &mut self.rng_loss,
            &mut self.lost_mask,
        );
        self.arrivals.iter_mut().for_each(|a| *a = 0);
        for (tx, &lost) in self.plan.iter().zip(self.lost_mask.iter()) {
            if observing {
                self.observer.observe(TraceEvent::Transmission {
                    t,
                    edge: tx.edge.index() as u32,
                    from: tx.from.index() as u32,
                    to: g.other_endpoint(tx.edge, tx.from).index() as u32,
                });
                if lost {
                    self.observer.observe(TraceEvent::Loss {
                        t,
                        edge: tx.edge.index() as u32,
                        from: tx.from.index() as u32,
                    });
                }
            }
            self.queues[tx.from.index()] -= 1;
            self.metrics.sent += 1;
            self.metrics.link_sends[tx.edge.index()] += 1;
            let born = self
                .ages
                .as_mut()
                .map(|a| a.fifos[tx.from.index()].pop_front().expect("age/queue sync"));
            if lost {
                self.metrics.lost += 1;
            } else {
                let to = g.other_endpoint(tx.edge, tx.from);
                self.arrivals[to.index()] += 1;
                if let (Some(ages), Some(b)) = (&mut self.ages, born) {
                    ages.staged[to.index()].push(b);
                }
            }
        }
        for v in 0..self.arrivals.len() {
            self.queues[v] += self.arrivals[v];
        }
        if let Some(ages) = &mut self.ages {
            for v in 0..ages.staged.len() {
                let staged = std::mem::take(&mut ages.staged[v]);
                ages.fifos[v].extend(staged);
            }
        }

        // 6. Extraction (clamped to Definition 7(i)).
        for v in g.nodes() {
            if spec.out_rate(v) == 0 {
                continue;
            }
            let q = self.queues[v.index()];
            let raw = self.extraction.extract(spec, v, q, t, &mut self.rng_policy);
            let amt = clamp_extraction(spec, v, q, raw);
            self.queues[v.index()] -= amt;
            self.metrics.delivered += amt;
            if observing && amt > 0 {
                self.observer.observe(TraceEvent::Extraction {
                    t,
                    node: v.index() as u32,
                    amount: amt,
                });
            }
            if let Some(ages) = &mut self.ages {
                for _ in 0..amt {
                    let born = ages.fifos[v.index()].pop_front().expect("age/queue sync");
                    ages.stats.record(t - born);
                }
            }
        }

        // 7. Metrics.
        self.t += 1;
        self.metrics.steps += 1;
        let mut pt: u128 = 0;
        let mut total: u64 = 0;
        let mut max_q: u64 = 0;
        for &q in &self.queues {
            pt += (q as u128) * (q as u128);
            total += q;
            max_q = max_q.max(q);
        }
        if observing {
            let active = self.queues.iter().filter(|&&q| q > 0).count() as u64;
            self.observer.observe(TraceEvent::Sample {
                t,
                pt,
                total,
                max_queue: max_q,
                active,
            });
        }
        self.metrics.sup_pt = self.metrics.sup_pt.max(pt);
        self.metrics.sup_total = self.metrics.sup_total.max(total);
        self.metrics.max_queue_ever = self.metrics.max_queue_ever.max(max_q);
        self.metrics.packet_steps += total as u128;
        let record = match self.history {
            HistoryMode::None => false,
            HistoryMode::EveryStep => true,
            HistoryMode::Sampled(stride) => stride > 0 && self.t % stride == 0,
        };
        if record {
            self.metrics.history.push(Snapshot {
                t: self.t,
                pt,
                total_packets: total,
                max_queue: max_q,
            });
        }
    }
}

/// Stable wire tag for [`EngineMode`] inside checkpoint payloads.
fn mode_tag(mode: EngineMode) -> u32 {
    match mode {
        EngineMode::SparseActive => 0,
        EngineMode::DenseReference => 1,
        EngineMode::Auto => 2,
    }
}

/// Checkpoint/restore: the crash-safe persistence layer for long stability
/// runs. See [`crate::checkpoint`] for the container format; this block
/// owns the *payload* — the complete dynamic state of a simulation.
///
/// The hard guarantee: a run interrupted at any point and resumed from its
/// latest snapshot is **bit-for-bit identical** to the uninterrupted run —
/// same queues, same metrics, same RNG draws, same trace events. Anything
/// that influences a future step must therefore be captured: per-node
/// queues and declarations, the link-activity mask, all four engine RNG
/// streams, packet ages, accumulated metrics, the Auto-mode regime flag,
/// and every component's private state (via the `save_state`/`load_state`
/// hooks on the component traits). Per-step scratch (plans, stamps,
/// arrival counts) is deliberately *not* saved: it is dead between steps,
/// and restore resets it to the same state `build()` produces.
impl<O: SimObserver> Simulation<O> {
    /// Serializes the complete dynamic state into a checkpoint payload.
    ///
    /// Takes `&mut self` because component hooks may need mutation (e.g. a
    /// buffered trace sink flushes before recording its byte count).
    pub fn checkpoint_payload(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        // Fingerprint: enough of the static configuration to reject a
        // snapshot from a different scenario with a precise error instead
        // of silently producing garbage.
        wire::put_u64(&mut out, self.spec.node_count() as u64);
        wire::put_u64(&mut out, self.spec.graph.edge_count() as u64);
        wire::put_u64(&mut out, self.spec.retention);
        wire::put_u32(&mut out, mode_tag(self.mode));
        wire::put_bool(&mut out, self.ages.is_some());
        wire::put_str(&mut out, self.protocol.name());
        wire::put_str(&mut out, self.injection.name());
        wire::put_str(&mut out, self.loss.name());
        wire::put_str(&mut out, self.topology.name());
        wire::put_str(&mut out, self.declaration.name());
        wire::put_str(&mut out, self.extraction.name());

        // Dynamic engine state.
        wire::put_u64(&mut out, self.t);
        wire::put_bool(&mut out, self.auto_dense);
        wire::put_u64_slice(&mut out, &self.queues);
        wire::put_u64_slice(&mut out, &self.declared);
        wire::put_bool_slice(&mut out, &self.active_edges);
        wire::put_bytes(&mut out, &checkpoint::json_to_bytes(&self.metrics));
        if let Some(ages) = &self.ages {
            wire::put_bytes(&mut out, &checkpoint::json_to_bytes(&ages.stats));
            // `staged` is drained within each step, so between steps only
            // the per-node FIFOs carry information.
            for fifo in &ages.fifos {
                let flat: Vec<u64> = fifo.iter().copied().collect();
                wire::put_u64_slice(&mut out, &flat);
            }
        }
        for rng in [
            &self.rng_injection,
            &self.rng_loss,
            &self.rng_topology,
            &self.rng_policy,
        ] {
            for w in rng.state() {
                wire::put_u64(&mut out, w);
            }
        }

        // Component-private state, one length-prefixed blob each. The
        // engine does not interpret these; empty is the stateless default.
        let mut blob = Vec::new();
        self.protocol.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.injection.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.loss.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.topology.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.declaration.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.extraction.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        blob.clear();
        self.observer.save_state(&mut blob);
        wire::put_bytes(&mut out, &blob);
        out
    }

    /// Restores state captured by [`Simulation::checkpoint_payload`].
    ///
    /// The simulation must have been built from the *same scenario* (same
    /// topology, components, engine mode, seed). The fingerprint check
    /// catches configuration drift with a [`LggError::CheckpointMismatch`]
    /// naming the first disagreement; payload damage surfaces as
    /// [`LggError::CheckpointCorrupt`]. On any error the simulation is
    /// left in an unspecified state and must be discarded.
    pub fn restore_checkpoint_payload(&mut self, payload: &[u8]) -> Result<(), LggError> {
        let mut r = wire::Reader::new(payload);
        let n = self.spec.node_count();
        let m = self.spec.graph.edge_count();

        let mismatch = |field: &str, found: String, expected: String| {
            LggError::CheckpointMismatch {
                reason: format!("{field}: snapshot has {found}, scenario has {expected}"),
            }
        };
        let ck_n = r.u64()?;
        if ck_n != n as u64 {
            return Err(mismatch("node count", ck_n.to_string(), n.to_string()));
        }
        let ck_m = r.u64()?;
        if ck_m != m as u64 {
            return Err(mismatch("edge count", ck_m.to_string(), m.to_string()));
        }
        let ck_r = r.u64()?;
        if ck_r != self.spec.retention {
            return Err(mismatch(
                "retention",
                ck_r.to_string(),
                self.spec.retention.to_string(),
            ));
        }
        let ck_mode = r.u32()?;
        if ck_mode != mode_tag(self.mode) {
            return Err(mismatch(
                "engine mode",
                ck_mode.to_string(),
                mode_tag(self.mode).to_string(),
            ));
        }
        let ck_ages = r.bool_()?;
        if ck_ages != self.ages.is_some() {
            return Err(mismatch(
                "age tracking",
                ck_ages.to_string(),
                self.ages.is_some().to_string(),
            ));
        }
        for (field, expected) in [
            ("protocol", self.protocol.name()),
            ("injection", self.injection.name()),
            ("loss model", self.loss.name()),
            ("topology process", self.topology.name()),
            ("declaration policy", self.declaration.name()),
            ("extraction policy", self.extraction.name()),
        ] {
            let found = r.str_()?;
            if found != expected {
                return Err(mismatch(field, found.to_string(), expected.to_string()));
            }
        }

        self.t = r.u64()?;
        self.auto_dense = r.bool_()?;
        let queues = r.u64_vec()?;
        let declared = r.u64_vec()?;
        let active_edges = r.bool_vec()?;
        if queues.len() != n || declared.len() != n || active_edges.len() != m {
            return Err(LggError::corrupt("state vector length mismatch"));
        }
        self.queues = queues;
        self.declared = declared;
        self.active_edges = active_edges;
        self.metrics = checkpoint::json_from_bytes(r.bytes()?)?;
        if let Some(ages) = &mut self.ages {
            ages.stats = checkpoint::json_from_bytes(r.bytes()?)?;
            for (v, fifo) in ages.fifos.iter_mut().enumerate() {
                *fifo = VecDeque::from(r.u64_vec()?);
                if fifo.len() as u64 != self.queues[v] {
                    return Err(LggError::corrupt("age FIFO length disagrees with queue"));
                }
            }
            ages.staged.iter_mut().for_each(Vec::clear);
        }
        for rng in [
            &mut self.rng_injection,
            &mut self.rng_loss,
            &mut self.rng_topology,
            &mut self.rng_policy,
        ] {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = r.u64()?;
            }
            *rng = StdRng::from_state(s);
        }
        self.protocol.load_state(r.bytes()?)?;
        self.injection.load_state(r.bytes()?)?;
        self.loss.load_state(r.bytes()?)?;
        self.topology.load_state(r.bytes()?)?;
        self.declaration.load_state(r.bytes()?)?;
        self.extraction.load_state(r.bytes()?)?;
        self.observer.load_state(r.bytes()?)?;
        r.done()?;

        // Reset per-step scratch to the exact state `build()` produces —
        // the steppers establish their own invariants from here. Stamps
        // restart at 0 safely: validation bumps `stamp` before comparing.
        self.stamp = 0;
        self.edge_stamp.iter_mut().for_each(|s| *s = 0);
        self.budget_stamp.iter_mut().for_each(|s| *s = 0);
        self.edge_used.iter_mut().for_each(|u| *u = false);
        self.budget.iter_mut().for_each(|b| *b = 0);
        self.plan.clear();
        self.lost_mask.clear();
        self.touched.clear();
        self.node_scratch.clear();
        self.prev_active_edges.clear();
        // Rebuilds the active list, accumulators, zeroed arrivals, and the
        // dirty-declaration list from the restored queues/declarations.
        self.rebuild_sparse_state();
        Ok(())
    }

    /// Writes one crash-safe snapshot of the current state into `dir` and
    /// prunes old snapshots, keeping the configured count (default 2).
    pub fn write_checkpoint_to(&mut self, dir: &Path) -> Result<PathBuf, LggError> {
        let payload = self.checkpoint_payload();
        let path = checkpoint::write_atomic(dir, self.t, &payload)?;
        let keep = self.checkpoint.as_ref().map_or(2, |c| c.keep);
        checkpoint::prune(dir, keep)?;
        Ok(path)
    }

    /// Restores from the newest readable snapshot in `dir`, if any.
    ///
    /// Unreadable or corrupt snapshot files (e.g. a torn write from a
    /// crash) are skipped in favor of older ones. Returns the restored
    /// step count, or `None` when the directory holds no usable snapshot
    /// (the caller starts from step 0).
    pub fn resume_from_dir(&mut self, dir: &Path) -> Result<Option<u64>, LggError> {
        match checkpoint::load_latest(dir)? {
            Some((_, payload)) => {
                self.restore_checkpoint_payload(&payload)?;
                Ok(Some(self.t))
            }
            None => Ok(None),
        }
    }

    /// Installs (or removes) the periodic checkpoint policy used by
    /// [`Simulation::run_until`].
    pub fn set_checkpoint(&mut self, cfg: Option<CheckpointConfig>) {
        self.checkpoint = cfg;
    }

    /// The installed checkpoint policy, if any.
    pub fn checkpoint_config(&self) -> Option<&CheckpointConfig> {
        self.checkpoint.as_ref()
    }

    /// Runs until the step counter reaches `target` (absolute, not
    /// relative — resume-friendly), writing a snapshot every
    /// [`CheckpointConfig::every`] steps and once more at `target` when
    /// checkpointing is configured. Without a checkpoint config this is
    /// plain stepping and cannot fail.
    pub fn run_until(&mut self, target: u64) -> Result<&Metrics, LggError> {
        while self.t < target {
            self.step();
            let due = match &self.checkpoint {
                Some(c) if self.t % c.every == 0 || self.t == target => Some(c.dir.clone()),
                _ => None,
            };
            if let Some(dir) = due {
                self.write_checkpoint_to(&dir)?;
            }
        }
        Ok(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declare::{FullRetention, RandomBelowRetention, ZeroBelowRetention};
    use crate::injection::{BernoulliInjection, ScaledInjection};
    use crate::loss::IidLoss;
    use crate::protocol::NullProtocol;
    use mgraph::generators;
    use netmodel::TrafficSpecBuilder;

    fn path_spec() -> TrafficSpec {
        TrafficSpecBuilder::new(generators::path(3))
            .source(0, 2)
            .sink(2, 2)
            .build()
            .unwrap()
    }

    /// A minimal greedy protocol for engine tests: every node pushes over
    /// every incident link towards any strictly smaller declared queue,
    /// budget permitting (LGG without the sorted preference).
    struct TestGreedy;

    impl RoutingProtocol for TestGreedy {
        fn name(&self) -> &'static str {
            "test-greedy"
        }

        fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
            for u in view.graph.nodes() {
                let mut budget = view.declared_of(u);
                for link in view.graph.incident_links(u) {
                    if budget == 0 {
                        break;
                    }
                    if view.declared_of(link.neighbor) < view.declared_of(u)
                        && view.is_active(link.edge)
                    {
                        out.push(Transmission {
                            edge: link.edge,
                            from: u,
                        });
                        budget -= 1;
                    }
                }
            }
        }
    }

    #[test]
    fn null_protocol_accumulates_at_source() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol)).build();
        sim.run(10);
        // Source injected 2/step and nothing moved; sink extracted nothing.
        assert_eq!(sim.queues()[0], 20);
        assert_eq!(sim.queues()[1], 0);
        assert_eq!(sim.queues()[2], 0);
        assert_eq!(sim.metrics().injected, 20);
        assert_eq!(sim.metrics().delivered, 0);
        assert_eq!(sim.metrics().sent, 0);
        assert_eq!(sim.active_node_count(), 1);
    }

    #[test]
    fn greedy_protocol_moves_and_delivers() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy)).build();
        sim.run(200);
        let m = sim.metrics();
        assert!(m.delivered > 0, "sink never extracted");
        // Path capacity is 1/step but injection is 2/step: backlog grows at
        // the source, yet packets do flow.
        assert!(m.sent > 100);
        assert_eq!(m.rejected_plans, 0);
    }

    #[test]
    fn conservation_invariant() {
        // injected = stored + delivered + lost, at every scale.
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
            .loss(Box::new(IidLoss::new(0.3)))
            .seed(99)
            .build();
        sim.run(500);
        let m = sim.metrics();
        let stored: u64 = sim.queues().iter().sum();
        assert_eq!(m.injected, stored + m.delivered + m.lost);
        assert!(m.lost > 0);
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let run = |seed| {
            let mut sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                .loss(Box::new(IidLoss::new(0.2)))
                .seed(seed)
                .history(HistoryMode::EveryStep)
                .build();
            sim.run(100);
            (sim.queues().to_vec(), sim.metrics().clone())
        };
        let (q1, m1) = run(7);
        let (q2, m2) = run(7);
        let (q3, m3) = run(8);
        assert_eq!(q1, q2);
        assert_eq!(m1, m2);
        // The final queue vector alone can coincide across seeds on a short
        // path (it has very few reachable states); the full trajectory in
        // the metrics history cannot.
        assert_ne!((q3, m3), (q1, m1), "different seeds should diverge");
    }

    /// Runs one configuration under all three engine modes and requires
    /// the entire observable outcome — queue vector, full metrics
    /// including every history snapshot, latency stats — to match exactly.
    fn assert_modes_agree(build: impl Fn() -> SimulationBuilder, steps: u64) {
        let run = |mode: EngineMode| {
            let mut sim = build()
                .engine_mode(mode)
                .history(HistoryMode::EveryStep)
                .build();
            sim.run(steps);
            let ages = sim.latency_stats().cloned();
            (sim.queues().to_vec(), sim.metrics().clone(), ages)
        };
        let sparse = run(EngineMode::SparseActive);
        let dense = run(EngineMode::DenseReference);
        let auto = run(EngineMode::Auto);
        assert_eq!(sparse.0, dense.0, "queue vectors diverged");
        assert_eq!(sparse.1, dense.1, "metrics diverged");
        assert_eq!(sparse.2, dense.2, "latency stats diverged");
        assert_eq!(auto.0, sparse.0, "auto queue vectors diverged");
        assert_eq!(auto.1, sparse.1, "auto metrics diverged");
        assert_eq!(auto.2, sparse.2, "auto latency stats diverged");
    }

    #[test]
    fn sparse_matches_dense_reference_classic() {
        assert_modes_agree(
            || {
                SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                    .loss(Box::new(IidLoss::new(0.2)))
                    .seed(7)
            },
            300,
        );
    }

    #[test]
    fn sparse_matches_dense_reference_rgen_liars() {
        // R-generalized network under every stateless lying policy: the
        // idle-declaration fast path must reproduce FullRetention's
        // nonzero declarations on empty special nodes.
        fn zero() -> Box<dyn DeclarationPolicy> {
            Box::new(ZeroBelowRetention)
        }
        fn full() -> Box<dyn DeclarationPolicy> {
            Box::new(FullRetention)
        }
        for make in [zero as fn() -> Box<dyn DeclarationPolicy>, full] {
            assert_modes_agree(
                || {
                    let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
                        .generalized(0, 3, 1)
                        .generalized(15, 1, 3)
                        .retention(4)
                        .build()
                        .unwrap();
                    SimulationBuilder::new(spec, Box::new(TestGreedy))
                        .declaration(make())
                        .extraction(Box::new(LazyExtraction))
                        .seed(11)
                },
                400,
            );
        }
    }

    #[test]
    fn sparse_matches_dense_reference_random_declaration() {
        // RandomBelowRetention consumes rng_policy per node per step: the
        // sparse engine must fall back to the full scan to keep the stream
        // aligned (is_stateless = false).
        assert!(!RandomBelowRetention.is_stateless());
        assert_modes_agree(
            || {
                let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
                    .generalized(0, 2, 1)
                    .generalized(15, 1, 2)
                    .retention(3)
                    .build()
                    .unwrap();
                SimulationBuilder::new(spec, Box::new(TestGreedy))
                    .declaration(Box::new(RandomBelowRetention))
                    .loss(Box::new(IidLoss::new(0.1)))
                    .seed(13)
            },
            400,
        );
    }

    #[test]
    fn sparse_matches_dense_reference_bursty_ages() {
        // Bernoulli injection + loss + age tracking on a larger random
        // graph: exercises woken/touched bookkeeping under churn.
        assert_modes_agree(
            || {
                let mut rng = StdRng::seed_from_u64(21);
                let g = generators::connected_random(40, 30, &mut rng);
                let spec = TrafficSpecBuilder::new(g)
                    .source(0, 3)
                    .sink(39, 4)
                    .build()
                    .unwrap();
                SimulationBuilder::new(spec, Box::new(TestGreedy))
                    .injection(Box::new(BernoulliInjection::new(0.6)))
                    .loss(Box::new(IidLoss::new(0.15)))
                    .track_ages(true)
                    .seed(17)
            },
            300,
        );
    }

    #[test]
    fn sparse_matches_dense_reference_warm_start() {
        assert_modes_agree(
            || {
                SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                    .initial_queues(vec![9, 0, 4])
                    .seed(3)
            },
            150,
        );
    }

    #[test]
    fn trace_is_engine_mode_invariant() {
        // The event stream is part of the observable outcome: both
        // steppers must emit identical events in identical order,
        // covering lies, losses, rejections, and samples.
        use crate::trace::RingRecorder;
        let run = |mode: EngineMode| {
            let spec = TrafficSpecBuilder::new(generators::grid2d(4, 4))
                .generalized(0, 3, 1)
                .generalized(15, 1, 3)
                .retention(4)
                .build()
                .unwrap();
            let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
                .declaration(Box::new(FullRetention))
                .extraction(Box::new(LazyExtraction))
                .loss(Box::new(IidLoss::new(0.2)))
                .seed(11)
                .engine_mode(mode)
                .observer(RingRecorder::new(usize::MAX))
                .build();
            sim.run(200);
            sim.into_observer().take()
        };
        let sparse = run(EngineMode::SparseActive);
        let dense = run(EngineMode::DenseReference);
        assert!(!sparse.is_empty());
        assert_eq!(sparse.len(), dense.len(), "event counts diverged");
        for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            assert_eq!(a, b, "event {i} diverged");
        }
        // The stream exercises the interesting kinds on this workload.
        let has = |f: fn(&TraceEvent) -> bool| sparse.iter().any(f);
        assert!(has(|e| matches!(e, TraceEvent::Injection { .. })));
        assert!(has(|e| matches!(e, TraceEvent::DeclarationLie { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Transmission { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Loss { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Extraction { .. })));
        assert!(has(|e| matches!(e, TraceEvent::Sample { .. })));
        // One sample per step, closing each step's event group.
        let samples = sparse
            .iter()
            .filter(|e| matches!(e, TraceEvent::Sample { .. }))
            .count();
        assert_eq!(samples, 200);
    }

    #[test]
    fn observer_does_not_perturb_trajectory() {
        // Observed and unobserved runs of the same seed must agree on
        // every metric — emitting events consumes no randomness.
        use crate::trace::RingRecorder;
        let base = || {
            SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
                .loss(Box::new(IidLoss::new(0.2)))
                .seed(7)
                .history(HistoryMode::EveryStep)
        };
        let mut plain = base().build();
        plain.run(300);
        let mut observed = base().observer(RingRecorder::new(64)).build();
        observed.run(300);
        assert_eq!(plain.queues(), observed.queues());
        assert_eq!(plain.metrics(), observed.metrics());
        assert!(observed.observer().total_seen() > 0);
    }

    #[test]
    fn auto_emits_engine_switch_events() {
        use crate::trace::RingRecorder;
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(1, 1)
            .sink(2, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .injection(Box::new(BernoulliInjection::new(0.0)))
            .engine_mode(EngineMode::Auto)
            .initial_queues(vec![8, 8, 8, 8])
            .observer(RingRecorder::new(usize::MAX))
            .build();
        sim.run(AUTO_CHECK_INTERVAL + 1);
        let switches: Vec<TraceEvent> = sim
            .observer()
            .events()
            .filter(|e| matches!(e, TraceEvent::EngineSwitch { .. }))
            .copied()
            .collect();
        assert_eq!(
            switches,
            vec![TraceEvent::EngineSwitch {
                t: AUTO_CHECK_INTERVAL,
                dense: false
            }]
        );
    }

    #[test]
    fn auto_switches_dense_to_sparse_as_network_drains() {
        // Every node warm-started and extracting: Auto must begin in the
        // dense regime (initial density 1.0), then fall back to sparse
        // stepping at the first density check after the network drains.
        let spec = TrafficSpecBuilder::new(generators::path(4))
            .source(0, 1)
            .sink(1, 1)
            .sink(2, 1)
            .sink(3, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            // p = 0 injection: the source exists but never fires, so the
            // warm-start load is all there is. NullProtocol moves nothing,
            // so the sinks drain to zero while the source keeps its 8 —
            // density settles at 0.25, below AUTO_SPARSE_BELOW.
            .injection(Box::new(BernoulliInjection::new(0.0)))
            .engine_mode(EngineMode::Auto)
            .initial_queues(vec![8, 8, 8, 8])
            .build();
        assert_eq!(sim.effective_mode(), EngineMode::DenseReference);
        // Sinks drain by t = 8; the regime check only fires every
        // AUTO_CHECK_INTERVAL steps, so the flip lands on the next one.
        sim.run(AUTO_CHECK_INTERVAL);
        assert_eq!(sim.effective_mode(), EngineMode::DenseReference);
        sim.run(1);
        assert_eq!(sim.effective_mode(), EngineMode::SparseActive);
        assert_eq!(sim.active_node_count(), 1);
        assert_eq!(sim.queues(), &[8, 0, 0, 0]);
    }

    #[test]
    fn auto_starts_sparse_on_cold_networks() {
        let sim = SimulationBuilder::new(path_spec(), Box::new(TestGreedy))
            .engine_mode(EngineMode::Auto)
            .build();
        assert_eq!(sim.effective_mode(), EngineMode::SparseActive);
    }

    #[test]
    fn scaled_injection_is_clamped_and_counted() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .injection(Box::new(ScaledInjection::new(1, 2)))
            .build();
        sim.run(10);
        // rate 2 × 1/2 = 1/step.
        assert_eq!(sim.metrics().injected, 10);
    }

    #[test]
    fn extraction_respects_queue() {
        // Sink starts seeded with 1 packet and out = 2: extracts only 1.
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 1])
            .build();
        sim.step();
        assert_eq!(sim.queues()[2], 0);
        assert_eq!(sim.metrics().delivered, 1);
    }

    #[test]
    fn lazy_extraction_retains_r_packets() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 5)
            .retention(3)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 10])
            .extraction(Box::new(LazyExtraction))
            .build();
        sim.step();
        // q = 10 > R = 3: must extract at least min(out, q - R) = 5; lazy
        // extracts exactly 5.
        assert_eq!(sim.queues()[2], 5);
        sim.step();
        // q = 5 > 3: extracts min(5, 2) = 2 -> 3 left.
        assert_eq!(sim.queues()[2], 3);
        sim.step();
        // q = 3 <= R: lazy extracts 0, clamp lower bound is 0.
        assert_eq!(sim.queues()[2], 3);
    }

    #[test]
    fn clamp_extraction_envelope() {
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 4)
            .retention(2)
            .build()
            .unwrap();
        let d = NodeId::new(2);
        // q = 10, out = 4, R = 2: lower = min(4, 8) = 4, upper = 4.
        assert_eq!(clamp_extraction(&spec, d, 10, 0), 4);
        // q = 3, R = 2: lower = min(4,1) = 1, upper = 3.
        assert_eq!(clamp_extraction(&spec, d, 3, 0), 1);
        assert_eq!(clamp_extraction(&spec, d, 3, 99), 3);
        // q = 2 <= R: lower 0, upper 2.
        assert_eq!(clamp_extraction(&spec, d, 2, 0), 0);
        assert_eq!(clamp_extraction(&spec, d, 2, 99), 2);
    }

    #[test]
    fn invalid_plans_are_rejected_not_executed() {
        /// Plans nonsense: sends from an empty node, doubles a link, and
        /// claims a foreign endpoint.
        struct Rogue;
        impl RoutingProtocol for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
                let e0 = mgraph::EdgeId::new(0);
                // from node 1 (empty queue at t=0 before any arrivals)
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(1),
                });
                // duplicate link usage by the source
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(0),
                });
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(0),
                });
                // node 2 is not an endpoint of edge 0
                out.push(Transmission {
                    edge: e0,
                    from: NodeId::new(2),
                });
                let _ = view;
            }
        }
        for mode in [EngineMode::SparseActive, EngineMode::DenseReference] {
            let mut sim = SimulationBuilder::new(path_spec(), Box::new(Rogue))
                .engine_mode(mode)
                .build();
            sim.step();
            let m = sim.metrics();
            // Only the first source transmission on edge 0 is valid.
            assert_eq!(m.sent, 1, "{mode:?}");
            assert_eq!(m.rejected_plans, 3, "{mode:?}");
            // Conservation still holds.
            let stored: u64 = sim.queues().iter().sum();
            assert_eq!(m.injected, stored + m.delivered + m.lost);
        }
    }

    #[test]
    fn history_modes() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::None)
            .build();
        sim.run(50);
        assert!(sim.metrics().history.is_empty());

        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::EveryStep)
            .build();
        sim.run(50);
        assert_eq!(sim.metrics().history.len(), 50);

        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .history(HistoryMode::Sampled(10))
            .build();
        sim.run(50);
        assert_eq!(sim.metrics().history.len(), 5);
    }

    #[test]
    fn age_tracking_records_pipeline_latency() {
        // Path 0-1-2 with rate-1 source at steady state: every delivered
        // packet takes exactly 2 hops + 0 wait = sojourn 2 (born at t,
        // extracted at t+2).
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .track_ages(true)
            .build();
        sim.run(200);
        let stats = sim.latency_stats().expect("ages on");
        assert!(stats.count > 150);
        // All sojourns equal once the pipeline fills; mean ~2.
        assert!((stats.mean() - 2.0).abs() < 0.2, "mean {}", stats.mean());
        assert!(stats.max <= 4);
        assert!(stats.quantile_upper_bound(0.99) <= 8);
    }

    #[test]
    fn age_fifos_mirror_queues_under_loss() {
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .loss(Box::new(IidLoss::new(0.3)))
            .track_ages(true)
            .seed(5)
            .build();
        for _ in 0..300 {
            sim.step();
            let stats = sim.latency_stats().unwrap().clone();
            // delivered count matches metrics
            assert_eq!(stats.count, sim.metrics().delivered);
        }
    }

    #[test]
    fn age_tracking_off_returns_none() {
        let spec = path_spec();
        let sim = SimulationBuilder::new(spec, Box::new(NullProtocol)).build();
        assert!(sim.latency_stats().is_none());
    }

    #[test]
    fn warm_start_ages_are_seeded() {
        let spec = path_spec();
        let mut sim = SimulationBuilder::new(spec, Box::new(NullProtocol))
            .initial_queues(vec![0, 0, 3])
            .track_ages(true)
            .build();
        sim.step(); // sink extracts 2 (out = 2), born at 0, t = 0
        let stats = sim.latency_stats().unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 0);
    }

    #[test]
    fn link_utilization_saturates_on_bottleneck() {
        // Path at capacity: every link carries ~1 packet/step at steady
        // state.
        let spec = TrafficSpecBuilder::new(generators::path(3))
            .source(0, 1)
            .sink(2, 1)
            .build()
            .unwrap();
        let mut sim = SimulationBuilder::new(spec, Box::new(TestGreedy)).build();
        sim.run(1000);
        let m = sim.metrics();
        assert_eq!(m.link_sends.len(), 2);
        assert!(m.link_utilization(0) > 0.9, "{}", m.link_utilization(0));
        assert!(m.link_utilization(1) > 0.9);
        let busiest = m.busiest_links(1);
        assert_eq!(busiest.len(), 1);
        assert!(busiest[0].1 <= 1.0);
    }

    #[test]
    fn link_utilization_zero_without_traffic() {
        let spec = path_spec();
        let sim = SimulationBuilder::new(spec, Box::new(NullProtocol)).build();
        assert_eq!(sim.metrics().link_utilization(0), 0.0);
        assert_eq!(sim.metrics().busiest_links(5).len(), 2);
    }

    #[test]
    fn network_state_matches_definition() {
        let mut sim = SimulationBuilder::new(path_spec(), Box::new(NullProtocol))
            .initial_queues(vec![3, 4, 0])
            .build();
        assert_eq!(sim.network_state(), 25);
        assert_eq!(sim.total_packets(), 7);
        sim.step(); // source injects 2 -> q0 = 5; sink empty
        assert_eq!(sim.network_state(), 41);
    }

    /// A stochastically loaded scenario exercising every checkpointed
    /// subsystem: Bernoulli injection (RNG), i.i.d. loss (RNG), Markov
    /// topology (RNG + private state), randomized declaration (policy
    /// RNG), age tracking, and the given engine mode.
    fn checkpoint_sim(mode: EngineMode) -> Simulation {
        let spec = TrafficSpecBuilder::new(generators::cycle(12))
            .source(0, 2)
            .source(4, 1)
            .sink(6, 2)
            .sink(9, 1)
            .retention(3)
            .build()
            .unwrap();
        SimulationBuilder::new(spec, Box::new(TestGreedy))
            .seed(0xDECAF)
            .injection(Box::new(BernoulliInjection { p: 0.8 }))
            .loss(Box::new(IidLoss { p: 0.05 }))
            .topology(Box::new(crate::dynamic::MarkovTopology::new(
                0.02,
                0.5,
                vec![],
            )))
            .declaration(Box::new(RandomBelowRetention))
            .track_ages(true)
            .engine_mode(mode)
            .history(HistoryMode::EveryStep)
            .build()
    }

    #[test]
    fn checkpoint_round_trip_is_bit_for_bit() {
        for mode in [
            EngineMode::SparseActive,
            EngineMode::DenseReference,
            EngineMode::Auto,
        ] {
            let mut reference = checkpoint_sim(mode);
            reference.run(137);
            let payload = reference.checkpoint_payload();
            reference.run(200);

            let mut resumed = checkpoint_sim(mode);
            resumed.restore_checkpoint_payload(&payload).unwrap();
            assert_eq!(resumed.time(), 137);
            resumed.run(200);

            assert_eq!(resumed.queues(), reference.queues(), "mode {mode:?}");
            assert_eq!(
                serde_json::to_string(resumed.metrics()).unwrap(),
                serde_json::to_string(reference.metrics()).unwrap(),
                "mode {mode:?}"
            );
            // The strongest form: the complete serialized states agree.
            assert_eq!(
                resumed.checkpoint_payload(),
                reference.checkpoint_payload(),
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn checkpoint_rejects_mismatched_scenario() {
        let mut source = checkpoint_sim(EngineMode::SparseActive);
        source.run(10);
        let payload = source.checkpoint_payload();

        // Different topology size.
        let spec = TrafficSpecBuilder::new(generators::cycle(10))
            .source(0, 1)
            .sink(5, 1)
            .build()
            .unwrap();
        let mut other = SimulationBuilder::new(spec, Box::new(TestGreedy)).build();
        let err = other.restore_checkpoint_payload(&payload).unwrap_err();
        assert!(matches!(err, LggError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("node count"), "{err}");

        // Same sizes, different components.
        let mut other = checkpoint_sim(EngineMode::SparseActive);
        let boxed: Box<dyn DeclarationPolicy> = Box::new(TruthfulDeclaration);
        // Rebuild with a different declaration policy via the builder.
        let spec = TrafficSpecBuilder::new(generators::cycle(12))
            .source(0, 2)
            .source(4, 1)
            .sink(6, 2)
            .sink(9, 1)
            .retention(3)
            .build()
            .unwrap();
        let mut different = SimulationBuilder::new(spec, Box::new(TestGreedy))
            .injection(Box::new(BernoulliInjection { p: 0.8 }))
            .loss(Box::new(IidLoss { p: 0.05 }))
            .topology(Box::new(crate::dynamic::MarkovTopology::new(
                0.02,
                0.5,
                vec![],
            )))
            .declaration(boxed)
            .track_ages(true)
            .build();
        let err = different.restore_checkpoint_payload(&payload).unwrap_err();
        assert!(matches!(err, LggError::CheckpointMismatch { .. }), "{err}");
        assert!(err.to_string().contains("declaration"), "{err}");

        // Truncated payload is corrupt, not a crash.
        let err = other
            .restore_checkpoint_payload(&payload[..payload.len() / 2])
            .unwrap_err();
        assert!(matches!(err, LggError::CheckpointCorrupt { .. }), "{err}");
    }

    #[test]
    fn run_until_writes_and_resumes_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "lgg_ckpt_engine_{}_{:x}",
            std::process::id(),
            0xFEEDu32
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mut reference = checkpoint_sim(EngineMode::SparseActive);
        reference.run(300);
        let want = reference.checkpoint_payload();

        let mut first = checkpoint_sim(EngineMode::SparseActive);
        first.set_checkpoint(Some(CheckpointConfig::new(50, &dir)));
        assert_eq!(first.checkpoint_config().unwrap().every, 50);
        first.run_until(140).unwrap();
        // 140 is not a multiple of 50, but run_until snapshots the final
        // step too, so resume starts exactly at 140.
        drop(first);

        let mut second = checkpoint_sim(EngineMode::SparseActive);
        second.set_checkpoint(Some(CheckpointConfig::new(50, &dir)));
        assert_eq!(second.resume_from_dir(&dir).unwrap(), Some(140));
        second.run_until(300).unwrap();
        assert_eq!(second.checkpoint_payload(), want);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
