//! Tracing at the library's public boundaries: wrappers around the trait
//! objects handed to `SimulationBuilder`, a counting observer, and an
//! in-memory span recorder.
//!
//! Per-step calls (`plan`, `LossModel::apply`, `TopologyProcess::update`)
//! are timed. Per-node calls (injection, declaration, extraction) and
//! per-event observer calls are only counted: a clock read costs more than
//! such a call, so their cost comes from runs with and without the layer.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use mgraph::{MultiGraph, NodeId};
use netmodel::TrafficSpec;
use rand::rngs::StdRng;
use simqueue::declare::DeclarationPolicy;
use simqueue::dynamic::TopologyProcess;
use simqueue::injection::InjectionProcess;
use simqueue::loss::LossModel;
use simqueue::{
    ExtractionPolicy, LggError, NetView, RoutingProtocol, SimObserver, TraceEvent, Transmission,
};

/// Counters shared by the wrappers of one simulation.
#[derive(Debug, Default)]
pub struct Counters {
    pub(crate) plan_ns: Cell<u64>,
    pub(crate) plan_calls: Cell<u64>,
    pub(crate) planned: Cell<u64>,
    pub(crate) loss_ns: Cell<u64>,
    pub(crate) topology_ns: Cell<u64>,
    pub(crate) inject_calls: Cell<u64>,
    pub(crate) declare_calls: Cell<u64>,
    pub(crate) extract_calls: Cell<u64>,
}

fn add(c: &Cell<u64>, x: u64) {
    c.set(c.get() + x);
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times `RoutingProtocol::plan` and counts planned transmissions.
pub struct TimedProtocol(pub Box<dyn RoutingProtocol>, pub Rc<Counters>);

impl RoutingProtocol for TimedProtocol {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn plan(&mut self, view: &NetView<'_>, out: &mut Vec<Transmission>) {
        let t = Instant::now();
        self.0.plan(view, out);
        add(&self.1.plan_ns, elapsed_ns(t));
        add(&self.1.plan_calls, 1);
        add(&self.1.planned, out.len() as u64);
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Times `LossModel::apply`.
pub struct TimedLoss(pub Box<dyn LossModel>, pub Rc<Counters>);

impl LossModel for TimedLoss {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn apply(
        &mut self,
        graph: &MultiGraph,
        transmissions: &[Transmission],
        queues: &[u64],
        t: u64,
        rng: &mut StdRng,
        lost: &mut [bool],
    ) {
        let start = Instant::now();
        self.0.apply(graph, transmissions, queues, t, rng, lost);
        add(&self.1.loss_ns, elapsed_ns(start));
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Times `TopologyProcess::update`.
pub struct TimedTopology(pub Box<dyn TopologyProcess>, pub Rc<Counters>);

impl TopologyProcess for TimedTopology {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn update(&mut self, graph: &MultiGraph, t: u64, rng: &mut StdRng, active: &mut [bool]) {
        let start = Instant::now();
        self.0.update(graph, t, rng, active);
        add(&self.1.topology_ns, elapsed_ns(start));
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Counts `InjectionProcess::amount` calls.
pub struct CountedInjection(pub Box<dyn InjectionProcess>, pub Rc<Counters>);

impl InjectionProcess for CountedInjection {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn amount(&mut self, v: NodeId, t: u64, cap: u64, rng: &mut StdRng) -> u64 {
        add(&self.1.inject_calls, 1);
        self.0.amount(v, t, cap, rng)
    }
    fn reset(&mut self) {
        self.0.reset()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Counts `DeclarationPolicy::declare` calls.
pub struct CountedDeclaration(pub Box<dyn DeclarationPolicy>, pub Rc<Counters>);

impl DeclarationPolicy for CountedDeclaration {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn declare(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng) -> u64 {
        add(&self.1.declare_calls, 1);
        self.0.declare(spec, v, q, t, rng)
    }
    // Forwarded: the engine skips idle nodes only for stateless policies,
    // so hiding this would change what the traced engine does.
    fn is_stateless(&self) -> bool {
        self.0.is_stateless()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Counts `ExtractionPolicy::extract` calls.
pub struct CountedExtraction(pub Box<dyn ExtractionPolicy>, pub Rc<Counters>);

impl ExtractionPolicy for CountedExtraction {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn extract(&mut self, spec: &TrafficSpec, v: NodeId, q: u64, t: u64, rng: &mut StdRng) -> u64 {
        add(&self.1.extract_calls, 1);
        self.0.extract(spec, v, q, t, rng)
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.0.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.0.load_state(bytes)
    }
}

/// Counts the events an observer receives, forwarding them to `inner`.
pub struct CountingObserver<O> {
    pub inner: O,
    pub events: u64,
}

impl<O> CountingObserver<O> {
    pub fn new(inner: O) -> Self {
        CountingObserver { inner, events: 0 }
    }
}

impl<O: SimObserver> SimObserver for CountingObserver<O> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn observe(&mut self, ev: TraceEvent) {
        self.events += 1;
        self.inner.observe(ev)
    }
    fn finish(&mut self) {
        self.inner.finish()
    }
    fn save_state(&mut self, out: &mut Vec<u8>) {
        self.inner.save_state(out)
    }
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), LggError> {
        self.inner.load_state(bytes)
    }
}

/// One recorded span: a named interval and the span that contains it.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// In-memory span log of one traced run, written out when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> f64 {
        let i = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[i];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// span's duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        self.open(name);
        let r = f(self);
        let d = self.close();
        (r, d)
    }

    /// Records a span measured elsewhere (e.g. on a pool worker), as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: rel(start),
            end_s: rel(end),
            parent: self.open.last().copied(),
        });
    }

    /// JSON Lines, one span per line: name, start, end (seconds since the
    /// run began) and the parent's line index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}\n",
                s.name, s.start_s, s.end_s
            ));
        }
        out
    }
}
