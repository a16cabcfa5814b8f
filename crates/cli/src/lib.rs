#![warn(missing_docs)]

//! # lgg-cli — scenario files and the `lgg-sim` runner
//!
//! A downstream user should not need to write Rust to try LGG on their
//! network. This crate defines a JSON [`Scenario`] format covering the
//! whole model surface — topology, traffic (classic and R-generalized),
//! protocol, arrival process, loss model, topology dynamics, lying and
//! extraction policies — and a binary that runs it:
//!
//! ```text
//! lgg-sim scenario.json            # run, print a human report
//! lgg-sim scenario.json --json     # machine-readable report on stdout
//! lgg-sim --template > my.json     # start from a commented template
//! lgg-sim run scenario.json --checkpoint-every N --checkpoint-dir D [--guard]
//! lgg-sim trace scenario.json --out run.jsonl
//! ```
//!
//! The report ([`run_scenario`]), the checkpointed and guarded run
//! ([`run_with_checkpoints`]) and the trace capture ([`capture_trace`])
//! share one run driver: it checks the horizon, installs the observer,
//! builds, resumes and aligns the trace, runs to the target and surfaces
//! a sink write error. They differ only in the observer they install and
//! in what they return.
//!
//! Example scenario:
//!
//! ```json
//! {
//!   "topology": {"kind": "dumbbell", "clique": 4, "bridge": 2},
//!   "sources": [{"node": 0, "rate": 1}],
//!   "sinks":   [{"node": 9, "rate": 4}],
//!   "protocol": "lgg",
//!   "loss": {"kind": "iid", "p": 0.1},
//!   "steps": 50000,
//!   "seed": 7,
//!   "track_ages": true
//! }
//! ```

mod bench;
mod chaos;
mod checkpoint_cmd;
mod driver;
mod report;
mod scenario;
mod sweep;
mod trace_cmd;

pub use bench::{
    check_observer_baseline, guard_bench, observer_bench, run_bench_suite, BenchReport,
    EngineThroughput, GuardBench, ObserverBench,
};
pub use chaos::{
    compose_trial, replay_reproducer, run_chaos, shrink, write_reproducer, ChaosConfig,
    ChaosReport, Reproducer,
};
pub use checkpoint_cmd::{run_with_checkpoints, RunSummary};
pub use driver::RunConfig;
pub use report::{run_scenario, RunReport};
pub use sweep::{
    run_sweep, sweep_digest, write_sweep_into_bench, SweepConfig, SweepItem, SweepReport,
};
pub use scenario::{
    DeclarationSpec, DynamicsSpec, Endpoint, EngineSpec, ExtractionSpec, GeneralizedNode,
    InjectionSpec, LossSpec, ObserverSpec, ProtocolSpec, Scenario, ScenarioObserver,
    TopologySpec,
};
// The workspace error type and override bag live in `simqueue`; re-export
// them so CLI-facing code keeps one import path.
pub use simqueue::{CheckpointConfig, LggError, SimOverrides};
pub use trace_cmd::{capture_trace, fnv1a_digest, trace_smoke_scenario};
