//! The four workloads: what each one runs, and how `--seed` picks its input.
//!
//! Every workload has a small fixed number of input variants and uses
//! variant `seed % variants`. A fixed set is what lets every run of every
//! seed be checked against a recorded digest (`expected.json`).

use lgg_cli::Scenario;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LGG's queue-gradient steady state on a 16×16 grid (`e15`'s largest
    /// case): nearly every node active, `RoutingProtocol::plan` dominates.
    LggGradient,
    /// Shortest-path forwarding on a 64×64 grid: ~3% of nodes active, so
    /// the engine's sparse bookkeeping dominates and set-up is largest.
    SparseDrain,
    /// `lgg-sim run --guard --trace --checkpoint-every` on the lossy
    /// sensor field, then a restore of the last periodic snapshot.
    GuardedRun,
    /// Thousands of tiny composed chaos trials, guarded, on `parpool`.
    ChaosCampaign,
}

/// How much work one repetition of a workload does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated steps per run (per trial for the campaign).
    pub steps: u64,
    /// Campaign trials (unused by the single-run workloads).
    pub trials: usize,
    /// Snapshot period of the guarded run.
    pub ckpt_every: u64,
    /// Steps per timed chunk in the traced run.
    pub chunk: u64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::LggGradient,
        Workload::SparseDrain,
        Workload::GuardedRun,
        Workload::ChaosCampaign,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LggGradient => "lgg-gradient",
            Workload::SparseDrain => "sparse-drain",
            Workload::GuardedRun => "guarded-run",
            Workload::ChaosCampaign => "chaos-campaign",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of distinct inputs; `--seed` selects `seed % variants`.
    pub fn variants(self) -> u64 {
        match self {
            // Exact injection with a deterministic protocol draws no random
            // numbers, so the seed picks the source/sink pair.
            Workload::LggGradient => GRADIENT_PAIRS.len() as u64,
            Workload::SparseDrain => DRAIN_PAIRS.len() as u64,
            // Master seed of the run / of the campaign.
            Workload::GuardedRun | Workload::ChaosCampaign => 16,
        }
    }

    /// A seed kept out of tuning, for checking a claimed gain on an input
    /// it was not developed on.
    pub fn heldout_seed(self) -> u64 {
        match self {
            // Variant 3.
            Workload::LggGradient | Workload::SparseDrain => 1_000_003,
            Workload::GuardedRun => 13,
            Workload::ChaosCampaign => 14,
        }
    }

    /// The size the benchmark measures.
    pub fn full_size(self) -> Size {
        match self {
            Workload::LggGradient => Size {
                steps: 200_000,
                trials: 0,
                ckpt_every: 0,
                chunk: 500,
            },
            Workload::SparseDrain => Size {
                steps: 300_000,
                trials: 0,
                ckpt_every: 0,
                chunk: 500,
            },
            Workload::GuardedRun => Size {
                steps: 100_000,
                trials: 0,
                ckpt_every: 10_000,
                chunk: 250,
            },
            Workload::ChaosCampaign => Size {
                steps: 1_500,
                trials: 2_000,
                ckpt_every: 0,
                chunk: 0,
            },
        }
    }

    /// A short version of the same workload for the self-test.
    pub fn short_size(self) -> Size {
        let full = self.full_size();
        match self {
            Workload::ChaosCampaign => Size {
                steps: 400,
                trials: 64,
                ..full
            },
            Workload::GuardedRun => Size {
                steps: 6_000,
                ckpt_every: 1_000,
                ..full
            },
            _ => Size {
                steps: 5_000,
                ..full
            },
        }
    }

    /// The scenario JSON one run of a single-run workload parses, or
    /// `None` for the campaign (its trials come from `compose_trial`).
    pub fn scenario_json(self, variant: u64, size: Size) -> Option<String> {
        let steps = size.steps;
        match self {
            Workload::LggGradient => Some(grid_json(
                16,
                GRADIENT_PAIRS[variant as usize],
                4,
                "lgg",
                steps,
            )),
            Workload::SparseDrain => Some(grid_json(
                64,
                DRAIN_PAIRS[variant as usize],
                2,
                "shortest-path",
                steps,
            )),
            // scenarios/lossy_sensor_field.json at a longer horizon, with
            // the master seed taken from the variant.
            Workload::GuardedRun => Some(format!(
                r#"{{
  "topology": {{"kind": "random-geometric", "n": 50, "radius": 0.25, "seed": 11}},
  "sources": [{{"node": 5, "rate": 1}}, {{"node": 17, "rate": 1}}, {{"node": 29, "rate": 1}}],
  "sinks":   [{{"node": 0, "rate": 6}}],
  "protocol": "matching-lgg",
  "injection": {{"kind": "bernoulli", "p": 0.3}},
  "loss": {{"kind": "gilbert-elliott", "p_loss_good": 0.02, "p_loss_bad": 0.4, "p_g2b": 0.05, "p_b2g": 0.3}},
  "steps": {steps},
  "seed": {variant},
  "track_ages": true
}}"#
            )),
            Workload::ChaosCampaign => None,
        }
    }
}

/// Source and sink of each `lgg-gradient` input: opposite corners, one
/// corner mirrored, and two pairs moved one node in. Each keeps nearly
/// every node active (`simqueue.active_frac` 0.95–0.99) at about the same
/// cost. The pairs with the source on node 255 (no gradient forms) or 17
/// (active_frac 0.92, ~8% faster) are left out for that reason.
const GRADIENT_PAIRS: [(usize, usize); 4] = [(0, 255), (1, 254), (16, 239), (15, 240)];

/// Source and sink of each `sparse-drain` input: opposite corners and
/// three pairs moved one node in, so every path keeps the orientation of
/// the first (~125 hops, `simqueue.active_frac` 0.03). The mirrored
/// corners are left out: their path runs along the other axis and costs
/// ~15% more per step.
const DRAIN_PAIRS: [(usize, usize); 4] = [(0, 4095), (1, 4094), (64, 4031), (65, 4030)];

/// A `side`×`side` grid with a rate-1 source and a sink.
fn grid_json(
    side: usize,
    (source, sink): (usize, usize),
    sink_rate: u64,
    protocol: &str,
    steps: u64,
) -> String {
    debug_assert!(source < side * side && sink < side * side);
    format!(
        r#"{{"topology": {{"kind": "grid2d", "rows": {side}, "cols": {side}}},
  "sources": [{{"node": {source}, "rate": 1}}],
  "sinks": [{{"node": {sink}, "rate": {sink_rate}}}],
  "protocol": "{protocol}", "steps": {steps}}}"#
    )
}

/// Parses a scenario produced by [`Workload::scenario_json`].
pub fn parse(json: &str) -> Result<Scenario, String> {
    Scenario::from_json(json).map_err(|e| format!("scenario does not parse: {e}"))
}
