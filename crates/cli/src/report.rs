//! Running a scenario and reporting the outcome.

use netmodel::{classify, NetworkClass};
use serde::{Deserialize, Serialize};
use simqueue::{assess_stability, LatencyStats, Metrics, StabilityReport, WindowStats};

use crate::driver::drive;
use crate::{LggError, RunConfig, Scenario};

/// The full machine-readable result of one scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Network size.
    pub nodes: usize,
    /// Link count.
    pub edges: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Feasibility classification (Definitions 3–4 + cut case).
    pub classification: NetworkClass,
    /// Aggregate run metrics.
    pub metrics: Metrics,
    /// Stability assessment of the trajectory.
    pub stability: StabilityReport,
    /// Latency distribution (when `track_ages` was set).
    pub latency: Option<LatencyStats>,
    /// Windowed telemetry time-series (when the scenario's `telemetry`
    /// section selects a window aggregator).
    #[serde(default)]
    pub telemetry: Option<Vec<WindowStats>>,
}

impl RunReport {
    /// Renders a short human-readable summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "network: n = {}, m = {}, Δ = {}\n",
            self.nodes, self.edges, self.max_degree
        ));
        out.push_str(&format!(
            "classification: {:?} (f* = {}, arrival = {})\n",
            self.classification.feasibility,
            self.classification.f_star,
            self.classification.arrival_rate
        ));
        out.push_str(&format!(
            "after {} steps: {:?} (backlog sup {}, slope {:.4})\n",
            self.metrics.steps, self.stability.verdict, self.metrics.sup_total, self.stability.slope
        ));
        out.push_str(&format!(
            "throughput: injected {}, delivered {} ({:.1}%), lost {}\n",
            self.metrics.injected,
            self.metrics.delivered,
            100.0 * self.metrics.delivery_ratio(),
            self.metrics.lost
        ));
        out.push_str(&format!(
            "backlog mean {:.1}; Little's-law latency {:.1} steps\n",
            self.metrics.mean_backlog(),
            self.metrics.mean_latency()
        ));
        if let Some(lat) = &self.latency {
            out.push_str(&format!(
                "measured latency: mean {:.1}, p50 <= {}, p99 <= {}, max {}\n",
                lat.mean(),
                lat.quantile_upper_bound(0.5),
                lat.quantile_upper_bound(0.99),
                lat.max
            ));
        }
        if let Some(windows) = &self.telemetry {
            let peak = windows.iter().map(|w| w.pt_max).max().unwrap_or(0);
            out.push_str(&format!(
                "telemetry: {} windows, peak P_t {}\n",
                windows.len(),
                peak
            ));
        }
        out
    }
}

/// Materializes and runs `scenario`, returning the full report. The
/// scenario's `telemetry` section is honored: a window aggregator's
/// time-series lands in [`RunReport::telemetry`], a JSONL sink is
/// flushed to its file.
pub fn run_scenario(scenario: &Scenario) -> Result<RunReport, LggError> {
    let spec = scenario.traffic_spec()?;
    let classification = classify(&spec);
    let (done, observer) = drive(scenario, &RunConfig::default(), || {
        scenario.telemetry.build()
    })?;
    Ok(RunReport {
        nodes: spec.node_count(),
        edges: spec.graph.edge_count(),
        max_degree: spec.max_degree(),
        classification,
        stability: assess_stability(&done.metrics.history),
        latency: done.latency,
        metrics: done.metrics,
        telemetry: observer.into_windows(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simqueue::StabilityVerdict;

    fn scenario(json: &str) -> Scenario {
        Scenario::from_json(json).unwrap()
    }

    #[test]
    fn stable_scenario_reports_stable() {
        let sc = scenario(
            r#"{
                "topology": {"kind": "grid2d", "rows": 4, "cols": 4},
                "sources": [{"node": 0, "rate": 1}],
                "sinks": [{"node": 15, "rate": 2}],
                "protocol": "lgg",
                "steps": 8000,
                "track_ages": true
            }"#,
        );
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.stability.verdict, StabilityVerdict::Stable);
        assert!(report.classification.feasibility.is_feasible());
        let lat = report.latency.as_ref().expect("ages tracked");
        assert!(lat.count > 0);
        assert!(lat.mean() >= 6.0 - 1.0, "shortest path is 6 hops");
        let text = report.human();
        assert!(text.contains("Stable"));
        assert!(text.contains("measured latency"));
    }

    #[test]
    fn overloaded_scenario_reports_divergence() {
        let sc = scenario(
            r#"{
                "topology": {"kind": "path", "n": 4},
                "sources": [{"node": 0, "rate": 3}],
                "sinks": [{"node": 3, "rate": 3}],
                "protocol": "lgg",
                "steps": 6000
            }"#,
        );
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.stability.verdict, StabilityVerdict::Diverging);
        assert!(!report.classification.feasibility.is_feasible());
        assert!(report.latency.is_none());
    }

    #[test]
    fn telemetry_window_lands_in_report() {
        let sc = scenario(
            r#"{
                "topology": {"kind": "path", "n": 3},
                "sources": [{"node": 0, "rate": 1}],
                "sinks": [{"node": 2, "rate": 1}],
                "protocol": "lgg",
                "telemetry": {"kind": "window", "size": 500},
                "steps": 2000
            }"#,
        );
        let report = run_scenario(&sc).unwrap();
        let windows = report.telemetry.as_ref().expect("windowed telemetry");
        assert_eq!(windows.len(), 4);
        assert!(windows.iter().all(|w| w.samples == 500));
        assert!(windows[0].injected > 0);
        assert!(report.human().contains("telemetry: 4 windows"));
        // Round-trips through JSON with the telemetry attached.
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.telemetry.unwrap().len(), 4);
    }

    #[test]
    fn report_serializes() {
        let sc = scenario(
            r#"{
                "topology": {"kind": "path", "n": 3},
                "sources": [{"node": 0, "rate": 1}],
                "sinks": [{"node": 2, "rate": 1}],
                "protocol": "maxflow-routing",
                "steps": 1000
            }"#,
        );
        let report = run_scenario(&sc).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"sup_total\""));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics, report.metrics);
    }
}
