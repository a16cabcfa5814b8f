//! `lgg-sim trace`: stream a scenario's per-step event trace as JSON
//! Lines.
//!
//! One line per [`simqueue::TraceEvent`], in emission order — which the
//! engine guarantees is identical across engine modes and thread counts,
//! so the byte stream doubles as a determinism witness. `--smoke` runs a
//! small built-in scenario twice and verifies the two captures are
//! byte-identical before printing the digest (the form CI runs).

use simqueue::JsonlSink;

use crate::driver::drive;
use crate::{LggError, RunConfig, Scenario};

/// FNV-1a digest of a byte stream, printed as 16 hex digits — the same
/// witness format `lgg-sim sweep` uses for outcome digests.
pub fn fnv1a_digest(bytes: &[u8]) -> String {
    format!("{:016x}", simqueue::checkpoint::fnv1a(bytes))
}

/// Runs `steps` of `sc` with a [`JsonlSink`] attached and returns the
/// raw JSONL bytes — the bytes `lgg-sim run --trace` writes for the same
/// steps. `sample_stride` thins the per-step `sample` lines (1 keeps
/// all); other event kinds are never thinned. The scenario's own
/// `telemetry` section is not consulted — the sink *is* the observer for
/// this run. Fails when `steps` overflows the scenario's arrivals
/// ([`Scenario::check_horizon`]).
pub fn capture_trace(
    sc: &Scenario,
    steps: u64,
    sample_stride: u64,
) -> Result<Vec<u8>, LggError> {
    let cfg = RunConfig {
        steps: Some(steps),
        ..RunConfig::default()
    };
    let (_, sink) = drive(sc, &cfg, || {
        Ok(JsonlSink::new(Vec::new()).with_sample_stride(sample_stride))
    })?;
    Ok(sink.into_inner())
}

/// The built-in `--smoke` scenario: a 3×3 grid with a lying
/// R-generalized relay, i.i.d. loss and a rotating link outage, sized so
/// a short run exercises every phase of the step loop (topology churn,
/// injection, declaration lies, transmission, loss, lazy extraction,
/// sampling). Also the subject of the golden-trace regression test.
pub fn trace_smoke_scenario() -> Scenario {
    Scenario::from_json(
        r#"{
            "topology": {"kind": "grid2d", "rows": 3, "cols": 3},
            "sources": [{"node": 0, "rate": 1}],
            "sinks": [{"node": 8, "rate": 2}],
            "generalized": [{"node": 4, "in": 1, "out": 0}],
            "retention": 4,
            "declaration": "full-retention",
            "extraction": "lazy",
            "protocol": "lgg",
            "loss": {"kind": "iid", "p": 0.2},
            "dynamics": {"kind": "rotating", "k": 1},
            "steps": 150,
            "seed": 7
        }"#,
    )
    .expect("built-in smoke scenario parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_is_reproducible_jsonl() {
        let sc = trace_smoke_scenario();
        let bytes = capture_trace(&sc, sc.steps, 1).unwrap();
        assert_eq!(bytes, capture_trace(&sc, sc.steps, 1).unwrap());
        let text = std::str::from_utf8(&bytes).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = serde_json::from_str_value(line).unwrap();
            let fields = v.as_object().unwrap();
            let kind = serde::value_lookup(fields, "event")
                .and_then(|k| k.as_str())
                .unwrap();
            kinds.insert(kind.to_string());
        }
        // Every phase of the step loop shows up in the smoke run.
        for kind in [
            "link-up",
            "link-down",
            "injection",
            "declaration-lie",
            "transmission",
            "loss",
            "extraction",
            "sample",
        ] {
            assert!(kinds.contains(kind), "missing {kind} in {kinds:?}");
        }
        // The digest `lgg-sim trace --smoke` prints, pinned.
        assert_eq!(fnv1a_digest(&bytes), "7dd8b5b588127ab6");
    }

    #[test]
    fn sample_stride_thins_only_samples() {
        let sc = trace_smoke_scenario();
        let full = capture_trace(&sc, sc.steps, 1).unwrap();
        let thin = capture_trace(&sc, sc.steps, 10).unwrap();
        let count = |bytes: &[u8], kind: &str| {
            std::str::from_utf8(bytes)
                .unwrap()
                .lines()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        assert_eq!(count(&full, "sample"), 150);
        assert_eq!(count(&thin, "sample"), 15);
        assert_eq!(count(&full, "injection"), count(&thin, "injection"));
    }
}
