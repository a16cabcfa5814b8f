//! Statistics, metric tables, host metadata and the result line.

use std::path::Path;
use std::process::{Command, Stdio};

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "steps/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trials_per_s", "1/s"),
];

/// Per-layer metrics (traced runs): name and unit. Times and counts are
/// per repetition (one run, or one whole campaign), median over the
/// traced repetitions; `_p50`/`_p99` pool every sample of the run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.parse_s", "s"),
    ("mgraph.build_s", "s"),
    ("mgraph.nodes", "count"),
    ("mgraph.edges", "count"),
    ("netmodel.spec_s", "s"),
    ("netmodel.classify_s", "s"),
    ("maxflow.solve_s", "s"),
    ("core.plan_s", "s"),
    ("core.plan_calls", "count"),
    ("core.planned", "count"),
    ("core.plan_accept_ratio", "ratio"),
    ("simqueue.steps", "count"),
    ("simqueue.step_s", "s"),
    ("simqueue.engine_self_s", "s"),
    ("simqueue.loss_s", "s"),
    ("simqueue.topology_s", "s"),
    ("simqueue.inject_calls", "count"),
    ("simqueue.declare_calls", "count"),
    ("simqueue.extract_calls", "count"),
    ("simqueue.active_frac", "ratio"),
    ("simqueue.dense_share", "ratio"),
    ("simqueue.chunk_ms_p50", "ms"),
    ("simqueue.chunk_ms_p99", "ms"),
    ("simqueue.chunk_samples", "count"),
    ("trace.events", "count"),
    ("trace.observe_s", "s"),
    ("trace.jsonl_bytes", "bytes"),
    ("trace.jsonl_mb_per_s", "MB/s"),
    ("guard.s", "s"),
    ("guard.violations", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms_p50", "ms"),
    ("checkpoint.write_ms_p99", "ms"),
    ("checkpoint.write_samples", "count"),
    ("checkpoint.restore_ms", "ms"),
    ("parpool.threads", "count"),
    ("parpool.busy_s", "s"),
    ("parpool.idle_s", "s"),
    ("parpool.utilization", "ratio"),
    ("parpool.trial_ms_p50", "ms"),
    ("parpool.trial_ms_p99", "ms"),
    ("parpool.trial_samples", "count"),
    ("cli.compose_s", "s"),
    ("cli.trial_build_s", "s"),
    ("sim.injected", "count"),
    ("sim.delivered", "count"),
    ("sim.lost", "count"),
    ("sim.sup_total", "count"),
    ("sim.sup_pt", "count"),
    ("bench.untraced_steps_per_s", "steps/s"),
    ("bench.traced_steps_per_s", "steps/s"),
    ("bench.traced_vs_untraced", "ratio"),
];

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 1]`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Named samples collected over a run: scalars (one per repetition,
/// reported as their median) and pooled distributions (percentiles).
#[derive(Default)]
pub struct Acc {
    entries: Vec<(String, Vec<f64>)>,
}

impl Acc {
    fn slot(&mut self, name: &str) -> &mut Vec<f64> {
        let i = match self.entries.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                self.entries.push((name.to_string(), Vec::new()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }

    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        self.slot(name).push(value);
    }

    /// Adds many samples of a pooled distribution.
    pub fn pool(&mut self, name: &str, values: &[f64]) {
        self.slot(name).extend_from_slice(values);
    }

    /// Moves `other`'s samples into `self`, multiplying times (names
    /// ending in `_s` or `_ms`) by `factor`.
    pub fn merge_scaled(&mut self, other: Acc, factor: f64) {
        for (name, values) in other.entries {
            let f = if name.ends_with("_s") || name.ends_with("_ms") {
                factor
            } else {
                1.0
            };
            let scaled: Vec<f64> = values.iter().map(|v| v * f).collect();
            self.pool(&name, &scaled);
        }
    }

    /// All samples of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Median of `name`'s samples (0 when none).
    pub fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// repository itself (git is not asked to search parent directories).
fn git_commit() -> String {
    Path::new(".git")
        .exists()
        .then(|| command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// Host and provenance metadata, as one JSON object line.
/// `unscaled` carries the end-to-end values before host-speed scaling and
/// the median probe time.
pub fn host_line(
    workload: &str,
    seed: u64,
    variant: u64,
    unscaled: &[(&str, &str, f64)],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("variant", variant.to_string()),
        ("nproc", nproc.to_string()),
        ("pool_threads", parpool::max_threads().to_string()),
        (
            "rustc",
            json_str(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_commit", json_str(&git_commit())),
        ("cpu", json_str(&cpu_model())),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let raw: Vec<String> = unscaled
        .iter()
        .map(|(n, _, v)| format!("{}:{}", json_str(n), json_num(*v)))
        .collect();
    format!(
        "{{\"host\":{{{}}},\"unscaled\":{{{}}}}}",
        body.join(","),
        raw.join(",")
    )
}

/// The result line: correctness, operation counts and metrics.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        attempted,
        failed,
        body.join(",")
    )
}
