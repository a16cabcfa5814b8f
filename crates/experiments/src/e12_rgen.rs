//! E12 — Definitions 5–8: R-generalized behavior. Pseudo-sources that
//! under-inject, R-pseudo-destinations that retain up to `R` packets and
//! lie about their queue below `R` — stability must survive every legal
//! combination, with backlog growing with `R` (Property 3's constants do).

use lgg_core::bounds::generalized_bounds;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::declare::{FullRetention, RandomBelowRetention, TruthfulDeclaration, ZeroBelowRetention};
use simqueue::{DeclarationPolicy, LazyExtraction, MaxExtraction};

use crate::common::{fnum, run_customized, steps_for};
use crate::{ExperimentReport, Table};

fn rgen_spec(r: u64) -> TrafficSpec {
    // Grid with two generalized nodes: one net source, one net sink, plus a
    // pure sink, all with both rates where generalized.
    TrafficSpecBuilder::new(generators::grid2d(3, 3))
        .generalized(0, 2, 1)
        .generalized(8, 1, 3)
        .sink(2, 1)
        .retention(r)
        .build()
        .unwrap()
}

/// Runs the R-generalized sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);
    let retentions = [0u64, 2, 8, 32];

    type DeclFactory = fn() -> Box<dyn DeclarationPolicy>;
    let declarations: Vec<(&str, DeclFactory)> = vec![
        ("truthful", || Box::new(TruthfulDeclaration)),
        ("zero-below-R", || Box::new(ZeroBelowRetention)),
        ("full-retention", || Box::new(FullRetention)),
        ("random-below-R", || Box::new(RandomBelowRetention)),
    ];

    let mut table = Table::new(
        format!("R-generalized grid (3×3, two generalized nodes), {steps} steps"),
        &[
            "R", "declaration", "extraction", "verdict", "sup Σq", "Property 3 bound",
        ],
    );
    let mut all_stable = true;
    let mut sup_by_r: Vec<(u64, u64)> = Vec::new();

    for &r in &retentions {
        let spec = rgen_spec(r);
        let gb = generalized_bounds(&spec);
        let extractions = [("max", true), ("lazy", false)];
        let runs: Vec<_> = parpool::run_ordered(declarations.iter().collect(), |(dname, dfac)| {
            parpool::run_ordered(extractions.iter().collect(), |(ename, is_max)| {
                let o = run_customized(&spec, Box::new(Lgg::new()), steps, 0xE12, |b| {
                    let b = b.declaration(dfac());
                    if *is_max {
                        b.extraction(Box::new(MaxExtraction))
                    } else {
                        b.extraction(Box::new(LazyExtraction))
                    }
                });
                (dname.to_string(), ename.to_string(), o)
            })
        })
        .into_iter()
        .flatten()
        .collect();
        let mut worst = 0u64;
        for (dname, ename, o) in runs {
            table.push_row(vec![
                r.to_string(),
                dname,
                ename,
                o.verdict_str().into(),
                o.sup_total.to_string(),
                fnum(gb.growth_bound),
            ]);
            all_stable &= o.stable();
            worst = worst.max(o.sup_total);
        }
        sup_by_r.push((r, worst));
    }

    // Backlog should not shrink as R grows (destinations may hoard R).
    let monotone_hint = sup_by_r.windows(2).all(|w| w[1].1 + 4 >= w[0].1);

    ExperimentReport {
        id: "e12".into(),
        title: "R-generalized sources and destinations (Definitions 5–8)".into(),
        paper_claim: "Generalized destinations may retain up to R packets and declare any \
                      queue size <= R; generalized sources inject at most in(v). Theorem 2 \
                      claims LGG stays stable for every R >= 0."
            .into(),
        tables: vec![table],
        findings: vec![
            format!("stable under every legal declaration × extraction combination: {all_stable}"),
            format!(
                "worst-case backlog grows with R ({}), echoing Property 3's R-dependent constants",
                sup_by_r
                    .iter()
                    .map(|(r, s)| format!("R={r}: {s}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            format!("backlog non-decreasing in R (within noise): {monotone_hint}"),
        ],
        pass: all_stable,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
