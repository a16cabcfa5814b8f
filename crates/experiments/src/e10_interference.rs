//! E10 — Conjecture 5 (interference): under node-exclusive spectrum
//! sharing, if an oracle provides a good compatible set `E_t`, LGG should
//! remain stable on suitably under-loaded networks.
//!
//! The oracle is approximated by greedy max-weight matching on queue
//! differentials ([`lgg_core::interference::MatchingLgg`]). A matching can
//! use at most every second link of a path, so rates must sit below the
//! *interference* capacity, roughly half the wired one.

use lgg_core::interference::MatchingLgg;
use lgg_core::Lgg;
use mgraph::generators;
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use simqueue::injection::ScaledInjection;

use crate::common::{fnum, run_customized, steps_for};
use crate::{ExperimentReport, Table};

/// Runs the interference sweep.
pub fn run(quick: bool) -> ExperimentReport {
    let steps = steps_for(quick, 40_000);

    // (name, spec, rate numerator/denominator, expected stable under matching)
    let cases: Vec<(String, TrafficSpec, (u64, u64), bool)> = vec![
        (
            "path-5 at half rate".into(),
            TrafficSpecBuilder::new(generators::path(5))
                .source(0, 1)
                .sink(4, 2)
                .build()
                .unwrap(),
            (1, 2),
            true,
        ),
        (
            "path-5 at full rate".into(),
            TrafficSpecBuilder::new(generators::path(5))
                .source(0, 1)
                .sink(4, 2)
                .build()
                .unwrap(),
            (1, 1),
            false, // matching halves the path capacity: rate 1 > 1/2
        ),
        (
            "diamond-4 at half rate".into(),
            // The middle hub can be active on only one link per step, so
            // its interference capacity is 1/2 packet/step; wired rate 1
            // (= 2 x 1/2) exceeds it and must diverge.
            TrafficSpecBuilder::new(generators::layered_diamond(2, 4))
                .source(0, 2)
                .sink(10, 4)
                .build()
                .unwrap(),
            (1, 2),
            false,
        ),
        (
            "diamond-4 at 1/5 rate".into(),
            // 0.4 packets/step through the hub = 0.8 hub activity < 1.
            TrafficSpecBuilder::new(generators::layered_diamond(2, 4))
                .source(0, 2)
                .sink(10, 4)
                .build()
                .unwrap(),
            (1, 5),
            true,
        ),
        (
            "grid-4x4 light".into(),
            TrafficSpecBuilder::new(generators::grid2d(4, 4))
                .source(0, 1)
                .sink(15, 2)
                .build()
                .unwrap(),
            (1, 2),
            true,
        ),
    ];

    let mut table = Table::new(
        format!("node-exclusive interference: matching-LGG vs unconstrained LGG ({steps} steps)"),
        &["network", "rate factor", "protocol", "verdict", "sup Σq", "delivery"],
    );
    let mut pass = true;
    for (name, spec, (num, den), expect_stable) in &cases {
        let outcomes: Vec<_> = parpool::run_ordered([true, false].iter().collect(), |&matching| {
            let proto: Box<dyn simqueue::RoutingProtocol> = if matching {
                Box::new(MatchingLgg::new())
            } else {
                Box::new(Lgg::new())
            };
            let o = run_customized(spec, proto, steps, 0xE10, |b| {
                b.injection(Box::new(ScaledInjection::new(*num, *den)))
            });
            (matching, o)
        });
        for (matching, o) in outcomes {
            table.push_row(vec![
                name.clone(),
                format!("{num}/{den}"),
                if matching { "matching-lgg" } else { "lgg" }.into(),
                o.verdict_str().into(),
                o.sup_total.to_string(),
                fnum(o.delivery),
            ]);
            if matching {
                if *expect_stable {
                    pass &= o.stable();
                } else {
                    pass &= o.diverging();
                }
            } else {
                // Unconstrained LGG is stable on all these (all feasible).
                pass &= o.stable();
            }
        }
    }

    ExperimentReport {
        id: "e10".into(),
        title: "interference with a matching oracle (Conjecture 5)".into(),
        paper_claim: "With wireless interference, E_t must be pairwise compatible; if an \
                      oracle provides an optimal E_t, LGG should remain stable \
                      (Conjecture 5; node-exclusive model of Wu–Srikant [2])."
            .into(),
        tables: vec![table],
        findings: vec![
            "greedy max-weight matching (a 1/2-approximate oracle) keeps LGG stable on \
             every network loaded below the interference capacity"
                .into(),
            "where the wired rate exceeds the interference capacity (full-rate path, \
             half-rate diamond whose middle hub can be active on one link per step), \
             the backlog diverges — the oracle cannot create capacity, matching the \
             conjecture's framing that stability is about the *existence* of a \
             compatible schedule"
                .into(),
        ],
        pass,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e10_reproduces() {
        let r = super::run(true);
        assert!(r.pass, "{}", r.markdown());
    }
}
