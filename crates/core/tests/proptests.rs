//! Property tests for the protocol layer: Algorithm 1's invariants on
//! arbitrary queue states, and the matching scheduler's feasibility.

use lgg_core::interference::MatchingLgg;
use lgg_core::{Lgg, TieBreak};
use mgraph::{generators, MultiGraph, NodeId};
use netmodel::{TrafficSpec, TrafficSpecBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simqueue::{NetView, RoutingProtocol, Transmission};

fn random_graph(seed: u64, n: usize) -> MultiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_random(n, n, &mut rng)
}

fn spec_over(g: MultiGraph) -> TrafficSpec {
    let n = g.node_count();
    TrafficSpecBuilder::new(g)
        .source(0, 1)
        .sink((n - 1) as u32, 2)
        .build()
        .unwrap()
}

/// Plans `protocol` against an arbitrary (declared = true) queue state.
fn plan(
    spec: &TrafficSpec,
    queues: &[u64],
    protocol: &mut dyn RoutingProtocol,
) -> Vec<Transmission> {
    let active = vec![true; spec.graph.edge_count()];
    let nodes: Vec<mgraph::NodeId> = spec.graph.nodes().collect();
    let view = NetView {
        graph: &spec.graph,
        spec,
        declared: queues,
        true_queues: queues,
        active_edges: &active,
        active_nodes: &nodes,
        t: 0,
    };
    let mut out = Vec::new();
    protocol.plan(&view, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 1 invariants, for every tie-break policy:
    /// * every transmission goes strictly downhill;
    /// * each link carries at most one packet;
    /// * each node sends at most min(q_t(u), #downhill links) packets;
    /// * with SmallestFirst, the chosen receivers are exactly the q_t(u)
    ///   smallest downhill neighbors (multiset of heights).
    #[test]
    fn lgg_plan_invariants(
        seed in 0u64..300,
        n in 3usize..20,
        tb_idx in 0usize..4,
        queues_seed in any::<u64>(),
    ) {
        let g = random_graph(seed, n);
        let spec = spec_over(g.clone());
        let mut qrng = StdRng::seed_from_u64(queues_seed);
        let queues: Vec<u64> = (0..n).map(|_| rand::Rng::random_range(&mut qrng, 0..20)).collect();
        let tb = TieBreak::ALL[tb_idx];
        let mut lgg = Lgg::with_tie_break(tb, seed);
        let txs = plan(&spec, &queues, &mut lgg);

        let mut edge_seen = vec![false; g.edge_count()];
        let mut sent = vec![0u64; n];
        for tx in &txs {
            let to = g.other_endpoint(tx.edge, tx.from);
            prop_assert!(
                queues[to.index()] < queues[tx.from.index()],
                "uphill send ({})", tb.name()
            );
            prop_assert!(!edge_seen[tx.edge.index()], "link reused ({})", tb.name());
            edge_seen[tx.edge.index()] = true;
            sent[tx.from.index()] += 1;
        }
        for u in g.nodes() {
            let downhill = g
                .incident_links(u)
                .iter()
                .filter(|l| queues[l.neighbor.index()] < queues[u.index()])
                .count() as u64;
            let expected = queues[u.index()].min(downhill);
            prop_assert_eq!(
                sent[u.index()], expected,
                "node {} sent {} expected {} ({})", u, sent[u.index()], expected, tb.name()
            );
        }
        // SmallestFirst picks the smallest heights among candidates.
        if tb == TieBreak::SmallestFirst {
            for u in g.nodes() {
                let mut all: Vec<u64> = g
                    .incident_links(u)
                    .iter()
                    .map(|l| queues[l.neighbor.index()])
                    .filter(|&h| h < queues[u.index()])
                    .collect();
                all.sort_unstable();
                let k = (queues[u.index()] as usize).min(all.len());
                let mut chosen: Vec<u64> = txs
                    .iter()
                    .filter(|t| t.from == u)
                    .map(|t| queues[g.other_endpoint(t.edge, t.from).index()])
                    .collect();
                chosen.sort_unstable();
                prop_assert_eq!(&chosen[..], &all[..k]);
            }
        }
    }

    /// All tie-break policies send the same *number* of packets from each
    /// node (the choice only reorders receivers) — the precondition for
    /// the paper's "no impact on stability" remark.
    #[test]
    fn tie_breaks_agree_on_send_counts(
        seed in 0u64..200,
        n in 3usize..16,
        queues_seed in any::<u64>(),
    ) {
        let g = random_graph(seed, n);
        let spec = spec_over(g.clone());
        let mut qrng = StdRng::seed_from_u64(queues_seed);
        let queues: Vec<u64> = (0..n).map(|_| rand::Rng::random_range(&mut qrng, 0..10)).collect();
        let mut counts: Vec<Vec<u64>> = Vec::new();
        for tb in TieBreak::ALL {
            let mut lgg = Lgg::with_tie_break(tb, 1);
            let txs = plan(&spec, &queues, &mut lgg);
            let mut c = vec![0u64; n];
            for t in &txs {
                c[t.from.index()] += 1;
            }
            counts.push(c);
        }
        for c in &counts[1..] {
            prop_assert_eq!(c, &counts[0]);
        }
    }

    /// MatchingLgg always outputs a matching of strictly-downhill links
    /// from nonempty senders.
    #[test]
    fn matching_lgg_outputs_matchings(
        seed in 0u64..200,
        n in 3usize..20,
        queues_seed in any::<u64>(),
    ) {
        let g = random_graph(seed, n);
        let spec = spec_over(g.clone());
        let mut qrng = StdRng::seed_from_u64(queues_seed);
        let queues: Vec<u64> = (0..n).map(|_| rand::Rng::random_range(&mut qrng, 0..10)).collect();
        let mut m = MatchingLgg::new();
        let txs = plan(&spec, &queues, &mut m);
        let mut used = vec![false; n];
        for tx in &txs {
            let (a, b) = g.endpoints(tx.edge);
            prop_assert!(!used[a.index()] && !used[b.index()], "not a matching");
            used[a.index()] = true;
            used[b.index()] = true;
            let to = g.other_endpoint(tx.edge, tx.from);
            prop_assert!(queues[to.index()] < queues[tx.from.index()]);
            prop_assert!(queues[tx.from.index()] > 0);
        }
    }

    /// The greedy matching is maximal: no remaining downhill link with a
    /// nonempty sender has both endpoints free.
    #[test]
    fn matching_lgg_is_maximal(
        seed in 0u64..200,
        n in 3usize..16,
        queues_seed in any::<u64>(),
    ) {
        let g = random_graph(seed, n);
        let spec = spec_over(g.clone());
        let mut qrng = StdRng::seed_from_u64(queues_seed);
        let queues: Vec<u64> = (0..n).map(|_| rand::Rng::random_range(&mut qrng, 0..10)).collect();
        let mut m = MatchingLgg::new();
        let txs = plan(&spec, &queues, &mut m);
        let mut used = vec![false; n];
        for tx in &txs {
            let (a, b) = g.endpoints(tx.edge);
            used[a.index()] = true;
            used[b.index()] = true;
        }
        for e in g.edges() {
            let (a, b) = g.endpoints(e);
            if used[a.index()] || used[b.index()] {
                continue;
            }
            let (qa, qb) = (queues[a.index()], queues[b.index()]);
            let sendable = (qa > qb && qa > 0) || (qb > qa && qb > 0);
            prop_assert!(!sendable, "edge {e} could still be matched");
        }
    }

    /// LGG planning is a pure function of the view (stateless for the
    /// deterministic policies): same state in, same plan out.
    #[test]
    fn lgg_plan_is_deterministic(seed in 0u64..200, n in 3usize..16) {
        let g = random_graph(seed, n);
        let spec = spec_over(g.clone());
        let queues: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 11).collect();
        let mut a = Lgg::new();
        let mut b = Lgg::new();
        prop_assert_eq!(plan(&spec, &queues, &mut a), plan(&spec, &queues, &mut b));
    }
}

#[test]
fn lgg_respects_inactive_edges_under_all_policies() {
    let g = generators::star(4);
    let spec = TrafficSpecBuilder::new(g.clone())
        .source(0, 4)
        .sink(4, 4)
        .build()
        .unwrap();
    let queues = vec![9, 0, 0, 0, 0];
    let active = vec![false, true, false, true];
    let nodes: Vec<mgraph::NodeId> = g.nodes().collect();
    for tb in TieBreak::ALL {
        let view = NetView {
            graph: &g,
            spec: &spec,
            declared: &queues,
            true_queues: &queues,
            active_edges: &active,
            active_nodes: &nodes,
            t: 0,
        };
        let mut out = Vec::new();
        Lgg::with_tie_break(tb, 3).plan(&view, &mut out);
        assert_eq!(out.len(), 2, "{}", tb.name());
        assert!(out.iter().all(|t| active[t.edge.index()]));
        assert!(out.iter().all(|t| t.from == NodeId::new(0)));
    }
}
