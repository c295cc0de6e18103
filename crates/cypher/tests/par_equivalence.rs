//! Serial vs parallel equivalence: for any graph and any query shape,
//! the parallel executor must return a [`iyp_cypher::ResultSet`] that
//! is identical to serial execution — same columns, same rows, same
//! order.
//!
//! This file holds a single property because the thread count and
//! partition threshold are process-wide knobs; a second test function
//! running concurrently in this binary would race on them.

use iyp_cypher::{set_min_partition, set_threads, CypherError, Params, ResultSet, Statement};
use iyp_graph::{props, Graph, Props, Value};
use proptest::prelude::*;

/// Runs a read query through a prepared [`Statement`].
fn run(g: &Graph, q: &str, params: &Params) -> Result<ResultSet, CypherError> {
    Statement::prepare(q)?.params(params).run(g)
}

/// Builds a random AS/Prefix/Organization graph from a compact
/// description. Property values are chosen to stress grouping: asn
/// collides across nodes, names embed `\u{1}`, and tiers mix ints.
fn build_graph(ases: &[u16], links: &[(u8, u8)]) -> Graph {
    let mut g = Graph::new();
    let mut nodes = Vec::new();
    for (i, asn) in ases.iter().enumerate() {
        nodes.push(g.merge_node(
            "AS",
            "asn",
            *asn as i64,
            props([
                ("tier", Value::Int((i % 3) as i64)),
                ("name", Value::Str(format!("as\u{1}{}", asn % 8))),
            ]),
        ));
    }
    for (k, (a, b)) in links.iter().enumerate() {
        if nodes.is_empty() {
            break;
        }
        let s = nodes[*a as usize % nodes.len()];
        let d = nodes[*b as usize % nodes.len()];
        let p = g.merge_node(
            "Prefix",
            "prefix",
            format!("10.{}.0.0/16", k % 7),
            props([("af", Value::Int(4))]),
        );
        g.create_rel(s, "ORIGINATE", p, Props::new()).unwrap();
        if s != d {
            g.create_rel(s, "PEERS_WITH", d, Props::new()).unwrap();
        }
        if k % 3 == 0 {
            let o = g.merge_node(
                "Organization",
                "name",
                format!("org{}", k % 4),
                Props::new(),
            );
            g.create_rel(s, "MANAGED_BY", o, Props::new()).unwrap();
        }
    }
    g
}

/// Query shapes covering every executor stage that parallelises or
/// hashes group keys: plain projection, WHERE, aggregates, grouped
/// aggregates, DISTINCT, ORDER BY, SKIP/LIMIT, OPTIONAL MATCH,
/// multi-pattern MATCH, and WITH-stage grouping.
const QUERIES: &[&str] = &[
    "MATCH (a:AS) RETURN a.asn",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, p.prefix",
    "MATCH (a:AS) WHERE a.tier > 0 RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(*)",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, count(p) ORDER BY a.asn",
    "MATCH (a:AS) RETURN a.tier, count(*), min(a.asn), max(a.asn) ORDER BY a.tier",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN DISTINCT p.prefix ORDER BY p.prefix",
    "MATCH (a:AS) RETURN DISTINCT a.name",
    "MATCH (a:AS) RETURN a.asn ORDER BY a.asn DESC SKIP 1 LIMIT 3",
    "MATCH (a:AS) RETURN a.asn, a.tier ORDER BY a.tier, a.asn SKIP 2",
    "MATCH (a:AS) OPTIONAL MATCH (a)-[:MANAGED_BY]->(o:Organization) \
     RETURN a.asn, o.name ORDER BY a.asn",
    "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN a.asn, b.asn ORDER BY a.asn, b.asn",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix), (b:AS)-[:ORIGINATE]->(p) \
     WHERE a.asn < b.asn RETURN a.asn, b.asn, p.prefix",
    "MATCH (a:AS) WITH a.tier AS t, count(a) AS n WHERE n > 1 RETURN t, n ORDER BY t",
    "MATCH (a:AS) RETURN count(DISTINCT a.name), count(DISTINCT a.tier)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn parallel_results_are_identical_to_serial(
        ases in proptest::collection::vec(0u16..48, 0..16),
        links in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..24),
    ) {
        let g = build_graph(&ases, &links);
        for q in QUERIES {
            set_threads(1);
            let serial = run(&g, q, &Params::new());
            // Partition threshold 1 forces the parallel path even on
            // tiny candidate sets, so every stage is exercised.
            set_threads(4);
            set_min_partition(1);
            let parallel = run(&g, q, &Params::new());
            set_threads(0);
            set_min_partition(iyp_cypher::par::DEFAULT_MIN_PARTITION);
            match (serial, parallel) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(&s.columns, &p.columns, "columns differ for {}", q);
                    prop_assert_eq!(&s.rows, &p.rows, "rows differ for {}", q);
                }
                (Err(se), Err(pe)) => {
                    prop_assert_eq!(se.to_string(), pe.to_string(), "errors differ for {}", q);
                }
                (s, p) => prop_assert!(false, "outcome diverged for {}: {:?} vs {:?}", q, s, p),
            }
        }
    }
}
