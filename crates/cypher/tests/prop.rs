//! Property-based tests for the query engine: structural invariants
//! that must hold for arbitrary graphs and query shapes.

use iyp_cypher::{CypherError, Params, ResultSet, Statement};
use iyp_graph::{props, Graph, Props, Value};
use proptest::prelude::*;

/// Runs a read query through a prepared [`Statement`].
fn run(g: &Graph, q: &str, params: &Params) -> Result<ResultSet, CypherError> {
    Statement::prepare(q)?.params(params).run(g)
}

/// Builds a random AS/Prefix graph from a compact description.
fn build_graph(ases: &[u16], links: &[(u8, u8)]) -> Graph {
    let mut g = Graph::new();
    let mut nodes = Vec::new();
    for (i, asn) in ases.iter().enumerate() {
        nodes.push(g.merge_node(
            "AS",
            "asn",
            *asn as i64,
            props([("tier", Value::Int((i % 3) as i64))]),
        ));
    }
    for (k, (a, b)) in links.iter().enumerate() {
        if nodes.is_empty() {
            break;
        }
        let s = nodes[*a as usize % nodes.len()];
        let d = nodes[*b as usize % nodes.len()];
        let p = g.merge_node("Prefix", "prefix", format!("10.{k}.0.0/16"), Props::new());
        g.create_rel(s, "ORIGINATE", p, Props::new()).unwrap();
        if s != d {
            g.create_rel(s, "PEERS_WITH", d, Props::new()).unwrap();
        }
    }
    g
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(0u16..64, 0..12),
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..20),
    )
        .prop_map(|(ases, links)| build_graph(&ases, &links))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// count(*) equals the number of rows returned without aggregation.
    #[test]
    fn count_star_matches_row_count(g in arb_graph()) {
        let rows = run(&g, "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN a, p", &Params::new())
            .unwrap()
            .rows
            .len();
        let counted = run(&g, "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN count(*)", &Params::new())
            .unwrap()
            .single_int()
            .unwrap();
        prop_assert_eq!(rows as i64, counted);
    }

    /// DISTINCT never yields more rows, and re-applying it is a no-op.
    #[test]
    fn distinct_is_idempotent_shrinking(g in arb_graph()) {
        let all = run(&g, "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN a.asn", &Params::new())
            .unwrap();
        let distinct =
            run(&g, "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT a.asn", &Params::new())
                .unwrap();
        prop_assert!(distinct.rows.len() <= all.rows.len());
        // Re-running distinct over the distinct result via WITH changes nothing.
        let twice = run(
            &g,
            "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) WITH DISTINCT a.asn AS x RETURN DISTINCT x",
            &Params::new(),
        )
        .unwrap();
        prop_assert_eq!(twice.rows.len(), distinct.rows.len());
    }

    /// ORDER BY produces a sorted column; LIMIT bounds the row count.
    #[test]
    fn order_by_sorts_and_limit_bounds(g in arb_graph(), limit in 0usize..10) {
        let rs = run(
            &g,
            &format!("MATCH (a:AS) RETURN a.asn AS x ORDER BY x LIMIT {limit}"),
            &Params::new(),
        )
        .unwrap();
        prop_assert!(rs.rows.len() <= limit);
        let vals: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
            .collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// WHERE false removes everything; WHERE true keeps everything.
    #[test]
    fn where_extremes(g in arb_graph()) {
        let all = run(&g, "MATCH (a:AS) RETURN a", &Params::new()).unwrap().rows.len();
        let none = run(&g, "MATCH (a:AS) WHERE false RETURN a", &Params::new())
            .unwrap()
            .rows
            .len();
        let kept = run(&g, "MATCH (a:AS) WHERE true RETURN a", &Params::new())
            .unwrap()
            .rows
            .len();
        prop_assert_eq!(none, 0);
        prop_assert_eq!(kept, all);
    }

    /// An undirected pattern matches the union of the two directed ones.
    #[test]
    fn undirected_is_union_of_directions(g in arb_graph()) {
        let undirected = run(
            &g,
            "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN count(*)",
            &Params::new(),
        )
        .unwrap()
        .single_int()
        .unwrap();
        let right = run(
            &g,
            "MATCH (a:AS)-[:PEERS_WITH]->(b:AS) RETURN count(*)",
            &Params::new(),
        )
        .unwrap()
        .single_int()
        .unwrap();
        let left = run(
            &g,
            "MATCH (a:AS)<-[:PEERS_WITH]-(b:AS) RETURN count(*)",
            &Params::new(),
        )
        .unwrap()
        .single_int()
        .unwrap();
        prop_assert_eq!(undirected, right + left);
        prop_assert_eq!(right, left); // symmetry of the row space
    }

    /// OPTIONAL MATCH preserves the left-hand cardinality lower bound.
    #[test]
    fn optional_match_keeps_rows(g in arb_graph()) {
        let base = run(&g, "MATCH (a:AS) RETURN a", &Params::new()).unwrap().rows.len();
        let opt = run(
            &g,
            "MATCH (a:AS) OPTIONAL MATCH (a)-[:ORIGINATE]-(p:Prefix) RETURN a, p",
            &Params::new(),
        )
        .unwrap()
        .rows
        .len();
        prop_assert!(opt >= base);
    }

    /// Aggregation partitions: the grouped counts sum to the total.
    #[test]
    fn group_counts_sum_to_total(g in arb_graph()) {
        let total = run(
            &g,
            "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN count(*)",
            &Params::new(),
        )
        .unwrap()
        .single_int()
        .unwrap();
        let grouped = run(
            &g,
            "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN a.tier, count(*) AS c",
            &Params::new(),
        )
        .unwrap();
        let sum: i64 = grouped
            .rows
            .iter()
            .map(|r| r[1].as_scalar().unwrap().as_int().unwrap())
            .sum();
        prop_assert_eq!(sum, total);
    }

    /// SKIP n + LIMIT m slices the ordered result consistently.
    #[test]
    fn skip_limit_slices(g in arb_graph(), skip in 0usize..6, limit in 0usize..6) {
        let all = run(&g, "MATCH (a:AS) RETURN a.asn AS x ORDER BY x", &Params::new()).unwrap();
        let sliced = run(
            &g,
            &format!("MATCH (a:AS) RETURN a.asn AS x ORDER BY x SKIP {skip} LIMIT {limit}"),
            &Params::new(),
        )
        .unwrap();
        let expected: Vec<_> = all.rows.iter().skip(skip).take(limit).collect();
        prop_assert_eq!(sliced.rows.len(), expected.len());
        for (got, want) in sliced.rows.iter().zip(expected) {
            prop_assert_eq!(&got[0], &want[0]);
        }
    }
}
