//! Cooperative cancellation: a tripped token stops the executor at a
//! row boundary with a structured `timeout:` error, while a generous
//! deadline leaves results byte-identical to an untimed run.

use iyp_cypher::{Cancel, CypherError, Params, Statement};
use iyp_graph::{props, Graph, Props, Value};
use std::time::Duration;

/// A small but well-connected AS/Prefix graph: enough rows that every
/// executor stage (match, expand, where, return) sees real work.
fn dense_graph() -> Graph {
    let mut g = Graph::new();
    let mut ases = Vec::new();
    for asn in 0..40i64 {
        ases.push(g.merge_node("AS", "asn", asn, props([("tier", Value::Int(asn % 3))])));
    }
    for (i, &a) in ases.iter().enumerate() {
        for &b in &ases[i + 1..] {
            if (i * 7) % 3 == 0 {
                g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
            }
        }
        let p = g.merge_node("Prefix", "prefix", format!("10.{i}.0.0/16"), Props::new());
        g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
    }
    g
}

const QUERIES: &[&str] = &[
    "MATCH (a:AS) RETURN a.asn ORDER BY a.asn",
    "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) WHERE a.asn < b.asn RETURN count(*)",
    "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn, p.prefix ORDER BY a.asn",
    "MATCH (a:AS)-[:PEERS_WITH*1..2]-(b:AS) RETURN count(*)",
];

#[test]
fn pre_cancelled_token_times_out() {
    let g = dense_graph();
    let params = Params::default();
    for q in QUERIES {
        let cancel = Cancel::new();
        cancel.cancel();
        let err = Statement::prepare(q)
            .unwrap()
            .params(&params)
            .cancel(&cancel)
            .run(&g)
            .unwrap_err();
        assert!(
            matches!(err, CypherError::Timeout { .. }),
            "{q}: expected Timeout, got {err:?}"
        );
        assert!(err.to_string().starts_with("timeout: "), "{err}");
    }
}

#[test]
fn zero_deadline_times_out() {
    let g = dense_graph();
    let params = Params::default();
    let cancel = Cancel::with_timeout(Duration::ZERO);
    let err = Statement::prepare(QUERIES[3])
        .unwrap()
        .params(&params)
        .cancel(&cancel)
        .run(&g)
        .unwrap_err();
    assert!(matches!(err, CypherError::Timeout { .. }), "{err:?}");
}

#[test]
fn generous_deadline_matches_plain_query() {
    let g = dense_graph();
    let params = Params::default();
    for q in QUERIES {
        let plain = Statement::prepare(q)
            .unwrap()
            .params(&params)
            .run(&g)
            .unwrap();
        let cancel = Cancel::with_timeout(Duration::from_secs(3600));
        let timed = Statement::prepare(q)
            .unwrap()
            .params(&params)
            .cancel(&cancel)
            .run(&g)
            .unwrap();
        assert_eq!(plain.columns, timed.columns, "{q}");
        assert_eq!(plain.rows, timed.rows, "{q}");
    }
}
