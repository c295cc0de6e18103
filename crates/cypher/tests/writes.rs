//! Write-query tests: CREATE / MERGE / SET / DELETE.

use iyp_cypher::{query_write, CypherError, Params, ResultSet, Statement};
use iyp_graph::{Graph, Props};

/// Runs a read query through a prepared [`Statement`].
fn run(g: &Graph, q: &str, params: &Params) -> Result<ResultSet, CypherError> {
    Statement::prepare(q)?.params(params).run(g)
}

fn write(g: &mut Graph, q: &str) -> iyp_cypher::WriteSummary {
    query_write(g, q, &Params::new()).unwrap().1
}

fn count(g: &Graph, q: &str) -> i64 {
    run(g, q, &Params::new()).unwrap().single_int().unwrap()
}

#[test]
fn create_node_with_props() {
    let mut g = Graph::new();
    let s = write(&mut g, "CREATE (a:AS {asn: 2497, name: 'IIJ'})");
    assert_eq!(s.nodes_created, 1);
    assert_eq!(count(&g, "MATCH (a:AS {asn: 2497}) RETURN count(a)"), 1);
    let rs = run(&g, "MATCH (a:AS) RETURN a.name", &Params::new()).unwrap();
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_str(), Some("IIJ"));
}

#[test]
fn create_path_and_return() {
    let mut g = Graph::new();
    let (rs, s) = query_write(
        &mut g,
        "CREATE (a:AS {asn: 1})-[:ORIGINATE {src: 'me'}]->(p:Prefix {prefix: '10.0.0.0/8'})
         RETURN a.asn, p.prefix",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(s.nodes_created, 2);
    assert_eq!(s.rels_created, 1);
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(1));
    assert_eq!(
        count(&g, "MATCH (:AS)-[:ORIGINATE]->(:Prefix) RETURN count(*)"),
        1
    );
}

#[test]
fn create_uses_bound_variables() {
    let mut g = Graph::new();
    write(&mut g, "CREATE (a:AS {asn: 1}) CREATE (b:AS {asn: 2})");
    let s = write(
        &mut g,
        "MATCH (a:AS {asn: 1}) MATCH (b:AS {asn: 2}) CREATE (a)-[:PEERS_WITH]->(b)",
    );
    assert_eq!(s.nodes_created, 0);
    assert_eq!(s.rels_created, 1);
    assert_eq!(
        count(&g, "MATCH (:AS)-[:PEERS_WITH]-(:AS) RETURN count(*)"),
        2
    );
}

#[test]
fn create_per_matched_row() {
    let mut g = Graph::new();
    write(
        &mut g,
        "CREATE (:AS {asn: 1}) CREATE (:AS {asn: 2}) CREATE (:AS {asn: 3})",
    );
    // Tag every AS: one Tag node per row (CREATE semantics).
    let s = write(
        &mut g,
        "MATCH (a:AS) CREATE (a)-[:CATEGORIZED]->(:Tag {label: 'seen'})",
    );
    assert_eq!(s.nodes_created, 3);
    assert_eq!(s.rels_created, 3);
}

#[test]
fn merge_matches_or_creates() {
    let mut g = Graph::new();
    let s1 = write(&mut g, "MERGE (t:Tag {label: 'My Study'})");
    assert_eq!(s1.nodes_created, 1);
    let s2 = write(&mut g, "MERGE (t:Tag {label: 'My Study'})");
    assert_eq!(s2.nodes_created, 0, "second MERGE must match");
    assert_eq!(count(&g, "MATCH (t:Tag) RETURN count(t)"), 1);
}

#[test]
fn merge_relationship_is_idempotent() {
    let mut g = Graph::new();
    write(&mut g, "CREATE (:AS {asn: 1}) CREATE (:Tag {label: 'x'})");
    for _ in 0..3 {
        write(
            &mut g,
            "MATCH (a:AS {asn: 1}) MATCH (t:Tag {label: 'x'})
             MERGE (a)-[:CATEGORIZED]->(t)",
        );
    }
    assert_eq!(
        count(&g, "MATCH (:AS)-[r:CATEGORIZED]->(:Tag) RETURN count(r)"),
        1
    );
}

#[test]
fn set_updates_nodes_and_rels() {
    let mut g = Graph::new();
    write(
        &mut g,
        "CREATE (a:AS {asn: 1})-[:ORIGINATE]->(p:Prefix {prefix: '10.0.0.0/8'})",
    );
    let s = write(
        &mut g,
        "MATCH (a:AS {asn: 1})-[r:ORIGINATE]->(p:Prefix)
         SET a.checked = true, r.weight = 3, p.af = 4",
    );
    assert_eq!(s.props_set, 3);
    assert_eq!(count(&g, "MATCH (p:Prefix {af: 4}) RETURN count(p)"), 1);
    let rs = run(
        &g,
        "MATCH (:AS)-[r:ORIGINATE]->(:Prefix) RETURN r.weight",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(3));
}

#[test]
fn set_reads_pre_update_state() {
    let mut g = Graph::new();
    write(&mut g, "CREATE (a:AS {asn: 1, x: 10})");
    write(&mut g, "MATCH (a:AS) SET a.x = a.x + 1, a.y = a.x");
    let rs = run(&g, "MATCH (a:AS) RETURN a.x, a.y", &Params::new()).unwrap();
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(11));
    // y sees the pre-SET value of x.
    assert_eq!(rs.rows[0][1].as_scalar().unwrap().as_int(), Some(10));
}

#[test]
fn delete_rel_and_detach_delete_node() {
    let mut g = Graph::new();
    write(
        &mut g,
        "CREATE (a:AS {asn: 1})-[:PEERS_WITH]->(b:AS {asn: 2})",
    );
    // Plain DELETE of a connected node fails.
    let err = query_write(&mut g, "MATCH (a:AS {asn: 1}) DELETE a", &Params::new());
    assert!(err.is_err());
    // Deleting the relationship works.
    let s = write(&mut g, "MATCH (:AS)-[r:PEERS_WITH]->(:AS) DELETE r");
    assert_eq!(s.rels_deleted, 1);
    // Now the node can go.
    let s = write(&mut g, "MATCH (a:AS {asn: 1}) DELETE a");
    assert_eq!(s.nodes_deleted, 1);
    assert_eq!(count(&g, "MATCH (a:AS) RETURN count(a)"), 1);
}

#[test]
fn detach_delete_removes_rels_too() {
    let mut g = Graph::new();
    write(
        &mut g,
        "CREATE (a:AS {asn: 1})-[:PEERS_WITH]->(b:AS {asn: 2})
         CREATE (a)-[:ORIGINATE]->(:Prefix {prefix: '10.0.0.0/8'})",
    );
    let s = write(&mut g, "MATCH (a:AS {asn: 1}) DETACH DELETE a");
    assert_eq!(s.nodes_deleted, 1);
    assert_eq!(s.rels_deleted, 2);
    assert_eq!(count(&g, "MATCH ()-[r]-() RETURN count(DISTINCT r)"), 0);
}

#[test]
fn unwind_create_bulk_load() {
    let mut g = Graph::new();
    let (_, s) = query_write(
        &mut g,
        "UNWIND range(1, 20) AS i CREATE (:AS {asn: i})",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(s.nodes_created, 20);
    assert_eq!(count(&g, "MATCH (a:AS) RETURN count(a)"), 20);
}

#[test]
fn write_clauses_rejected_by_read_api() {
    let g = Graph::new();
    assert!(run(&g, "CREATE (:AS {asn: 1})", &Params::new()).is_err());
}

#[test]
fn undirected_create_is_rejected() {
    let mut g = Graph::new();
    assert!(query_write(
        &mut g,
        "CREATE (:AS {asn: 1})-[:PEERS_WITH]-(:AS {asn: 2})",
        &Params::new()
    )
    .is_err());
}

#[test]
fn local_instance_tagging_workflow() {
    // The §6.1 lesson end-to-end: tag the studied resources, then use
    // the tag to simplify subsequent read queries.
    let mut g = Graph::new();
    write(
        &mut g,
        "UNWIND [1, 2, 3, 4, 5] AS i CREATE (:AS {asn: i, tier: i % 2})",
    );
    write(&mut g, "MERGE (t:Tag {label: 'under study'})");
    write(
        &mut g,
        "MATCH (a:AS) WHERE a.tier = 1 MATCH (t:Tag {label: 'under study'})
         MERGE (a)-[:CATEGORIZED]->(t)",
    );
    assert_eq!(
        count(
            &g,
            "MATCH (:Tag {label:'under study'})-[:CATEGORIZED]-(a:AS) RETURN count(a)"
        ),
        3
    );
}

#[test]
fn write_query_needs_no_return() {
    let mut g = Graph::new();
    let (rs, _) = query_write(&mut g, "CREATE (:AS {asn: 1})", &Params::new()).unwrap();
    assert!(rs.columns.is_empty());
    assert!(rs.rows.is_empty());
    // A pure read query with no RETURN still fails to parse.
    assert!(query_write(&mut g, "MATCH (a:AS)", &Params::new()).is_err());
    let _ = Props::new();
}

#[test]
fn exists_subqueries_work_in_write_queries() {
    let mut g = Graph::new();
    write(
        &mut g,
        "CREATE (:AS {asn: 1})-[:ORIGINATE]->(:Prefix {prefix: '192.0.2.0/24'})",
    );
    write(&mut g, "CREATE (:AS {asn: 2})");
    let (_, summary) = query_write(
        &mut g,
        "MATCH (a:AS) WHERE EXISTS { MATCH (a)-[:ORIGINATE]->(:Prefix) } SET a.origin = true",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(summary.props_set, 1);
    let rs = run(
        &g,
        "MATCH (a:AS) WHERE a.origin RETURN a.asn",
        &Params::new(),
    )
    .unwrap();
    assert_eq!(rs.single_int(), Some(1));
}

#[test]
fn values_nested_too_deep_to_recover_are_refused_before_writing() {
    let mut g = Graph::new();
    write(&mut g, "CREATE (:AS {asn: 1})");
    let epoch = g.epoch();
    // One list level per WITH: the query text stays shallow while the
    // value grows past what snapshot and journal decoding accept.
    let mut q = String::from("MATCH (a:AS) WITH a, 0 AS v");
    for _ in 0..=iyp_graph::MAX_VALUE_DEPTH {
        q.push_str(" WITH a, collect(v) AS v");
    }
    for tail in [" SET a.deep = v", " CREATE (:Tag {label: 'x', deep: v})"] {
        let err = query_write(&mut g, &format!("{q}{tail}"), &Params::new()).unwrap_err();
        assert!(err.to_string().contains("nesting too deep"), "{err}");
    }
    assert_eq!(g.epoch(), epoch, "a refused write must not mutate");
    // One level less is stored, and survives a snapshot round trip.
    let shallow = q.replacen(" WITH a, collect(v) AS v", "", 1);
    write(&mut g, &format!("{shallow} SET a.deep = v"));
    let bytes = iyp_graph::snapshot::to_binary(&g);
    assert!(iyp_graph::snapshot::from_binary(&bytes).is_ok());
}
