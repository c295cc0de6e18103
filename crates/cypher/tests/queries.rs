//! End-to-end query tests, including the paper's listings.

use iyp_cypher::{CypherError, Params, ResultSet, RtVal, Statement};
use iyp_graph::{props, Graph, Props, Value};

/// Runs a read query through a prepared [`Statement`].
fn run_with(g: &Graph, q: &str, params: &Params) -> Result<ResultSet, CypherError> {
    Statement::prepare(q)?.params(params).run(g)
}

/// Builds the toy graph from Figure 2 of the paper: two ASes, two
/// prefixes (one MOAS), plus organisation and tag trimmings.
fn figure2_graph() -> Graph {
    let mut g = Graph::new();
    let as2497 = g.merge_node("AS", "asn", 2497u32, Props::new());
    let as64496 = g.merge_node("AS", "asn", 64496u32, Props::new());
    let as64497 = g.merge_node("AS", "asn", 64497u32, Props::new());
    // Canonicalised IPv6 prefix appearing in two datasets (IHR + BGPKIT).
    let p6 = g.merge_node(
        "Prefix",
        "prefix",
        "2001:db8::/32",
        props([("af", Value::Int(6))]),
    );
    let p4 = g.merge_node(
        "Prefix",
        "prefix",
        "203.0.113.0/24",
        props([("af", Value::Int(4))]),
    );
    g.create_rel(
        as2497,
        "ORIGINATE",
        p6,
        props([("reference_name", "ihr.rov".into())]),
    )
    .unwrap();
    g.create_rel(
        as2497,
        "ORIGINATE",
        p6,
        props([("reference_name", "bgpkit.pfx2as".into())]),
    )
    .unwrap();
    // MOAS prefix: p4 originated by two different ASes.
    g.create_rel(
        as64496,
        "ORIGINATE",
        p4,
        props([("reference_name", "bgpkit.pfx2as".into())]),
    )
    .unwrap();
    g.create_rel(
        as64497,
        "ORIGINATE",
        p4,
        props([("reference_name", "bgpkit.pfx2as".into())]),
    )
    .unwrap();
    let org = g.merge_node("Organization", "name", "CERN", Props::new());
    g.create_rel(as2497, "MANAGED_BY", org, Props::new())
        .unwrap();
    let tag = g.merge_node("Tag", "label", "RPKI Valid", Props::new());
    g.create_rel(p6, "CATEGORIZED", tag, Props::new()).unwrap();
    let ip = g.merge_node("IP", "ip", "2001:db8::1", Props::new());
    g.create_rel(ip, "PART_OF", p6, Props::new()).unwrap();
    let host = g.merge_node("HostName", "name", "www.example.org", Props::new());
    g.create_rel(
        host,
        "RESOLVES_TO",
        ip,
        props([("reference_name", "openintel.tranco1m".into())]),
    )
    .unwrap();
    g
}

fn run(g: &Graph, q: &str) -> iyp_cypher::ResultSet {
    run_with(g, q, &Params::new()).unwrap()
}

fn strings(rs: &iyp_cypher::ResultSet, col: usize) -> Vec<String> {
    rs.rows
        .iter()
        .map(|r| r[col].as_scalar().unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn listing_1_originating_ases() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "// Select ASes originating prefixes
         MATCH (x:AS)-[:ORIGINATE]-(:Prefix)
         // Return the AS's ASN
         RETURN DISTINCT x.asn",
    );
    let mut asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    asns.sort();
    assert_eq!(asns, vec![2497, 64496, 64497]);
}

#[test]
fn listing_2_moas_prefixes() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
         WHERE x.asn <> y.asn
         RETURN DISTINCT p.prefix",
    );
    assert_eq!(strings(&rs, 0), vec!["203.0.113.0/24"]);
}

#[test]
fn listing_3_cern_rpki_hostnames() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
         WHERE org.name = 'CERN'
         MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
         RETURN distinct h.name",
    );
    assert_eq!(strings(&rs, 0), vec!["www.example.org"]);
}

#[test]
fn reference_name_filters_datasets() {
    let g = figure2_graph();
    // Counting ORIGINATE links per dataset.
    let both = run(
        &g,
        "MATCH (:AS)-[r:ORIGINATE]-(p:Prefix {prefix:'2001:db8::/32'}) RETURN count(r)",
    );
    assert_eq!(both.single_int(), Some(2));
    let ihr_only = run(
        &g,
        "MATCH (:AS)-[r:ORIGINATE {reference_name:'ihr.rov'}]-(p:Prefix {prefix:'2001:db8::/32'})
         RETURN count(r)",
    );
    assert_eq!(ihr_only.single_int(), Some(1));
}

#[test]
fn count_star_and_empty_aggregate() {
    let g = figure2_graph();
    let rs = run(&g, "MATCH (n:AS) RETURN count(*)");
    assert_eq!(rs.single_int(), Some(3));
    // Aggregate over an empty match still yields one row.
    let rs = run(&g, "MATCH (n:Facility) RETURN count(*)");
    assert_eq!(rs.single_int(), Some(0));
}

#[test]
fn grouping_by_non_aggregate_items() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix)
         RETURN p.prefix AS pfx, count(DISTINCT a) AS origins
         ORDER BY origins DESC",
    );
    assert_eq!(rs.columns, vec!["pfx", "origins"]);
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(
        rs.rows[0][0].as_scalar().unwrap().as_str(),
        Some("203.0.113.0/24")
    );
    assert_eq!(rs.rows[0][1].as_scalar().unwrap().as_int(), Some(2));
    assert_eq!(rs.rows[1][1].as_scalar().unwrap().as_int(), Some(1));
}

#[test]
fn collect_and_size() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix {prefix:'203.0.113.0/24'})
         RETURN size(collect(DISTINCT a.asn)) AS n",
    );
    assert_eq!(rs.single_int(), Some(2));
}

#[test]
fn optional_match_binds_null() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)
         OPTIONAL MATCH (a)-[:MANAGED_BY]-(o:Organization)
         RETURN a.asn AS asn, o.name AS org
         ORDER BY asn",
    );
    assert_eq!(rs.rows.len(), 3);
    assert_eq!(rs.rows[0][1].as_scalar().unwrap().as_str(), Some("CERN"));
    assert!(rs.rows[1][1].is_null());
    assert!(rs.rows[2][1].is_null());
}

#[test]
fn where_is_not_null_after_optional() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)
         OPTIONAL MATCH (a)-[:MANAGED_BY]-(o:Organization)
         WITH a, o
         WHERE o IS NOT NULL
         RETURN count(a)",
    );
    assert_eq!(rs.single_int(), Some(1));
}

#[test]
fn with_pipeline_and_having_style_filter() {
    let g = figure2_graph();
    // "Prefixes with more than one origin" via WITH ... WHERE.
    let rs = run(
        &g,
        "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix)
         WITH p, count(DISTINCT a) AS origins
         WHERE origins > 1
         RETURN p.prefix",
    );
    assert_eq!(strings(&rs, 0), vec!["203.0.113.0/24"]);
}

#[test]
fn unwind_expands_lists() {
    let g = Graph::new();
    let rs = run(
        &g,
        "UNWIND [1, 2, 3] AS x RETURN x * 10 AS y ORDER BY y DESC",
    );
    let ys: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(ys, vec![30, 20, 10]);
}

#[test]
fn unwind_with_params() {
    let mut g = Graph::new();
    for asn in [1u32, 2, 3] {
        g.merge_node("AS", "asn", asn, Props::new());
    }
    let mut params = Params::new();
    params.insert(
        "asns".into(),
        Value::List(vec![Value::Int(1), Value::Int(3)]),
    );
    let rs = run_with(
        &g,
        "UNWIND $asns AS a MATCH (n:AS {asn: a}) RETURN n.asn ORDER BY n.asn",
        &params,
    )
    .unwrap();
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![1, 3]);
}

#[test]
fn directed_patterns_respect_direction() {
    let mut g = Graph::new();
    let a = g.merge_node("X", "name", "a", Props::new());
    let b = g.merge_node("X", "name", "b", Props::new());
    g.create_rel(a, "R", b, Props::new()).unwrap();
    assert_eq!(
        run(&g, "MATCH (n:X {name:'a'})-[:R]->(m) RETURN count(m)").single_int(),
        Some(1)
    );
    assert_eq!(
        run(&g, "MATCH (n:X {name:'a'})<-[:R]-(m) RETURN count(m)").single_int(),
        Some(0)
    );
    assert_eq!(
        run(&g, "MATCH (n:X {name:'b'})<-[:R]-(m) RETURN count(m)").single_int(),
        Some(1)
    );
    assert_eq!(
        run(&g, "MATCH (n:X {name:'a'})-[:R]-(m) RETURN count(m)").single_int(),
        Some(1)
    );
}

#[test]
fn relationship_uniqueness_within_match() {
    // One single ORIGINATE link: the MOAS pattern must NOT match it by
    // walking the same relationship twice.
    let mut g = Graph::new();
    let a = g.merge_node("AS", "asn", 1u32, Props::new());
    let p = g.merge_node("Prefix", "prefix", "10.0.0.0/8", Props::new());
    g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
    let rs = run(
        &g,
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) RETURN count(*)",
    );
    assert_eq!(rs.single_int(), Some(0));
    // With two parallel links the pattern CAN match (x = y though).
    g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
    let rs = run(
        &g,
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) RETURN count(*)",
    );
    assert_eq!(rs.single_int(), Some(2)); // two orderings of the two rels
}

#[test]
fn multiple_rel_types() {
    let mut g = Graph::new();
    let a = g.merge_node("AS", "asn", 1u32, Props::new());
    let b = g.merge_node("AS", "asn", 2u32, Props::new());
    let c = g.merge_node("AS", "asn", 3u32, Props::new());
    g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
    g.create_rel(a, "SIBLING_OF", c, Props::new()).unwrap();
    let rs = run(
        &g,
        "MATCH (x:AS {asn:1})-[:PEERS_WITH|SIBLING_OF]-(y) RETURN count(y)",
    );
    assert_eq!(rs.single_int(), Some(2));
    let rs = run(&g, "MATCH (x:AS {asn:1})-[:PEERS_WITH]-(y) RETURN count(y)");
    assert_eq!(rs.single_int(), Some(1));
}

#[test]
fn starts_with_filter() {
    let mut g = Graph::new();
    for label in [
        "RPKI Valid",
        "RPKI Invalid",
        "RPKI Invalid, more specific",
        "Anycast",
    ] {
        g.merge_node("Tag", "label", label, Props::new());
    }
    let rs = run(
        &g,
        "MATCH (t:Tag) WHERE t.label STARTS WITH 'RPKI Invalid' RETURN count(t)",
    );
    assert_eq!(rs.single_int(), Some(2));
}

#[test]
fn order_skip_limit() {
    let mut g = Graph::new();
    for asn in 1..=10u32 {
        g.merge_node("AS", "asn", asn, Props::new());
    }
    let rs = run(
        &g,
        "MATCH (n:AS) RETURN n.asn AS a ORDER BY a DESC SKIP 2 LIMIT 3",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![8, 7, 6]);
}

#[test]
fn distinct_on_nodes() {
    let g = figure2_graph();
    // AS2497 originates p6 via two datasets; DISTINCT on the node
    // collapses them.
    let rs = run(
        &g,
        "MATCH (a:AS {asn: 2497})-[:ORIGINATE]-(p:Prefix) RETURN DISTINCT p",
    );
    assert_eq!(rs.rows.len(), 1);
    assert!(matches!(rs.rows[0][0], RtVal::Node(_)));
}

#[test]
fn returning_relationships_and_type() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn: 2497})-[r]-(p:Prefix) RETURN DISTINCT type(r) AS t ORDER BY t",
    );
    assert_eq!(strings(&rs, 0), vec!["ORIGINATE"]);
}

#[test]
fn anonymous_nodes_and_rels() {
    let g = figure2_graph();
    let rs = run(&g, "MATCH ()-[:MANAGED_BY]-() RETURN count(*)");
    // Each undirected anonymous pattern matches twice (once per
    // orientation), standard Cypher behaviour.
    assert_eq!(rs.single_int(), Some(2));
}

#[test]
fn avg_min_max_sum() {
    let mut g = Graph::new();
    for (i, v) in [10i64, 20, 30, 40].iter().enumerate() {
        g.merge_node("N", "name", format!("n{i}"), props([("v", Value::Int(*v))]));
    }
    let rs = run(
        &g,
        "MATCH (n:N) RETURN sum(n.v), avg(n.v), min(n.v), max(n.v)",
    );
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(100));
    assert_eq!(rs.rows[0][1].as_scalar().unwrap().as_float(), Some(25.0));
    assert_eq!(rs.rows[0][2].as_scalar().unwrap().as_int(), Some(10));
    assert_eq!(rs.rows[0][3].as_scalar().unwrap().as_int(), Some(40));
}

#[test]
fn percentiles() {
    let mut g = Graph::new();
    for i in 1..=100i64 {
        g.merge_node("N", "name", format!("n{i}"), props([("v", Value::Int(i))]));
    }
    let rs = run(&g, "MATCH (n:N) RETURN percentileCont(n.v, 0.5) AS med");
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_float(), Some(50.5));
    let rs = run(&g, "MATCH (n:N) RETURN percentileDisc(n.v, 0.5) AS med");
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_float(), Some(50.0));
}

#[test]
fn aggregate_inside_expression() {
    let mut g = Graph::new();
    for i in 0..4u32 {
        g.merge_node("AS", "asn", i, Props::new());
    }
    let rs = run(&g, "MATCH (n:AS) RETURN count(n) * 100 / 4 AS pct");
    assert_eq!(rs.single_int(), Some(100));
    let rs = run(&g, "MATCH (n:AS) RETURN toFloat(count(n)) / 8.0 AS frac");
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_float(), Some(0.5));
}

#[test]
fn case_in_return() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (p:Prefix)
         RETURN p.prefix AS pfx,
                CASE WHEN p.af = 6 THEN 'v6' ELSE 'v4' END AS fam
         ORDER BY pfx",
    );
    assert_eq!(strings(&rs, 1), vec!["v6", "v4"]);
}

#[test]
fn reusing_bound_variables_across_matches() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn: 2497})-[:ORIGINATE]-(p:Prefix)
         MATCH (p)-[:CATEGORIZED]-(t:Tag)
         RETURN DISTINCT t.label",
    );
    assert_eq!(strings(&rs, 0), vec!["RPKI Valid"]);
}

#[test]
fn comma_patterns_join_on_shared_vars() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix), (a)-[:MANAGED_BY]-(o:Organization)
         RETURN DISTINCT a.asn, o.name",
    );
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(2497));
}

#[test]
fn labels_function_and_multilabel() {
    let mut g = Graph::new();
    let n = g.merge_node("HostName", "name", "ns1.example.com", Props::new());
    g.add_label(n, "AuthoritativeNameServer").unwrap();
    let rs = run(
        &g,
        "MATCH (n:AuthoritativeNameServer) RETURN size(labels(n)) AS nl, n.name AS name",
    );
    assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_int(), Some(2));
    assert_eq!(
        rs.rows[0][1].as_scalar().unwrap().as_str(),
        Some("ns1.example.com")
    );
}

#[test]
fn long_chain_pattern() {
    // Mirrors Listing 4: Ranking → DomainName → HostName → IP → Prefix → Tag.
    let mut g = Graph::new();
    let ranking = g.merge_node("Ranking", "name", "Tranco top 1M", Props::new());
    let d = g.merge_node("DomainName", "name", "example.com", Props::new());
    g.create_rel(ranking, "RANK", d, props([("rank", Value::Int(42))]))
        .unwrap();
    let h = g.merge_node("HostName", "name", "example.com", Props::new());
    g.create_rel(h, "PART_OF", d, Props::new()).unwrap();
    let ip = g.merge_node("IP", "ip", "198.51.100.7", Props::new());
    g.create_rel(h, "RESOLVES_TO", ip, Props::new()).unwrap();
    let p = g.merge_node("Prefix", "prefix", "198.51.100.0/24", Props::new());
    g.create_rel(ip, "PART_OF", p, Props::new()).unwrap();
    let t = g.merge_node("Tag", "label", "RPKI Invalid, more specific", Props::new());
    g.create_rel(p, "CATEGORIZED", t, Props::new()).unwrap();

    let rs = run(
        &g,
        "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(:DomainName)-[:PART_OF]-(:HostName)\
              -[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
         WHERE t.label STARTS WITH 'RPKI Invalid'
         RETURN count(DISTINCT pfx)",
    );
    assert_eq!(rs.single_int(), Some(1));
}

#[test]
fn errors_are_reported() {
    let g = Graph::new();
    assert!(run_with(&g, "MATCH (n RETURN n", &Params::new()).is_err());
    // Evaluation errors surface only on rows that actually evaluate
    // (unlike Neo4j's semantic compile pass), so force a row with UNWIND.
    assert!(run_with(&g, "UNWIND [1] AS x RETURN undefined_var", &Params::new()).is_err());
    assert!(run_with(&g, "UNWIND [1] AS x RETURN bogusfn(x)", &Params::new()).is_err());
}

#[test]
fn empty_graph_queries() {
    let g = Graph::new();
    let rs = run(&g, "MATCH (n:AS) RETURN n.asn");
    assert!(rs.rows.is_empty());
    let rs = run(&g, "MATCH (n:AS) RETURN count(n)");
    assert_eq!(rs.single_int(), Some(0));
}

#[test]
fn result_set_helpers() {
    let g = figure2_graph();
    let rs = run(&g, "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn");
    assert_eq!(rs.column("asn"), Some(0));
    assert_eq!(rs.column("nope"), None);
    assert_eq!(rs.column_values("asn").count(), 3);
    assert!(rs.single().is_none());
    let table = rs.render(&g);
    assert!(table.contains("asn"));
    assert!(table.contains("2497"));
}

// ----------------------------------------------------------------------
// Variable-length paths and EXISTS subqueries
// ----------------------------------------------------------------------

/// Builds a provider chain: stub -> transit -> tier1 (PEERS_WITH).
fn chain_graph() -> Graph {
    let mut g = Graph::new();
    let stub = g.merge_node("AS", "asn", 1u32, props([("tier", Value::Int(3))]));
    let transit = g.merge_node("AS", "asn", 2u32, props([("tier", Value::Int(2))]));
    let tier1 = g.merge_node("AS", "asn", 3u32, props([("tier", Value::Int(1))]));
    let tier1b = g.merge_node("AS", "asn", 4u32, props([("tier", Value::Int(1))]));
    g.create_rel(stub, "PEERS_WITH", transit, Props::new())
        .unwrap();
    g.create_rel(transit, "PEERS_WITH", tier1, Props::new())
        .unwrap();
    g.create_rel(tier1, "PEERS_WITH", tier1b, Props::new())
        .unwrap();
    g
}

#[test]
fn var_length_exact() {
    let g = chain_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn:1})-[:PEERS_WITH*2]-(b:AS) RETURN b.asn",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![3]);
}

#[test]
fn var_length_range() {
    let g = chain_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn:1})-[:PEERS_WITH*1..3]-(b:AS) RETURN b.asn ORDER BY b.asn",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![2, 3, 4]);
}

#[test]
fn var_length_unbounded_respects_rel_uniqueness() {
    let g = chain_graph();
    // `*` walks each relationship at most once per path.
    let rs = run(
        &g,
        "MATCH (a:AS {asn:1})-[:PEERS_WITH*]-(b:AS) RETURN count(b)",
    );
    assert_eq!(rs.single_int(), Some(3));
}

#[test]
fn var_length_zero_includes_start() {
    let g = chain_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn:1})-[:PEERS_WITH*0..1]-(b:AS) RETURN b.asn ORDER BY b.asn",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![1, 2]);
}

#[test]
fn var_length_binds_rel_list() {
    let g = chain_graph();
    let rs = run(
        &g,
        "MATCH (a:AS {asn:1})-[rels:PEERS_WITH*2]-(b:AS) RETURN size(rels)",
    );
    assert_eq!(rs.single_int(), Some(2));
}

#[test]
fn exists_subquery_filters() {
    let g = figure2_graph();
    // ASes that originate at least one prefix AND are managed by an org.
    let rs = run(
        &g,
        "MATCH (a:AS)
         WHERE EXISTS { MATCH (a)-[:MANAGED_BY]-(:Organization) }
         RETURN a.asn",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![2497]);
}

#[test]
fn exists_with_inner_where() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)
         WHERE EXISTS { MATCH (a)-[:ORIGINATE]-(p:Prefix) WHERE p.af = 6 }
         RETURN DISTINCT a.asn",
    );
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, vec![2497]);
}

#[test]
fn not_exists() {
    let g = figure2_graph();
    let rs = run(
        &g,
        "MATCH (a:AS)
         WHERE NOT EXISTS { MATCH (a)-[:MANAGED_BY]-(:Organization) }
         RETURN count(a)",
    );
    assert_eq!(rs.single_int(), Some(2));
}

#[test]
fn keys_and_range_functions() {
    let g = figure2_graph();
    let rs = run(&g, "MATCH (a:AS {asn:2497}) RETURN size(keys(a))");
    assert_eq!(rs.single_int(), Some(1)); // only the asn property
    let rs = run(&g, "UNWIND range(1, 5) AS x RETURN sum(x)");
    assert_eq!(rs.single_int(), Some(15));
    let rs = run(&g, "UNWIND range(10, 0, -5) AS x RETURN collect(x)");
    assert_eq!(
        rs.rows[0][0].as_scalar().unwrap().as_list().unwrap().len(),
        3
    );
}
