//! The prepared-Statement API: builder semantics, cache-hit timeout
//! behavior, `PROFILE`'s `cache=hit|miss` annotation, and that the
//! plan `EXPLAIN` prints is the plan `PROFILE` reports running.

use iyp_cypher::{Cancel, Params, PlanNode, QueryCache, Statement};
use iyp_graph::{props, Graph, Props, Value};
use iyp_studies::{compare, dns_robustness, insights, ripki, spof};
use std::sync::OnceLock;
use std::time::Duration;

fn sample_graph() -> Graph {
    let mut g = Graph::new();
    for asn in [2497i64, 64496, 64497] {
        let a = g.merge_node("AS", "asn", asn, props([("tier", Value::Int(asn % 3))]));
        let p = g.merge_node(
            "Prefix",
            "prefix",
            format!("10.{}.0.0/16", asn % 5),
            Props::new(),
        );
        g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
    }
    g
}

#[test]
fn statement_runs_with_params() {
    let g = sample_graph();
    let mut params = Params::new();
    params.insert("t".to_string(), Value::Int(1));
    let q = "MATCH (a:AS) WHERE a.tier >= $t RETURN a.asn ORDER BY a.asn";
    let rs = Statement::prepare(q)
        .unwrap()
        .params(&params)
        .run(&g)
        .unwrap();
    let asns: Vec<i64> = rs
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_int().unwrap())
        .collect();
    assert_eq!(asns, [2497, 64496]);
}

#[test]
fn prepared_statement_is_reusable_across_graphs_and_params() {
    let g1 = sample_graph();
    let g2 = Graph::new();
    let stmt = Statement::prepare("MATCH (a:AS) RETURN count(a)").unwrap();
    assert_eq!(stmt.run(&g1).unwrap().single_int(), Some(3));
    assert_eq!(stmt.run(&g2).unwrap().single_int(), Some(0));
}

#[test]
fn prepare_reports_parse_errors() {
    assert!(Statement::prepare("MATCH (a:AS RETURN a").is_err());
}

#[test]
fn explain_mode_returns_the_rendered_plan() {
    let g = sample_graph();
    let q = "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(*)";
    let stmt = Statement::prepare(q).unwrap();
    let plan = stmt.explain(&g);
    let text = Statement::prepare(&format!("EXPLAIN {q}"))
        .unwrap()
        .run(&g)
        .unwrap();
    let lines: Vec<&str> = text
        .rows
        .iter()
        .map(|r| r[0].as_scalar().unwrap().as_str().unwrap())
        .collect();
    assert_eq!(lines, plan.render_lines());
    let (rows, profiled) = stmt.profile(&g).unwrap();
    assert_eq!(rows.single_int(), Some(3));
    assert!(profiled.render().contains("rows="), "{}", profiled.render());
}

#[test]
fn cache_hit_skips_execution_but_returns_identical_rows() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let stmt = Statement::prepare("MATCH (a:AS) RETURN a.asn ORDER BY a.asn")
        .unwrap()
        .cache(&cache);
    let cold = stmt.run(&g).unwrap();
    assert_eq!(cache.len(), 1);
    let warm = stmt.run(&g).unwrap();
    assert_eq!(cold, warm);
}

#[test]
fn cache_hits_still_honor_an_expired_deadline() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let q = "MATCH (a:AS) RETURN count(a)";
    // Populate the cache with an unconstrained run...
    Statement::prepare(q)
        .unwrap()
        .cache(&cache)
        .run(&g)
        .unwrap();
    assert_eq!(cache.len(), 1);
    // ...then query with an already-expired deadline: the hit must not
    // sneak the result past the timeout.
    let cancel = Cancel::with_timeout(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(5));
    let err = Statement::prepare(q)
        .unwrap()
        .cache(&cache)
        .cancel(&cancel)
        .run(&g)
        .unwrap_err();
    assert!(
        matches!(err, iyp_cypher::CypherError::Timeout { .. }),
        "{err}"
    );
}

#[test]
fn profile_annotates_cache_miss_then_hit() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let stmt = Statement::prepare("MATCH (a:AS) RETURN count(a)")
        .unwrap()
        .cache(&cache);

    let (rows1, plan1) = stmt.profile(&g).unwrap();
    let rendered1 = plan1.render();
    assert!(rendered1.contains("cache=miss"), "{rendered1}");

    let (rows2, plan2) = stmt.profile(&g).unwrap();
    let rendered2 = plan2.render();
    assert!(rendered2.contains("cache=hit"), "{rendered2}");
    assert_eq!(rows1, rows2, "hit must return the cached rows verbatim");

    // Without a cache the annotation is absent entirely, so existing
    // PROFILE output is unchanged for anyone not opting in.
    let (_, plain) = Statement::prepare("MATCH (a:AS) RETURN count(a)")
        .unwrap()
        .no_cache()
        .profile(&g)
        .unwrap();
    assert!(!plain.render().contains("cache="), "{}", plain.render());
}

#[test]
fn profile_mode_text_annotates_too() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let stmt = Statement::prepare("PROFILE MATCH (a:AS) RETURN count(a)")
        .unwrap()
        .cache(&cache);
    let first = stmt.run(&g).unwrap();
    let first_text = format!("{first:?}");
    assert!(first_text.contains("cache=miss"), "{first_text}");
    let second = stmt.run(&g).unwrap();
    let second_text = format!("{second:?}");
    assert!(second_text.contains("cache=hit"), "{second_text}");
}

#[test]
fn no_cache_opts_out() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let stmt = Statement::prepare("MATCH (a:AS) RETURN count(a)")
        .unwrap()
        .cache(&cache)
        .no_cache();
    stmt.run(&g).unwrap();
    assert!(cache.is_empty(), "no_cache run must not populate the cache");
}

#[test]
fn different_params_occupy_different_cache_entries() {
    let g = sample_graph();
    let cache = QueryCache::new(1 << 20);
    let q = "MATCH (a:AS {asn: $asn}) RETURN count(a)";
    let mut p1 = Params::new();
    p1.insert("asn".to_string(), Value::Int(2497));
    let mut p2 = Params::new();
    p2.insert("asn".to_string(), Value::Int(64496));
    let r1 = Statement::prepare(q)
        .unwrap()
        .params(&p1)
        .cache(&cache)
        .run(&g)
        .unwrap();
    let r2 = Statement::prepare(q)
        .unwrap()
        .params(&p2)
        .cache(&cache)
        .run(&g)
        .unwrap();
    assert_eq!(cache.len(), 2);
    assert_eq!(r1.single_int(), Some(1));
    assert_eq!(r2.single_int(), Some(1));
    // Re-running p1 hits its own entry, not p2's.
    let again = Statement::prepare(q)
        .unwrap()
        .params(&p1)
        .cache(&cache)
        .run(&g)
        .unwrap();
    assert_eq!(again, r1);
}

// ----------------------------------------------------------------------
// The plan is what ran
// ----------------------------------------------------------------------

/// The tiny seed-42 knowledge graph: every dataset, refinement included.
fn tiny() -> &'static Graph {
    static CELL: OnceLock<Graph> = OnceLock::new();
    CELL.get_or_init(|| {
        let world = iyp_simnet::World::generate(&iyp_simnet::SimConfig::tiny(), 42);
        iyp_pipeline::build_graph(&world, &iyp_pipeline::BuildOptions::default())
            .expect("build")
            .0
    })
}

const LISTING_3: &str = "
    MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
    WHERE org.name = 'CERN'
    MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
    RETURN distinct h.name";

/// `WITH` drops `a`, so the second `MATCH` must scan for it again.
const WITH_RESCOPES: &str = "
    MATCH (a:AS) WITH count(a) AS c
    MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN c, count(p)";

/// The paper's listings, every study query, and the two queries whose
/// descriptions once drifted from what ran.
const PLANNED: [&str; 20] = [
    "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn",
    "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) WHERE x.asn <> y.asn RETURN DISTINCT p.prefix",
    LISTING_3,
    "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(:DomainName)-[:PART_OF]-(:HostName)\
           -[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
     WHERE t.label STARTS WITH 'RPKI Invalid' RETURN count(DISTINCT pfx)",
    "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)\
           -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4})
     RETURN d.name, a.name, collect(DISTINCT i.ip)",
    "MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(a:AuthoritativeNameServer)\
           -[:RESOLVES_TO]-(i:IP {af:4})-[:PART_OF]-(pfx:Prefix)
     RETURN d, COLLECT(DISTINCT pfx)",
    compare::Q_ORIGIN_DISAGREEMENT,
    dns_robustness::Q_DOMAIN_NS_IPS,
    dns_robustness::Q_NS_BGP_PREFIXES,
    insights::Q_DOMAIN_NS_PREFIXES,
    insights::Q_DOMAIN_WEB_PREFIXES,
    insights::Q_CDN_PREFIXES,
    ripki::Q_DOMAIN_PREFIXES,
    ripki::Q_PREFIX_RPKI,
    ripki::Q_TAGGED_AS_PREFIXES,
    spof::Q_DEPENDENCY_EDGES,
    spof::Q_ZONE_HOSTING,
    spof::Q_RANKED_DOMAINS,
    WITH_RESCOPES,
    "MATCH (a:AS) WHERE EXISTS { MATCH (a)-[:ORIGINATE]-(:Prefix) } RETURN count(a)",
];

const ACCESS_OPS: [&str; 4] = [
    "BoundVariable",
    "NodeIndexSeek",
    "NodeByLabelScan",
    "AllNodesScan",
];

fn access_ops(plan: &PlanNode) -> Vec<(&str, &str)> {
    plan.flatten()
        .into_iter()
        .filter(|n| ACCESS_OPS.contains(&n.op.as_str()))
        .map(|n| (n.op.as_str(), n.detail.as_str()))
        .collect()
}

fn profile(q: &str) -> PlanNode {
    let mut params = Params::new();
    params.insert("ranking".into(), Value::Str("Tranco top 1M".into()));
    Statement::prepare(q)
        .unwrap()
        .params(&params)
        .no_cache()
        .profile(tiny())
        .unwrap()
        .1
}

#[test]
fn profile_annotates_exactly_the_operators_explain_prints() {
    let g = tiny();
    for q in PLANNED {
        let explained = Statement::prepare(q).unwrap().explain(g);
        let profiled = profile(q);
        let rendered = profiled.render();
        let ops = |p: &PlanNode| -> Vec<(String, String)> {
            p.flatten()
                .iter()
                .map(|n| (n.op.clone(), n.detail.clone()))
                .collect()
        };
        assert_eq!(ops(&explained), ops(&profiled), "{q}\n{rendered}");
        assert!(!access_ops(&explained).is_empty(), "{q}");
        assert!(explained.flatten().iter().all(|n| n.rows.is_none()), "{q}");
        // Every operator ran, so every operator reports its rows.
        assert!(
            profiled.flatten().iter().all(|n| n.rows.is_some()),
            "{q}\n{rendered}"
        );
        // A linear chain: each operator's only child is its input.
        assert!(profiled.flatten().iter().all(|n| n.children.len() <= 1));
    }
}

#[test]
fn with_drops_variables_so_the_next_match_scans() {
    let g = tiny();
    let ases = Statement::prepare("MATCH (a:AS) RETURN count(a)")
        .unwrap()
        .run(g)
        .unwrap()
        .single_int()
        .unwrap() as u64;
    let explained = Statement::prepare(WITH_RESCOPES).unwrap().explain(g);
    let access = access_ops(&explained);
    assert!(
        access.iter().all(|(op, _)| *op == "NodeByLabelScan"),
        "{}",
        explained.render()
    );
    // Both scans ran over every AS: the first from the empty row, the
    // second from the one row `WITH` left.
    let profiled = profile(WITH_RESCOPES);
    let scans: Vec<Option<u64>> = profiled
        .flatten()
        .iter()
        .filter(|n| n.op == "NodeByLabelScan")
        .map(|n| n.rows)
        .collect();
    assert_eq!(scans, [Some(ases), Some(ases)], "{}", profiled.render());
}

#[test]
fn explain_prints_full_patterns_with_relationship_properties() {
    let plan = Statement::prepare(LISTING_3).unwrap().explain(tiny());
    let text = plan.render();
    assert!(
        text.contains("[:RESOLVES_TO {reference_name: 'openintel.tranco1m'}]"),
        "{text}"
    );
    assert!(text.contains("(:Tag {label: 'RPKI Valid'})"), "{text}");
    // The second MATCH anchors on the `pfx` the first one bound.
    assert!(
        access_ops(&plan).contains(&("BoundVariable", "pfx")),
        "{text}"
    );
}

#[test]
fn profile_records_parallel_stages_on_their_operator() {
    // Force every stage parallel; results are thread-count independent,
    // so other tests running meanwhile are unaffected.
    iyp_cypher::set_threads(4);
    iyp_cypher::set_min_partition(1);
    let plan = profile("MATCH (a:AS) WHERE a.asn > 0 RETURN count(*)");
    iyp_cypher::set_threads(0);
    iyp_cypher::set_min_partition(iyp_cypher::par::DEFAULT_MIN_PARTITION);
    let filter = plan.find("Filter").expect("filter");
    assert_eq!(filter.parallelism, Some(4), "{}", plan.render());
    let chunks = filter.chunk_rows.clone().expect("chunk rows");
    assert_eq!(chunks.len(), 4);
    assert_eq!(Some(chunks.iter().sum::<u64>()), filter.rows);
    let rendered = plan.render();
    assert!(rendered.contains("par=4 chunks="), "{rendered}");
    // The scan's own row count sits on the scan.
    let scan = plan.find("NodeByLabelScan").expect("scan");
    assert!(scan.rows >= filter.rows, "{rendered}");
    assert_eq!(plan.rows, Some(1));
}
