//! Golden fingerprints of query outputs: the rail for executor
//! refactors. Every paper listing, every study query constant and a
//! fixed script of write queries run against the tiny seed-42 world;
//! each result's columns and *ordered* rows hash to a literal digest.
//! A refactor that changes any row, any value or any row order fails
//! here, naming the query.

use iyp::cypher::{query_write, Params, ResultSet, Statement};
use iyp::graph::snapshot::to_binary;
use iyp::studies::{compare, dns_robustness, insights, ripki, spof};
use iyp::{Iyp, SimConfig, Value};

/// FNV-1a, 64 bit: tiny, dependency-free and stable across releases.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(rs: &ResultSet) -> u64 {
    let mut text = format!("{:?}\n", rs.columns);
    for row in &rs.rows {
        text.push_str(&format!("{row:?}\n"));
    }
    fnv(text.as_bytes())
}

const LISTINGS: [(&str, &str); 6] = [
    (
        "listing_1",
        "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn",
    ),
    (
        "listing_2",
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
         WHERE x.asn <> y.asn
         RETURN DISTINCT p.prefix",
    ),
    (
        "listing_3",
        "MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
         WHERE org.name = 'CERN'
         MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
         RETURN distinct h.name",
    ),
    (
        "listing_4",
        "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(:DomainName)-[:PART_OF]-(:HostName)\
               -[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag)
         WHERE t.label STARTS WITH 'RPKI Invalid'
         RETURN count(DISTINCT pfx)",
    ),
    (
        "listing_5",
        "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)\
               -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4})
         RETURN d.name, a.name, collect(DISTINCT i.ip)",
    ),
    (
        "listing_6",
        "MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)-[:MANAGED_BY]-(a:AuthoritativeNameServer)\
               -[:RESOLVES_TO]-(i:IP {af:4})-[:PART_OF]-(pfx:Prefix)
         RETURN d, COLLECT(DISTINCT pfx)",
    ),
];

const STUDIES: [(&str, &str); 12] = [
    ("Q_ORIGIN_DISAGREEMENT", compare::Q_ORIGIN_DISAGREEMENT),
    ("Q_DOMAIN_NS_IPS", dns_robustness::Q_DOMAIN_NS_IPS),
    ("Q_NS_BGP_PREFIXES", dns_robustness::Q_NS_BGP_PREFIXES),
    ("Q_DOMAIN_NS_PREFIXES", insights::Q_DOMAIN_NS_PREFIXES),
    ("Q_DOMAIN_WEB_PREFIXES", insights::Q_DOMAIN_WEB_PREFIXES),
    ("Q_CDN_PREFIXES", insights::Q_CDN_PREFIXES),
    ("Q_DOMAIN_PREFIXES", ripki::Q_DOMAIN_PREFIXES),
    ("Q_PREFIX_RPKI", ripki::Q_PREFIX_RPKI),
    ("Q_TAGGED_AS_PREFIXES", ripki::Q_TAGGED_AS_PREFIXES),
    ("Q_DEPENDENCY_EDGES", spof::Q_DEPENDENCY_EDGES),
    ("Q_ZONE_HOSTING", spof::Q_ZONE_HOSTING),
    ("Q_RANKED_DOMAINS", spof::Q_RANKED_DOMAINS),
];

/// The write script: every write clause, with and without a match,
/// fed from reads, WITH and UNWIND.
const WRITES: [(&str, &str); 9] = [
    (
        "create_path",
        "CREATE (t:Tag {label: 'golden study'})<-[:CATEGORIZED {reference_name: 'golden'}]-(a:AS {asn: 4200000001, name: 'golden-a'})
         RETURN t.label, a.asn",
    ),
    (
        "unwind_create",
        "UNWIND ['golden g1', 'golden g2'] AS l CREATE (t:Tag {label: l}) RETURN t.label",
    ),
    (
        "merge_matched",
        "MATCH (a:AS) WITH a ORDER BY a.asn LIMIT 1
         MERGE (b:AS {asn: a.asn}) SET b.golden = true RETURN b.asn, b.golden",
    ),
    (
        "merge_created",
        "MERGE (a:AS {asn: 4200000002}) RETURN a.asn",
    ),
    (
        "merge_rel",
        "MATCH (t:Tag {label: 'golden study'}) MATCH (a:AS) WHERE a.asn < 64600
         WITH t, a ORDER BY a.asn LIMIT 4
         MERGE (a)-[r:CATEGORIZED {reference_name: 'golden'}]->(t) RETURN a.asn, type(r)",
    ),
    (
        "set_props",
        "MATCH (a:AS)-[r:CATEGORIZED]-(t:Tag {label: 'golden study'})
         SET a.studied = 1, r.weight = 0.5, t.size = 2
         RETURN a.asn, r.weight ORDER BY a.asn",
    ),
    (
        "detach_delete_as",
        "MATCH (a:AS {asn: 4200000002}) DETACH DELETE a",
    ),
    (
        "detach_delete_tags",
        "MATCH (t:Tag) WHERE t.label STARTS WITH 'golden g' DETACH DELETE t",
    ),
    (
        "read_back",
        "MATCH (a:AS)-[r:CATEGORIZED]-(t:Tag {label: 'golden study'})
         RETURN a.asn, a.studied, r.reference_name, t.size ORDER BY a.asn",
    ),
];

const EXPECTED: [(&str, u64); 28] = [
    ("listing_1", 0xa8d22f100049cbeb),
    ("listing_2", 0x83b69beeb86ff140),
    ("listing_3", 0x2b468c29156cc7c2),
    ("listing_4", 0x6bd03dcb1325fb46),
    ("listing_5", 0xb511ddd10d5344c0),
    ("listing_6", 0x623676c0c166cc6b),
    ("Q_ORIGIN_DISAGREEMENT", 0xfe9ce6bedfbdaacb),
    ("Q_DOMAIN_NS_IPS", 0x9003bbbd74ceba99),
    ("Q_NS_BGP_PREFIXES", 0x929cca455782d6c7),
    ("Q_DOMAIN_NS_PREFIXES", 0xb542478f18733585),
    ("Q_DOMAIN_WEB_PREFIXES", 0xb56ad083463693ac),
    ("Q_CDN_PREFIXES", 0xd4b8ca0bf4262369),
    ("Q_DOMAIN_PREFIXES", 0xb0dc73e4207496f2),
    ("Q_PREFIX_RPKI", 0x2fc8f98a97a6bb89),
    ("Q_TAGGED_AS_PREFIXES", 0x2900ab538f258b98),
    ("Q_DEPENDENCY_EDGES", 0xfd092191fbe65d76),
    ("Q_ZONE_HOSTING", 0x08f0ed9e172e732d),
    ("Q_RANKED_DOMAINS", 0x0569433bc74afa38),
    ("create_path", 0x52c9d5924a5f99a3),
    ("unwind_create", 0x5a6458348b73d047),
    ("merge_matched", 0x8313069fdd307172),
    ("merge_created", 0x27a4355d074e93f9),
    ("merge_rel", 0xdb07c5067317d8eb),
    ("set_props", 0x2b9694aa13552157),
    ("detach_delete_as", 0x1a39235315cd166b),
    ("detach_delete_tags", 0xadbd07e28bd2294c),
    ("read_back", 0xa42e6c95ee33b2fa),
    ("to_binary", 0x901c67d2ff3dac6c),
];

#[test]
fn outputs_match_golden_fingerprints() {
    let iyp = Iyp::build(&SimConfig::tiny(), 42).expect("build");
    let mut params = Params::new();
    params.insert("ranking".into(), Value::Str("Tranco top 1M".into()));
    let mut actual: Vec<(&str, u64)> = Vec::new();
    for (name, q) in LISTINGS.iter().chain(STUDIES.iter()) {
        let rs = Statement::prepare(q)
            .and_then(|s| s.params(&params).no_cache().run(iyp.graph()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!rs.columns.is_empty(), "{name}");
        actual.push((name, digest(&rs)));
    }
    let mut graph = iyp.into_graph();
    for (name, q) in WRITES {
        let (rs, summary) =
            query_write(&mut graph, q, &params).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut h = digest(&rs);
        h ^= fnv(format!("{summary:?}").as_bytes());
        actual.push((name, h));
    }
    actual.push(("to_binary", fnv(&to_binary(&graph))));

    let mismatched: Vec<String> = EXPECTED
        .iter()
        .zip(&actual)
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("{}: want {:#018x}, got {:#018x}", want.0, want.1, got.1))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} fingerprint(s) changed:\n{}\nactual: {actual:#x?}",
        mismatched.len(),
        mismatched.join("\n")
    );
}
