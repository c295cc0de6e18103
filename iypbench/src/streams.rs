//! Seeded request streams. The same seed always yields byte-identical
//! request lines; the program under test only ever sees those lines.

use crate::check::request;
use crate::util::{Rng, Zipf};
use iyp_cypher::{Params, Statement};
use iyp_graph::{Graph, Value};
use iyp_server::Request;

/// Point lookups of the public-instance traffic (`lookup` workload).
pub const LOOKUPS: [(&str, &str); 4] = [
    (
        "as_names",
        "MATCH (a:AS {asn: $asn}) OPTIONAL MATCH (a)-[:NAME]-(n:Name) \
         OPTIONAL MATCH (a)-[:COUNTRY]-(c:Country) \
         RETURN a.asn AS asn, collect(DISTINCT n.name) AS names, \
         collect(DISTINCT c.country_code) AS countries",
    ),
    (
        "prefix_origin",
        "MATCH (p:Prefix {prefix: $prefix})-[:ORIGINATE]-(a:AS) RETURN DISTINCT a.asn AS asn",
    ),
    (
        "domain_ns",
        "MATCH (d:DomainName {name: $name})-[:MANAGED_BY]-(ns:AuthoritativeNameServer) \
         RETURN DISTINCT ns.name AS ns",
    ),
    (
        "host_ips",
        "MATCH (h:HostName {name: $name})-[:RESOLVES_TO]-(i:IP) RETURN DISTINCT i.ip AS ip",
    ),
];

/// The paper's study queries (`analytics` workload): Listings 1, 2, 4,
/// 5 and 6 verbatim, and the studies' query constants.
pub fn analytics_queries() -> Vec<(&'static str, &'static str)> {
    use iyp_studies::{dns_robustness, insights, ripki, spof};
    vec![
        (
            "listing1",
            "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn",
        ),
        (
            "listing2",
            "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) \
             WHERE x.asn <> y.asn RETURN DISTINCT p.prefix",
        ),
        (
            "listing4",
            "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(:DomainName)-[:PART_OF]-(:HostName)\
             -[:RESOLVES_TO]-(:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-(t:Tag) \
             WHERE t.label STARTS WITH 'RPKI Invalid' RETURN count(DISTINCT pfx)",
        ),
        (
            "listing5",
            "MATCH (:Ranking {name:'Tranco top 1M'})-[:RANK]-(d:DomainName)\
             -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4}) \
             RETURN d.name, a.name, collect(DISTINCT i.ip)",
        ),
        (
            "listing6",
            "MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)\
             -[:MANAGED_BY]-(a:AuthoritativeNameServer)-[:RESOLVES_TO]-(i:IP {af:4})\
             -[:PART_OF]-(pfx:Prefix) RETURN d, COLLECT(DISTINCT pfx)",
        ),
        ("spof.zone_hosting", spof::Q_ZONE_HOSTING),
        ("spof.dependency_edges", spof::Q_DEPENDENCY_EDGES),
        ("ripki.domain_prefixes", ripki::Q_DOMAIN_PREFIXES),
        ("ripki.prefix_rpki", ripki::Q_PREFIX_RPKI),
        ("ripki.tagged_as_prefixes", ripki::Q_TAGGED_AS_PREFIXES),
        (
            "dns_robustness.domain_ns_ips",
            dns_robustness::Q_DOMAIN_NS_IPS,
        ),
        (
            "dns_robustness.ns_bgp_prefixes",
            dns_robustness::Q_NS_BGP_PREFIXES,
        ),
        (
            "insights.domain_ns_prefixes",
            insights::Q_DOMAIN_NS_PREFIXES,
        ),
        (
            "insights.domain_web_prefixes",
            insights::Q_DOMAIN_WEB_PREFIXES,
        ),
        ("insights.cdn_prefixes", insights::Q_CDN_PREFIXES),
    ]
}

/// One key population of the snapshot, in a seeded popularity order.
#[derive(Debug, Clone)]
pub struct Population {
    keys: Vec<Value>,
    zipf: Zipf,
}

impl Population {
    /// All values of `query`'s single column, sorted (so the result does
    /// not depend on storage order), then shuffled by `seed` so that
    /// each seed makes different keys popular.
    pub fn from_graph(graph: &Graph, query: &str, seed: u64, stream: u64) -> Result<Self, String> {
        let rs = Statement::prepare(query)
            .and_then(|s| s.no_cache().run(graph))
            .map_err(|e| format!("population `{query}`: {e}"))?;
        let mut keys: Vec<Value> = rs
            .rows
            .iter()
            .filter_map(|r| match r.first() {
                Some(iyp_cypher::RtVal::Scalar(v)) if *v != Value::Null => Some(v.clone()),
                _ => None,
            })
            .collect();
        keys.sort_by_key(|v| v.to_string());
        keys.dedup();
        if keys.is_empty() {
            return Err(format!("population `{query}` is empty"));
        }
        Rng::derive(seed, stream).shuffle(&mut keys);
        let zipf = Zipf::new(keys.len(), 0.99);
        Ok(Population { keys, zipf })
    }

    pub fn draw(&self, rng: &mut Rng) -> Value {
        self.keys[self.zipf.sample(rng)].clone()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }
}

/// The four lookup populations: ASNs, prefixes, domains, hostnames.
pub struct LookupKeys {
    pops: [Population; 4],
}

impl LookupKeys {
    pub fn from_graph(graph: &Graph, seed: u64) -> Result<Self, String> {
        let q = |text: &str, s: u64| Population::from_graph(graph, text, seed, s);
        Ok(LookupKeys {
            pops: [
                q("MATCH (a:AS) RETURN a.asn", 101)?,
                q("MATCH (p:Prefix) RETURN p.prefix", 102)?,
                q("MATCH (d:DomainName) RETURN d.name", 103)?,
                q("MATCH (h:HostName) RETURN h.name", 104)?,
            ],
        })
    }

    pub fn sizes(&self) -> [usize; 4] {
        [
            self.pops[0].len(),
            self.pops[1].len(),
            self.pops[2].len(),
            self.pops[3].len(),
        ]
    }
}

/// An endless lookup stream for one connection.
pub struct LookupStream<'a> {
    keys: &'a LookupKeys,
    rng: Rng,
}

impl<'a> LookupStream<'a> {
    pub fn new(keys: &'a LookupKeys, seed: u64, connection: u64) -> Self {
        LookupStream {
            keys,
            rng: Rng::derive(seed, connection),
        }
    }

    pub fn next_request(&mut self) -> (&'static str, Request) {
        let class = self.rng.below(LOOKUPS.len());
        let (name, text) = LOOKUPS[class];
        let key = self.keys.pops[class].draw(&mut self.rng);
        let param = ["asn", "prefix", "name", "name"][class];
        let mut params = Params::new();
        params.insert(param.to_string(), key);
        (name, request(text, params))
    }
}

/// §6.1-style user writes: `SET`s on existing nodes and
/// reference-annotated facts. Each carries one parameter (the ASN is
/// part of the text), so request lines are byte-identical per seed.
fn set_seq(asn: i64) -> String {
    format!("MATCH (a:AS {{asn: {asn}}}) SET a.bench_seq = $seq")
}

fn tag_fact(asn: i64) -> String {
    format!(
        "MATCH (a:AS {{asn: {asn}}}) MERGE (t:Tag {{label: $label}}) \
         MERGE (a)-[:CATEGORIZED {{reference_org: 'iypbench', reference_name: 'iypbench.user_tags'}}]->(t)"
    )
}

/// The read that observes both kinds of write on one AS.
pub const Q_READ_BACK: &str = "MATCH (a:AS {asn: $asn}) \
     OPTIONAL MATCH (a)-[:CATEGORIZED {reference_name: 'iypbench.user_tags'}]-(t:Tag) \
     RETURN a.bench_seq AS seq, collect(DISTINCT t.label) AS tags";

/// One generated write.
#[derive(Debug, Clone)]
pub struct Write {
    pub asn: i64,
    pub seq: i64,
    /// The tag a fact write attaches; `None` for a `SET`.
    pub tag: Option<String>,
    pub req: Request,
}

/// The writer's endless stream: sequence numbers grow by one per write.
pub struct WriteStream {
    asns: Population,
    rng: Rng,
    seq: i64,
}

impl WriteStream {
    pub fn new(asns: Population, seed: u64) -> Self {
        WriteStream {
            asns,
            rng: Rng::derive(seed, 201),
            seq: 0,
        }
    }

    pub fn next_write(&mut self) -> Write {
        self.seq += 1;
        let asn = int_key(self.asns.draw(&mut self.rng));
        let mut params = Params::new();
        let (text, tag) = if self.rng.below(2) == 0 {
            params.insert("seq".into(), Value::Int(self.seq));
            (set_seq(asn), None)
        } else {
            let label = format!("iypbench-tag-{}", self.rng.below(8));
            params.insert("label".into(), Value::Str(label.clone()));
            (tag_fact(asn), Some(label))
        };
        Write {
            asn,
            seq: self.seq,
            tag,
            req: request(&text, params),
        }
    }
}

/// An integer key (an ASN) drawn from an integer population.
pub fn int_key(v: Value) -> i64 {
    match v {
        Value::Int(i) => i,
        other => panic!("ASN population holds a non-integer {other:?}"),
    }
}

pub fn read_back(asn: i64) -> Request {
    let mut params = Params::new();
    params.insert("asn".into(), Value::Int(asn));
    request(Q_READ_BACK, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_server::Command;

    fn graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..300u32 {
            let a = g.merge_node("AS", "asn", 64_000 + i, iyp_graph::Props::new());
            let p = g.merge_node(
                "Prefix",
                "prefix",
                format!("10.{i}.0.0/16").as_str(),
                iyp_graph::Props::new(),
            );
            g.create_rel(a, "ORIGINATE", p, iyp_graph::Props::new())
                .unwrap();
            g.merge_node(
                "DomainName",
                "name",
                format!("d{i}.example").as_str(),
                iyp_graph::Props::new(),
            );
            g.merge_node(
                "HostName",
                "name",
                format!("www.d{i}.example").as_str(),
                iyp_graph::Props::new(),
            );
        }
        g
    }

    fn lines(keys: &LookupKeys, seed: u64) -> String {
        let mut s = LookupStream::new(keys, seed, 0);
        (0..500)
            .map(|_| Command::Query(s.next_request().1).to_line() + "\n")
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_keys() {
        let g = graph();
        let a = LookupKeys::from_graph(&g, 42).unwrap();
        let b = LookupKeys::from_graph(&g, 42).unwrap();
        let c = LookupKeys::from_graph(&g, 43).unwrap();
        assert_eq!(lines(&a, 42), lines(&b, 42));
        assert_ne!(lines(&a, 42), lines(&c, 43));
        // Another seed changes which keys are drawn, not just their order.
        let keyset = |s: &str| {
            let mut v: Vec<&str> = s.lines().collect();
            v.sort();
            v.dedup();
            v.join("\n")
        };
        assert_ne!(keyset(&lines(&a, 42)), keyset(&lines(&c, 43)));

        let asns = |seed| Population::from_graph(&g, "MATCH (a:AS) RETURN a.asn", seed, 9).unwrap();
        let w = |seed| {
            let mut s = WriteStream::new(asns(seed), seed);
            (0..200)
                .map(|_| Command::Write(s.next_write().req).to_line() + "\n")
                .collect::<String>()
        };
        assert_eq!(w(7), w(7));
        assert_ne!(w(7), w(8));
    }

    #[test]
    fn writes_apply_and_read_back() {
        let mut g = graph();
        let asns = Population::from_graph(&g, "MATCH (a:AS) RETURN a.asn", 1, 9).unwrap();
        let mut s = WriteStream::new(asns, 1);
        let mut last = None;
        for _ in 0..40 {
            let w = s.next_write();
            iyp_cypher::query_write(&mut g, &w.req.query, &w.req.params).unwrap();
            last = Some(w);
        }
        let w = last.unwrap();
        let (_, rows) = crate::check::expected(&g, &read_back(w.asn)).unwrap();
        assert_eq!(rows.len(), 1);
        match &w.tag {
            None => assert_eq!(rows[0][0], serde_json::json!(w.seq)),
            Some(t) => assert!(rows[0][1]
                .as_array()
                .unwrap()
                .contains(&serde_json::json!(t))),
        }
    }
}
