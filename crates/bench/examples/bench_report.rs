//! Machine-readable Cypher benchmark report.
//!
//! Runs the query-engine-bound paper benchmarks (figure 5, figure 6,
//! table 5, and single `analytics` study queries) serially and at the
//! configured parallel thread count, and
//! writes `BENCH_cypher.json` — bench name → ns/op per thread count,
//! plus graph scale and git revision — for before/after comparisons in
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p iyp-bench --example bench_report
//! IYP_BENCH_SCALE=small IYP_BENCH_THREADS=4 cargo run --release -p iyp-bench --example bench_report
//! ```

use iyp_bench::build_iyp;
use iyp_core::crawlers::RANKING_TRANCO;
use iyp_core::studies::dns_robustness::{
    shared_infrastructure, Q_DOMAIN_NS_IPS, Q_NS_BGP_PREFIXES,
};
use iyp_core::studies::{insights, ripki, spof, spof_study};
use iyp_core::Iyp;
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// Iterations per bench per thread count. The target queries take
/// tens of milliseconds at small scale, so a handful of iterations
/// gives stable medians without Criterion's sampling machinery.
const ITERS: u32 = 7;

fn parallel_threads() -> usize {
    std::env::var("IYP_BENCH_THREADS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4)
}

fn scale_name() -> String {
    match std::env::var("IYP_BENCH_SCALE").as_deref() {
        Ok("tiny") => "tiny".into(),
        Ok("default") | Ok("full") => "default".into(),
        _ => "small".into(),
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median ns/op over `ITERS` runs of `f` (after one warmup run).
fn time_ns(mut f: impl FnMut()) -> u64 {
    f();
    let mut samples: Vec<u64> = (0..ITERS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A 50k-degree hub with a handful of rare-type edges: the worst case
/// for the old type-filter scan, the best case for typed adjacency.
fn hub_graph() -> iyp_core::Graph {
    use iyp_core::{Graph, Props};
    let mut g = Graph::new();
    let hub = g.merge_node("AS", "asn", 1u32, Props::new());
    for i in 0..50_000u32 {
        let p = g.merge_node(
            "Prefix",
            "prefix",
            format!("10.{}.{}.0/24", i >> 8, i & 255),
            Props::new(),
        );
        g.create_rel(hub, "ORIGINATE", p, Props::new()).unwrap();
        if i % 3_200 == 0 {
            let t = g.merge_node("Tag", "label", format!("t{i}"), Props::new());
            g.create_rel(hub, "CATEGORIZED", t, Props::new()).unwrap();
        }
    }
    g
}

const HUB_QUERY: &str = "MATCH (a:AS {asn: 1})-[:CATEGORIZED]-(t:Tag) RETURN count(t)";

/// The cached-vs-uncached hot query: a 50k-edge expansion, expensive
/// enough that the epoch-keyed result cache must win by a wide margin.
const HOT_QUERY: &str = "MATCH (a:AS {asn: 1})-[:ORIGINATE]-(p:Prefix) RETURN count(p)";

/// Measures `HOT_QUERY` uncached vs served from a warm
/// [`iyp_core::cypher::QueryCache`], asserting byte-identical results,
/// and returns a report entry with both latencies and the speedup.
fn cache_bench(hub: &iyp_core::Graph) -> serde_json::Value {
    use iyp_core::cypher::{QueryCache, Statement};
    let cache = QueryCache::new(16 << 20);
    let stmt = Statement::prepare(HOT_QUERY).expect("hot query parses");
    let uncached_result = stmt.no_cache().run(hub).expect("uncached run");
    let stmt = Statement::prepare(HOT_QUERY)
        .expect("hot query parses")
        .cache(&cache);
    let cached_result = stmt.run(hub).expect("warming run");
    assert_eq!(
        uncached_result, cached_result,
        "cached result diverged from uncached"
    );
    let uncached_ns = time_ns(|| {
        let stmt = Statement::prepare(HOT_QUERY).expect("hot query parses");
        black_box(stmt.no_cache().run(hub).expect("uncached run").rows.len());
    });
    let cached_ns = time_ns(|| {
        let stmt = Statement::prepare(HOT_QUERY)
            .expect("hot query parses")
            .cache(&cache);
        black_box(stmt.run(hub).expect("cached run").rows.len());
    });
    let speedup = uncached_ns as f64 / cached_ns.max(1) as f64;
    eprintln!(
        "query_cache/hot_hub_expand: uncached {uncached_ns} ns/op, \
         cached {cached_ns} ns/op ({speedup:.2}x)"
    );
    json!({
        "name": "query_cache/hot_hub_expand",
        "ns_per_op": { "uncached": uncached_ns, "cached": cached_ns },
        "speedup": (speedup * 100.0).round() / 100.0,
    })
}

type Bench<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Single study queries from the benchmark's `analytics` workload:
/// three large ones that partition well and two small ones that pay
/// the thread start-up cost for little work.
const ANALYTICS_QUERIES: [(&str, &str); 5] = [
    ("analytics/zone_hosting", spof::Q_ZONE_HOSTING),
    ("analytics/dependency_edges", spof::Q_DEPENDENCY_EDGES),
    ("analytics/domain_ns_ips", Q_DOMAIN_NS_IPS),
    ("analytics/cdn_pfx", insights::Q_CDN_PREFIXES),
    ("analytics/prefix_rpki", ripki::Q_PREFIX_RPKI),
];

fn benches(iyp: &Iyp) -> Vec<Bench<'_>> {
    let analytics = ANALYTICS_QUERIES.map(|(name, q)| -> Bench<'_> {
        (
            name,
            Box::new(move || {
                black_box(iyp.query(q).unwrap().rows.len());
            }),
        )
    });
    let mut all: Vec<Bench<'_>> = vec![
        (
            "fig5_spof_country/tranco",
            Box::new(|| {
                black_box(spof_study(iyp.graph(), RANKING_TRANCO).top_countries(10));
            }),
        ),
        (
            "fig6_spof_as/tranco",
            Box::new(|| {
                black_box(spof_study(iyp.graph(), RANKING_TRANCO).top_ases(10));
            }),
        ),
        (
            "table5_extended/listing6_ns_bgp_prefix_join",
            Box::new(|| {
                black_box(iyp.query(Q_NS_BGP_PREFIXES).unwrap().rows.len());
            }),
        ),
        (
            "table5_extended/full_table5",
            Box::new(|| {
                black_box(shared_infrastructure(iyp.graph()));
            }),
        ),
    ];
    all.extend(analytics);
    all
}

fn main() {
    let par = parallel_threads().max(2);
    let scale = scale_name();
    eprintln!("building graph ({scale} scale)...");
    let iyp = build_iyp();

    let hub = hub_graph();
    let params = iyp_core::Params::new();
    let mut all = benches(&iyp);
    all.push((
        "graph_engine/hub_typed_expand_query",
        Box::new(|| {
            black_box(
                iyp_core::Statement::prepare(HUB_QUERY)
                    .and_then(|s| s.params(&params).run(&hub))
                    .unwrap()
                    .rows
                    .len(),
            );
        }),
    ));

    let mut entries = Vec::new();
    for (name, mut f) in all {
        iyp_core::cypher::set_threads(1);
        let serial_ns = time_ns(&mut f);
        iyp_core::cypher::set_threads(par);
        let parallel_ns = time_ns(&mut f);
        iyp_core::cypher::set_threads(0);
        let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
        eprintln!(
            "{name}: serial {serial_ns} ns/op, {par} threads {parallel_ns} ns/op ({speedup:.2}x)"
        );
        entries.push(json!({
            "name": name,
            "ns_per_op": { "1": serial_ns, par.to_string(): parallel_ns },
            "speedup": (speedup * 100.0).round() / 100.0,
        }));
    }

    entries.push(cache_bench(&hub));

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let report = json!({
        "schema": "iyp-bench-cypher/1",
        "git_rev": git_rev(),
        "scale": scale,
        "threads": [1, par],
        "host_cpus": host_cpus,
        "iters_per_sample": ITERS,
        "benches": entries,
    });
    let path = "BENCH_cypher.json";
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(path, pretty + "\n").expect("write BENCH_cypher.json");
    println!("wrote {path}");
}
