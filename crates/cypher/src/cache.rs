//! Epoch-keyed query and plan caching.
//!
//! The paper's workloads re-run a small set of queries against a graph
//! that only changes when a build or a journaled write lands — exactly
//! the shape where a result cache turns repeat traffic into O(1)
//! lookups. This module provides:
//!
//! - [`QueryCache`]: an LRU, byte-bounded cache of full
//!   [`ResultSet`]s, keyed by `(graph_id, epoch, query text, params
//!   fingerprint)`. The graph's [`iyp_graph::Graph::epoch`] is bumped
//!   by every mutation (including journal replay), so **writes
//!   invalidate implicitly**: a stale entry's key simply never matches
//!   again, and no stale read is ever servable. `graph_id` is
//!   process-unique per store instance, so two graphs that happen to
//!   share an epoch can never collide.
//! - A process-global AST cache consulted by
//!   [`crate::Statement::prepare`] and [`crate::query_write`], so
//!   re-preparing the same text skips the parser.
//! - A process-global [`QueryCache`] (see [`global`]) used by
//!   statements that attach no cache of their own, and by the CLI. It
//!   starts **disabled** (capacity 0); enable it with
//!   [`QueryCache::set_capacity`] or the `IYP_QUERY_CACHE_MB`
//!   environment variable. The server builds its own instance from
//!   `serve --cache-mb N` instead.
//!
//! Hits, misses, evictions, and resident bytes are counted in
//! telemetry (`iyp_cypher_cache_*`). All methods take `&self` and are
//! safe to call from concurrent reader threads (one internal mutex; the
//! critical sections are hash-map probes, never query execution).

use crate::ast::Query;
use crate::error::CypherError;
use crate::exec::{Params, ResultSet};
use crate::parser::parse;
use crate::rtval::RtVal;
use iyp_graph::{Graph, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for one result: which store state, which query, which
/// parameters. Epoch keying makes invalidation implicit — see the
/// module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ResultKey {
    graph_id: u64,
    epoch: u64,
    text: String,
    params_fp: String,
}

/// A strict-LRU map with external size accounting: every entry carries
/// a byte weight, and inserts evict least-recently-used entries until
/// the total fits the capacity. Recency is a monotonic tick per access,
/// kept in a `BTreeMap<tick, key>` mirror, so get/insert/evict are all
/// O(log n).
struct Lru<K: Eq + Hash + Clone, V> {
    capacity: usize,
    bytes: usize,
    tick: u64,
    map: HashMap<K, (V, usize, u64)>,
    order: BTreeMap<u64, K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            bytes: 0,
            tick: 0,
            map: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, _, old_tick) = self.map.get_mut(key)?;
        let value = value.clone();
        let old = std::mem::replace(old_tick, tick);
        self.order.remove(&old);
        self.order.insert(tick, key.clone());
        Some(value)
    }

    /// Inserts (replacing any previous entry) and evicts LRU entries
    /// until the cache fits its capacity again. Returns the number of
    /// entries evicted. Entries larger than the whole capacity are
    /// rejected (returning 0) rather than flushing everything else.
    fn insert(&mut self, key: K, value: V, weight: usize) -> usize {
        if weight > self.capacity {
            return 0;
        }
        if let Some((_, old_weight, old_tick)) = self.map.remove(&key) {
            self.bytes -= old_weight;
            self.order.remove(&old_tick);
        }
        self.tick += 1;
        self.map.insert(key.clone(), (value, weight, self.tick));
        self.order.insert(self.tick, key);
        self.bytes += weight;
        let mut evicted = 0;
        while self.bytes > self.capacity {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order.remove(&oldest).expect("tick present");
            let (_, w, _) = self.map.remove(&victim).expect("key present");
            self.bytes -= w;
            evicted += 1;
        }
        evicted
    }

    fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity;
        let mut evicted = 0;
        while self.bytes > self.capacity {
            let Some((&oldest, _)) = self.order.iter().next() else {
                break;
            };
            let victim = self.order.remove(&oldest).expect("tick present");
            let (_, w, _) = self.map.remove(&victim).expect("key present");
            self.bytes -= w;
            evicted += 1;
        }
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// An LRU, byte-bounded cache of full query results. See the module
/// docs for keying and invalidation semantics.
pub struct QueryCache {
    inner: Mutex<Lru<ResultKey, Arc<ResultSet>>>,
}

impl QueryCache {
    /// A cache bounded to `max_bytes` of (approximate) resident result
    /// data. Capacity 0 disables the cache: every lookup misses without
    /// touching the hit/miss counters, and inserts are dropped.
    pub fn new(max_bytes: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Lru::new(max_bytes)),
        }
    }

    /// Convenience: a cache bounded to `mb` mebibytes.
    pub fn with_capacity_mb(mb: usize) -> QueryCache {
        QueryCache::new(mb << 20)
    }

    /// True when the cache can hold anything at all.
    pub fn is_enabled(&self) -> bool {
        self.lock().capacity > 0
    }

    /// Resizes the byte budget (0 disables), evicting as needed.
    pub fn set_capacity(&self, max_bytes: usize) {
        let evicted;
        let bytes;
        {
            let mut inner = self.lock();
            evicted = inner.set_capacity(max_bytes);
            if max_bytes == 0 {
                inner.clear();
            }
            bytes = inner.bytes;
        }
        if evicted > 0 {
            iyp_telemetry::counter(iyp_telemetry::names::CYPHER_CACHE_EVICTIONS_TOTAL)
                .add(evicted as u64);
        }
        iyp_telemetry::gauge(iyp_telemetry::names::CYPHER_CACHE_BYTES).set(bytes as i64);
    }

    /// Looks up the result of `text` with `params` against the current
    /// state of `graph`. A `Some` is guaranteed byte-identical to what
    /// executing the query now would produce: the key embeds the
    /// graph's epoch, which every mutation bumps.
    pub fn get(&self, graph: &Graph, text: &str, params: &Params) -> Option<Arc<ResultSet>> {
        let key = ResultKey {
            graph_id: graph.graph_id(),
            epoch: graph.epoch(),
            text: text.to_string(),
            params_fp: fingerprint(params),
        };
        let found = {
            let mut inner = self.lock();
            if inner.capacity == 0 {
                return None;
            }
            inner.get(&key)
        };
        let counter = if found.is_some() {
            iyp_telemetry::names::CYPHER_CACHE_HITS_TOTAL
        } else {
            iyp_telemetry::names::CYPHER_CACHE_MISSES_TOTAL
        };
        iyp_telemetry::counter(counter).incr();
        found
    }

    /// Stores a result under the current `(graph_id, epoch)`. No-op on
    /// a disabled cache or for results larger than the whole budget.
    pub fn insert(&self, graph: &Graph, text: &str, params: &Params, result: Arc<ResultSet>) {
        let weight = approx_result_bytes(&result) + text.len();
        let key = ResultKey {
            graph_id: graph.graph_id(),
            epoch: graph.epoch(),
            text: text.to_string(),
            params_fp: fingerprint(params),
        };
        let evicted;
        let bytes;
        {
            let mut inner = self.lock();
            if inner.capacity == 0 {
                return;
            }
            evicted = inner.insert(key, result, weight);
            bytes = inner.bytes;
        }
        if evicted > 0 {
            iyp_telemetry::counter(iyp_telemetry::names::CYPHER_CACHE_EVICTIONS_TOTAL)
                .add(evicted as u64);
        }
        iyp_telemetry::gauge(iyp_telemetry::names::CYPHER_CACHE_BYTES).set(bytes as i64);
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Drops every cached result (the budget is kept).
    pub fn clear(&self) {
        self.lock().clear();
        iyp_telemetry::gauge(iyp_telemetry::names::CYPHER_CACHE_BYTES).set(0);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<ResultKey, Arc<ResultSet>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The process-global result cache used by [`crate::Statement`] runs
/// that don't attach their own cache.
/// Starts disabled (capacity 0) unless `IYP_QUERY_CACHE_MB` is set, so
/// existing workloads keep their exact memory profile until someone
/// opts in (`--cache-mb` in the CLI).
pub fn global() -> &'static QueryCache {
    static GLOBAL: OnceLock<QueryCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mb = std::env::var("IYP_QUERY_CACHE_MB")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0);
        QueryCache::with_capacity_mb(mb)
    })
}

/// Parses `text` through the parsed-AST cache shared by
/// [`crate::Statement::prepare`] and [`crate::query_write`]: re-parsing
/// the same text returns the same `Arc<Query>` without touching the
/// parser. Entry count bounded (LRU), content immutable, so there is
/// nothing to invalidate.
pub(crate) fn parse_cached(text: &str) -> Result<Arc<Query>, CypherError> {
    let asts = || ast_cache().lock().unwrap_or_else(|e| e.into_inner());
    let key = text.to_string();
    if let Some(ast) = asts().get(&key) {
        return Ok(ast);
    }
    let ast = Arc::new(parse(text)?);
    asts().insert(key, Arc::clone(&ast), 1);
    Ok(ast)
}

fn ast_cache() -> &'static Mutex<Lru<String, Arc<Query>>> {
    static ASTS: OnceLock<Mutex<Lru<String, Arc<Query>>>> = OnceLock::new();
    // Weight 1 per entry: the bound is an entry count, not bytes.
    ASTS.get_or_init(|| Mutex::new(Lru::new(512)))
}

/// A canonical, collision-free rendering of a parameter map: keys
/// sorted, every value length- or bit-prefixed so distinct maps can
/// never serialize identically (`{"a": "1"}` vs `{"a": 1}`, float
/// `1.0` vs int `1`, nested lists, embedded separators).
pub fn fingerprint(params: &Params) -> String {
    let mut keys: Vec<&String> = params.keys().collect();
    keys.sort();
    let mut out = String::new();
    for k in keys {
        out.push_str(&format!("{}:{}=", k.len(), k));
        fp_value(&params[k], &mut out);
    }
    out
}

fn fp_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("n;"),
        Value::Bool(b) => out.push_str(if *b { "b1;" } else { "b0;" }),
        Value::Int(i) => out.push_str(&format!("i{i};")),
        // Bit pattern, not display text: -0.0 vs 0.0 and NaN payloads
        // stay distinct, and no float-formatting ambiguity.
        Value::Float(f) => out.push_str(&format!("f{:016x};", f.to_bits())),
        Value::Str(s) => out.push_str(&format!("s{}:{};", s.len(), s)),
        Value::List(items) => {
            out.push_str(&format!("l{}[", items.len()));
            for item in items {
                fp_value(item, out);
            }
            out.push(']');
        }
    }
}

/// Approximate resident bytes of a result set (struct overhead plus
/// heap payloads). Used for the cache's byte accounting — a budget,
/// not an allocator-exact measurement.
pub fn approx_result_bytes(rs: &ResultSet) -> usize {
    let mut bytes = std::mem::size_of::<ResultSet>();
    for c in &rs.columns {
        bytes += std::mem::size_of::<String>() + c.len();
    }
    for row in &rs.rows {
        bytes += std::mem::size_of::<Vec<RtVal>>();
        for v in row {
            bytes += approx_rtval_bytes(v);
        }
    }
    bytes
}

fn approx_rtval_bytes(v: &RtVal) -> usize {
    std::mem::size_of::<RtVal>()
        + match v {
            RtVal::Scalar(s) => approx_value_bytes(s),
            RtVal::Node(_) | RtVal::Rel(_) => 0,
            RtVal::List(items) => items.iter().map(approx_rtval_bytes).sum(),
        }
}

fn approx_value_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        Value::List(items) => items
            .iter()
            .map(|i| std::mem::size_of::<Value>() + approx_value_bytes(i))
            .sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_graph::Props;

    fn rs(n: i64) -> Arc<ResultSet> {
        Arc::new(ResultSet {
            columns: vec!["n".into()],
            rows: vec![vec![RtVal::Scalar(Value::Int(n))]],
        })
    }

    #[test]
    fn hit_after_insert_and_implicit_invalidation_on_write() {
        let cache = QueryCache::new(1 << 20);
        let mut g = Graph::new();
        g.merge_node("AS", "asn", 1u32, Props::new());
        let p = Params::new();
        assert!(cache.get(&g, "Q", &p).is_none());
        cache.insert(&g, "Q", &p, rs(1));
        assert_eq!(cache.get(&g, "Q", &p).unwrap().single_int(), Some(1));
        // Any mutation bumps the epoch; the old key no longer matches.
        g.merge_node("AS", "asn", 2u32, Props::new());
        assert!(cache.get(&g, "Q", &p).is_none());
    }

    #[test]
    fn distinct_graphs_never_collide() {
        let cache = QueryCache::new(1 << 20);
        let g1 = Graph::new();
        let g2 = Graph::new();
        let p = Params::new();
        cache.insert(&g1, "Q", &p, rs(1));
        // Same text, same epoch (0), different instance: no hit.
        assert!(cache.get(&g2, "Q", &p).is_none());
        assert_eq!(cache.get(&g1, "Q", &p).unwrap().single_int(), Some(1));
    }

    #[test]
    fn params_fingerprint_distinguishes_types_and_shapes() {
        let mut a = Params::new();
        a.insert("x".into(), Value::Int(1));
        let mut b = Params::new();
        b.insert("x".into(), Value::Str("1".into()));
        let mut c = Params::new();
        c.insert("x".into(), Value::Float(1.0));
        let mut d = Params::new();
        d.insert("x".into(), Value::List(vec![Value::Int(1)]));
        let fps = [
            fingerprint(&a),
            fingerprint(&b),
            fingerprint(&c),
            fingerprint(&d),
        ];
        for (i, x) in fps.iter().enumerate() {
            for y in &fps[i + 1..] {
                assert_ne!(x, y);
            }
        }
        // Key order does not matter.
        let mut e = Params::new();
        e.insert("b".into(), Value::Int(2));
        e.insert("a".into(), Value::Int(1));
        let mut f = Params::new();
        f.insert("a".into(), Value::Int(1));
        f.insert("b".into(), Value::Int(2));
        assert_eq!(fingerprint(&e), fingerprint(&f));
    }

    #[test]
    fn lru_evicts_oldest_under_byte_pressure() {
        let g = Graph::new();
        let p = Params::new();
        let one = approx_result_bytes(&rs(0)) + 1; // weight of each entry ("A".len() == 1)
        let cache = QueryCache::new(2 * one + 1); // room for two entries
        cache.insert(&g, "A", &p, rs(1));
        cache.insert(&g, "B", &p, rs(2));
        assert_eq!(cache.len(), 2);
        // Touch A so B is the LRU victim.
        assert!(cache.get(&g, "A", &p).is_some());
        cache.insert(&g, "C", &p, rs(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&g, "A", &p).is_some());
        assert!(cache.get(&g, "B", &p).is_none());
        assert!(cache.get(&g, "C", &p).is_some());
        assert!(cache.bytes() <= 2 * one + 1);
    }

    #[test]
    fn oversized_results_are_rejected_not_destructive() {
        let g = Graph::new();
        let p = Params::new();
        let cache = QueryCache::new(64);
        let big = Arc::new(ResultSet {
            columns: vec!["s".into()],
            rows: vec![vec![RtVal::Scalar(Value::Str("x".repeat(1024)))]],
        });
        cache.insert(&g, "SMALL", &p, rs(1));
        let before = cache.len();
        cache.insert(&g, "BIG", &p, big);
        assert!(cache.get(&g, "BIG", &p).is_none());
        assert_eq!(cache.len(), before, "oversized insert must not evict");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let g = Graph::new();
        let p = Params::new();
        let cache = QueryCache::new(0);
        assert!(!cache.is_enabled());
        cache.insert(&g, "Q", &p, rs(1));
        assert!(cache.get(&g, "Q", &p).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn set_capacity_shrinks_and_disables() {
        let g = Graph::new();
        let p = Params::new();
        let cache = QueryCache::new(1 << 20);
        cache.insert(&g, "A", &p, rs(1));
        cache.insert(&g, "B", &p, rs(2));
        cache.set_capacity(0);
        assert!(cache.is_empty());
        assert!(!cache.is_enabled());
        cache.set_capacity(1 << 20);
        assert!(cache.is_enabled());
        cache.insert(&g, "A", &p, rs(1));
        assert!(cache.get(&g, "A", &p).is_some());
    }
}
