//! Documentation-page rendering.
//!
//! The real IYP repository documents its ontology and data sources as
//! Markdown pages; this module renders the same pages from the code so
//! they can never drift (see `tests/docs_in_sync.rs` and
//! `examples/gen_docs.rs`).

use std::fmt::Write as _;

/// Renders `documentation/node_types.md` (Table 6 of the paper).
pub fn node_types_md() -> String {
    let mut s = String::from(
        "# Node types (entities)\n\n\
         The IYP ontology's entity types — Table 6 of the paper. Each node\n\
         is uniquely identified by its key property.\n\n\
         | Entity | Key property | Description |\n|---|---|---|\n",
    );
    for e in iyp_ontology::entity::ALL_ENTITIES {
        writeln!(
            s,
            "| `:{}` | `{}` | {} |",
            e.label(),
            e.key_property(),
            e.description()
        )
        .expect("write to string");
    }
    s
}

/// Renders `documentation/relationship_types.md` (Table 7 of the paper).
pub fn relationship_types_md() -> String {
    let mut s = String::from(
        "# Relationship types\n\n\
         The IYP ontology's relationship types — Table 7 of the paper.\n\
         Every imported link carries the six provenance properties\n\
         (`reference_org`, `reference_name`, `reference_url_info`,\n\
         `reference_url_data`, `reference_time_modification`,\n\
         `reference_time_fetch`).\n\n\
         | Relationship | Description | Allowed node pairs |\n|---|---|---|\n",
    );
    for r in iyp_ontology::relationship::ALL_RELATIONSHIPS {
        let pairs: Vec<String> = iyp_ontology::allowed_triples(r)
            .map(|t| format!("{} → {}", t.src.label(), t.dst.label()))
            .collect();
        writeln!(
            s,
            "| `:{}` | {} | {} |",
            r.type_name(),
            r.description(),
            pairs.join("; ")
        )
        .expect("write to string");
    }
    s
}

/// Renders `documentation/data-sources.md` (Table 8 of the paper).
pub fn data_sources_md() -> String {
    let mut s = String::from(
        "# Data sources\n\n\
         The 46 datasets integrated into IYP — Table 8 of the paper. In this\n\
         reproduction every dataset is emitted by the synthetic Internet\n\
         (`iyp-simnet`) in its native wire format and parsed by its own\n\
         crawler (`iyp-crawlers`).\n\n\
         | Organization | Dataset (`reference_name`) | Frequency | Info |\n|---|---|---|---|\n",
    );
    for d in iyp_simnet::datasets::ALL_DATASETS {
        writeln!(
            s,
            "| {} | `{}` | {} | <{}> |",
            d.organization(),
            d.name(),
            d.frequency(),
            d.info_url()
        )
        .expect("write to string");
    }
    s
}

/// Renders `documentation/telemetry.md` — the observability guide.
///
/// The metric table is rendered from [`iyp_telemetry::names::ALL`] (the
/// constants every instrumented crate uses), and the EXPLAIN example is
/// produced by actually planning Listing 1 of the paper against a
/// two-node graph, so the page cannot drift from the implementation.
pub fn telemetry_md() -> String {
    let mut s = String::from(
        "# Telemetry: metrics, EXPLAIN/PROFILE, and server stats\n\n\
         The `iyp-telemetry` crate provides a zero-dependency metrics\n\
         registry (atomic counters, gauges, and log-bucketed latency\n\
         histograms) that the whole stack reports into. Recording is\n\
         disabled by default and every instrument is a no-op until\n\
         `iyp_telemetry::enable()` is called, so instrumented code paths\n\
         pay nothing in normal operation.\n\n\
         ## Query plans: `EXPLAIN` and `PROFILE`\n\n\
         Prefix any read query with `EXPLAIN` to see its plan without\n\
         running it, or with `PROFILE` to run it and annotate every\n\
         operator with the rows it produced and the wall time it took.\n\
         Both work in the CLI shell, through `iyp query`, and over the\n\
         server protocol; the plan comes back as a single-column\n\
         (`plan`) result set, one row per line. Write queries (`CREATE`,\n\
         `MERGE`, `SET`, `DELETE`) reject both keywords.\n\n\
         The plan printed is the plan that runs: the query compiles to\n\
         a chain of operators, each operator's child is its input, and\n\
         the executor walks that chain. For Listing 1 of the paper:\n\n\
         ```text\n",
    );
    let mut g = iyp_graph::Graph::new();
    let a = g.merge_node("AS", "asn", 2497u32, iyp_graph::Props::new());
    let p = g.merge_node("Prefix", "prefix", "192.0.2.0/24", iyp_graph::Props::new());
    g.create_rel(a, "ORIGINATE", p, iyp_graph::Props::new())
        .expect("sample rel");
    let listing1 = "MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN DISTINCT x.asn";
    writeln!(s, "EXPLAIN {listing1}\n").expect("write to string");
    let plan = iyp_cypher::Statement::prepare(listing1)
        .expect("parses")
        .explain(&g);
    s.push_str(&plan.render());
    s.push_str(
        "\n```\n\n\
         Operators: `ProduceResults` (projection handed to the caller),\n\
         `Projection`/`Filter`/`Unwind` (one per `WITH`/`WHERE`/`UNWIND`\n\
         clause), `Match`/`OptionalMatch` (one per clause, listing the\n\
         variables it binds), and per pattern an access operator that\n\
         finds the anchor (`BoundVariable`, `NodeIndexSeek`,\n\
         `NodeByLabelScan`, `AllNodesScan`) under an `Expand` showing\n\
         the full pattern. `PROFILE` adds `rows=N` to every operator,\n\
         and `time=`, `par=`, `chunks=` to each clause's top one.\n\n\
         ## Metric names\n\n\
         All instrumentation uses the canonical names in\n\
         `iyp_telemetry::names` (durations in seconds, Prometheus\n\
         convention):\n\n\
         | Metric | Kind | Labels | Description |\n|---|---|---|---|\n",
    );
    for (name, kind, labels, help) in iyp_telemetry::names::ALL {
        let labels = if labels.is_empty() {
            String::new()
        } else {
            format!("`{labels}`")
        };
        writeln!(s, "| `{name}` | {kind} | {labels} | {help} |").expect("write to string");
    }
    s.push_str(
        "\n`iyp build --metrics` enables the recorder for the build, then\n\
         prints per-dataset and per-refinement-pass wall times followed\n\
         by the Prometheus text exposition (`iyp_telemetry::render()`).\n\n\
         ## Server commands\n\n\
         Besides query requests, the line-delimited JSON protocol accepts\n\
         four commands:\n\n\
         - `{\"cmd\": \"ping\"}` → `{\"status\": \"pong\"}` — liveness; the\n\
         \x20\x20client performs this handshake on connect.\n\
         - `{\"cmd\": \"stats\"}` → `{\"status\": \"stats\", \"stats\": {...}}` —\n\
         \x20\x20a `graph` object (node/relationship totals plus per-label and\n\
         \x20\x20per-type counts) and a `telemetry` object (the current\n\
         \x20\x20metrics snapshot; `iyp serve` enables the recorder at\n\
         \x20\x20startup, so a live server's counters are always recording).\n\
         - `{\"cmd\": \"write\", \"query\": ..., \"params\": ...}` → a Cypher\n\
         \x20\x20write query; the `iyp_journal_*` metrics above track the\n\
         \x20\x20write-ahead log it appends to. Rejected with a `read_only`\n\
         \x20\x20error on a server started without `--journal`.\n\
         - `{\"cmd\": \"checkpoint\"}` → compacts the journal; its wall time\n\
         \x20\x20lands in `iyp_journal_checkpoint_seconds`.\n\n\
         See `documentation/durability.md` for the journal itself.\n\n\
         Malformed input never kills the connection silently: empty\n\
         lines, oversized lines (> 1 MiB, which also closes the\n\
         connection), bad JSON, and unknown commands each produce an\n\
         error response whose message starts with a stable code\n\
         (`empty_request`, `request_too_large`, `bad_json`,\n\
         `missing_query`, `unknown_command`). Queries slower than 250 ms\n\
         are counted and logged server-side.\n\n\
         For the fault-tolerant build pipeline, record quarantine, and\n\
         per-query deadlines behind the `iyp_build_*` and\n\
         `iyp_server_query_timeout_total` metrics above, see\n\
         `documentation/fault-tolerance.md`.\n",
    );
    s
}

/// Renders `documentation/durability.md` — the journal guide.
///
/// The WAL frame walkthrough is produced by actually recording a write
/// against a live graph and encoding it with the real framing code, so
/// the documented byte layout cannot drift from the implementation.
pub fn durability_md() -> String {
    let mut s = String::from(
        "# Durability: the write-ahead log and crash recovery\n\n\
         The paper's local-instance workflow (§6.1) has users *mutating*\n\
         their IYP copy — tagging studied resources, importing\n\
         confidential data — so `iyp-journal` makes writes survive\n\
         crashes without rewriting a snapshot per query. A journal\n\
         directory holds generation-numbered pairs:\n\n\
         ```text\n\
         journal/\n\
         ├── snapshot-3.bin   # binary graph snapshot, generation 3\n\
         └── wal-3.log        # writes since that snapshot\n\
         ```\n\n\
         Recovery = load `snapshot-{g}.bin` for the highest complete\n\
         generation, then replay `wal-{g}.log` on top.\n\n\
         ## Effect logging\n\n\
         Every graph mutation records its *effects* — the assigned node\n\
         and relationship IDs, whether a `MERGE` matched or created —\n\
         as a `GraphOp`, and replay applies those recorded outcomes\n\
         verbatim. Replaying `snapshot + WAL` therefore reproduces the\n\
         pre-crash graph **byte-identically, IDs included**; if a replayed\n\
         op would assign a different ID than it recorded, recovery fails\n\
         loudly rather than diverge silently.\n\n\
         ## WAL file format\n\n\
         ```text\n\
         [ 4B magic \"IYPW\" ][ 4B version u32 LE ]          file header\n\
         [ 4B len u32 LE ][ 4B crc32 u32 LE ][ payload ]   frame, repeated\n\
         ```\n\n\
         A frame's payload is one *batch* — a `u32 LE` op count followed\n\
         by binary-encoded ops — and one batch is one write query, so\n\
         replay is all-or-nothing per query. For example, the query\n\
         `MERGE (a:AS {asn: 2497}) SET a.name = 'IIJ'` against an empty\n\
         graph journals one frame:\n\n\
         ```text\n",
    );
    let mut g = iyp_graph::Graph::new();
    g.begin_recording();
    let n = g.merge_node("AS", "asn", 2497u32, iyp_graph::Props::new());
    g.set_node_prop(n, "name", iyp_graph::Value::Str("IIJ".into()))
        .expect("sample set");
    let batch = g.take_recording();
    let frame = iyp_journal::encode_frame(&batch);
    let payload = &frame[8..];
    writeln!(
        s,
        "len     = {} bytes (u32 LE)\n\
         crc32   = 0x{:08X} over the payload\n\
         payload = {} ops: {}",
        payload.len(),
        u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]),
        batch.len(),
        batch
            .iter()
            .map(|op| op.name())
            .collect::<Vec<_>>()
            .join(", ")
    )
    .expect("write to string");
    s.push_str(
        "```\n\n\
         The CRC is the reflected IEEE CRC-32 (the zlib variant),\n\
         implemented in `iyp_journal::crc`.\n\n\
         ## Fsync policy\n\n\
         `--fsync` controls when appended frames reach stable storage:\n\n\
         | Policy | Meaning | Loss window |\n|---|---|---|\n\
         | `always` (default) | fsync after every batch | none: an acknowledged write survives a power cut |\n\
         | `every=N` | fsync after every N batches | at most N acknowledged batches |\n\
         | `never` | rely on the OS flush | whatever the OS buffered |\n\n\
         ## Recovery procedure\n\n\
         On open, `DurableGraph` (and `iyp serve --journal` / `iyp\n\
         recover`):\n\n\
         1. picks the highest generation named by any snapshot or WAL;\n\
         2. loads its snapshot (an absent snapshot means generation 0,\n\
         \x20\x20\x20the empty graph);\n\
         3. replays its WAL frame by frame, stopping at the first\n\
         \x20\x20\x20incomplete header, bad length, or CRC mismatch — the **torn\n\
         \x20\x20\x20tail** left by a crash mid-append — and truncates the file\n\
         \x20\x20\x20back to the last valid frame so it is append-ready again;\n\
         4. deletes stale `*.tmp` files and older generations.\n\n\
         A frame whose CRC passes but whose payload fails to decode is\n\
         *not* a torn tail — the bytes are intact but unintelligible —\n\
         and recovery fails loudly instead of dropping data.\n\n\
         ## Checkpointing\n\n\
         `checkpoint()` compacts the journal: it fsyncs the current WAL,\n\
         writes `snapshot-{g+1}.bin` via a temp file + atomic rename +\n\
         directory fsync, creates an empty `wal-{g+1}.log`, and only then\n\
         deletes generation `g`. Every intermediate crash point leaves\n\
         one complete generation on disk, so a kill mid-checkpoint\n\
         recovers either the old or the new generation — never neither.\n\n\
         ## Serving writes\n\n\
         ```text\n\
         iyp build --scale small --journal journal/   # seed generation 1\n\
         iyp serve --journal journal/ [--fsync always]\n\
         iyp recover --journal journal/ [--out graph.bin]\n\
         ```\n\n\
         A journaled server accepts `{\"cmd\": \"write\", \"query\": ...}`\n\
         (Cypher `CREATE`/`MERGE`/`SET`/`DELETE`, executed under an\n\
         exclusive lock while readers run concurrently, journaled as one\n\
         batch) and `{\"cmd\": \"checkpoint\"}`. A server started without\n\
         `--journal` rejects both with a `read_only` error. `iyp\n\
         recover` replays, reports (generations, replayed ops, torn\n\
         bytes), compacts, and optionally exports a plain snapshot.\n\n\
         Journal activity is observable through the `iyp_journal_*`\n\
         metrics — see `documentation/telemetry.md`.\n",
    );
    s
}

/// Renders `documentation/query-engine.md` — the read-path guide.
///
/// The anchor-classification examples are produced by actually planning
/// queries against a sample graph, and the thread/partition defaults
/// are read from the engine's constants, so the page cannot drift from
/// the implementation.
pub fn query_engine_md() -> String {
    let mut s = String::from(
        "# Query engine: anchors, typed adjacency, and parallel execution\n\n\
         How `iyp-cypher` executes the read path, and the knobs that\n\
         control it. For plan inspection (`EXPLAIN`/`PROFILE`) see\n\
         `documentation/telemetry.md`; for the epoch-keyed result\n\
         cache that can skip this whole pipeline on a repeat query,\n\
         see `documentation/query-cache.md`.\n\n\
         ## Anchor classification\n\n\
         Each `MATCH` pattern starts from one *anchor* node, chosen per\n\
         pattern in strict preference order:\n\n\
         1. `BoundVariable` — a variable already bound by an earlier\n\
         \x20\x20\x20clause; candidates are exactly that binding.\n\
         2. `NodeIndexSeek` — a label plus its unique-key property\n\
         \x20\x20\x20(e.g. `(:AS {asn: 2497})`) resolves through the unique-key\n\
         \x20\x20\x20index to at most one node.\n\
         3. `NodeByLabelScan` — a label alone scans only that label's\n\
         \x20\x20\x20nodes.\n\
         4. `AllNodesScan` — no label, no binding: every node.\n\n\
         Ties keep the earlier node. The choice is made once per run,\n\
         when the statement compiles against the graph with the\n\
         variables in scope (`WITH` resets them to its aliases), and\n\
         the executor reads it; `EXISTS { … }` patterns choose against\n\
         each outer row's bindings. Writing the selective end of a\n\
         pattern first is not required. Against a sample graph:\n\n\
         ```text\n",
    );
    let mut g = iyp_graph::Graph::new();
    let a = g.merge_node("AS", "asn", 2497u32, iyp_graph::Props::new());
    let p = g.merge_node("Prefix", "prefix", "192.0.2.0/24", iyp_graph::Props::new());
    g.create_rel(a, "ORIGINATE", p, iyp_graph::Props::new())
        .expect("sample rel");
    for q in [
        "MATCH (a:AS {asn: 2497})-[:ORIGINATE]-(p:Prefix) RETURN p.prefix",
        "MATCH (a:AS)-[:ORIGINATE]-(p) RETURN count(*)",
        "MATCH (n) RETURN count(n)",
        "MATCH (a:AS) WITH count(a) AS c MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN c, count(p)",
    ] {
        writeln!(s, "EXPLAIN {q}\n").expect("write to string");
        let plan = iyp_cypher::Statement::prepare(q)
            .expect("parses")
            .explain(&g);
        s.push_str(&plan.render());
        s.push('\n');
    }
    s.push_str(
        "```\n\n\
         ## Typed adjacency\n\n\
         Every node keeps, besides its plain adjacency (relationship ids\n\
         in creation order), a per-relationship-type index: a sorted\n\
         `(type, rel ids)` list per direction. A typed expansion like\n\
         `-[:ORIGINATE]-` reads exactly the matching list, so it costs\n\
         O(degree-of-that-type) instead of a scan of the node's whole\n\
         adjacency — on a hub with 50k `ORIGINATE` edges and 16\n\
         `CATEGORIZED` edges, expanding `-[:CATEGORIZED]-` touches 16\n\
         entries (`graph_engine/hub_expand_rare_type` in the bench suite\n\
         measures this). Iteration order is identical to the old\n\
         filter-scan (rel ids in creation order, outgoing before\n\
         incoming), so results are unchanged.\n\n\
         The typed index is **not** serialized: snapshots keep their\n\
         format and are bit-identical to before; `from_parts` rebuilds\n\
         the index on load.\n\n\
         ## Parallel execution\n\n",
    );
    writeln!(
        s,
        "Large read stages run on scoped worker threads over `&Graph`:\n\
         anchor-candidate sets and input-row sets in `MATCH`, predicate\n\
         evaluation in `WHERE`, and per-row projection/group-key\n\
         evaluation in `RETURN`/`WITH`. A stage splits its items into at\n\
         most `threads` contiguous chunks (only when it has at least\n\
         {} items — below that, spawning costs more than it saves),\n\
         runs one chunk on the calling thread and the rest on spawned\n\
         workers, and merges the chunk outputs **in chunk order**.",
        iyp_cypher::par::DEFAULT_MIN_PARTITION
    )
    .expect("write to string");
    s.push_str(
        "\nBecause chunks are contiguous and merged in order — and\n\
         grouping keys are structural (`GroupKey`), not rendered strings\n\
         — a parallel run returns byte-identical results to a serial\n\
         run: same columns, same rows, same order, same first error.\n\
         `crates/cypher/tests/par_equivalence.rs` holds that property\n\
         over random graphs and query shapes. Workers never\n\
         re-parallelise: nested stages (multi-pattern `MATCH`, `EXISTS`\n\
         subqueries) inside a worker run serially.\n\n\
         `PROFILE` annotates parallel clauses with `par=<threads>` and\n\
         `chunks=<rows per chunk>`, e.g.\n\
         `[rows=5176 time=15.9ms par=4 chunks=1294/1294/1294/1294]`,\n\
         and three metrics observe the machinery:\n\n",
    );
    for name in [
        iyp_telemetry::names::CYPHER_PARALLEL_CHUNKS_TOTAL,
        iyp_telemetry::names::CYPHER_WORKER_SECONDS,
        iyp_telemetry::names::CYPHER_GROUP_KEYS_TOTAL,
    ] {
        let (_, kind, _, help) = iyp_telemetry::names::ALL
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("metric registered");
        writeln!(s, "- `{name}` ({kind}) — {help}.").expect("write to string");
    }
    s.push_str(
        "\n## Thread configuration\n\n\
         The engine uses the host's available parallelism, capped at 8\n\
         and resolved once per process; there is no flag or environment\n\
         variable for it. A single-core host therefore runs serially,\n\
         since threads only help when cores do. Tests and benches pin a\n\
         serial reference in process with `iyp_cypher::set_threads`.\n\
         The server additionally caps in-flight\n\
         connection handlers (`--max-conns`, default 64); connections\n\
         over the cap get a structured `busy` error and are counted in\n",
    );
    writeln!(s, "`{}`.", iyp_telemetry::names::SERVER_BUSY_REJECTED_TOTAL)
        .expect("write to string");
    s
}

/// Renders `documentation/query-cache.md` — the caching guide.
///
/// The `PROFILE` walkthrough is produced by actually running the same
/// prepared statement twice against a live cache (so the rendered
/// `cache=miss`/`cache=hit` annotations are the executor's real
/// output), and the metric list is rendered from
/// [`iyp_telemetry::names::ALL`], so the page cannot drift from the
/// implementation.
pub fn query_cache_md() -> String {
    let mut s = String::from(
        "# Query cache: epoch-keyed results behind prepared statements\n\n\
         `iyp-cypher` caches parsed queries and full result sets so a\n\
         hot read query is served without parsing, planning, or\n\
         executing anything. Correctness does not depend on explicit\n\
         invalidation: cache keys embed the graph's *epoch*, so any\n\
         write makes every prior entry unreachable. This page covers\n\
         the keying rules, sizing, and how to migrate to the\n\
         `Statement` API that fronts the cache. For the read path\n\
         itself see `documentation/query-engine.md`.\n\n\
         ## Cache keying\n\n\
         A result-set entry is keyed by the 4-tuple:\n\n\
         1. **graph id** — a process-unique identity minted when the\n\
         \x20\x20\x20`Graph` is created (and minted *fresh* when a graph is\n\
         \x20\x20\x20rebuilt from a snapshot or a journal reopen), so two\n\
         \x20\x20\x20graph instances can never collide on each other's\n\
         \x20\x20\x20entries;\n\
         2. **epoch** — a monotonic counter the graph bumps on *every*\n\
         \x20\x20\x20mutation;\n\
         3. **query text** — verbatim;\n\
         4. **params fingerprint** — a canonical, type-tagged encoding\n\
         \x20\x20\x20of the parameter map (sorted by key; `1` the int, `1.0`\n\
         \x20\x20\x20the float, and `\"1\"` the string all fingerprint\n\
         \x20\x20\x20differently).\n\n\
         Parsed ASTs are cached separately, keyed by query text alone —\n\
         an AST is graph-independent, so `Statement::prepare` of a\n\
         previously seen query skips the parser on any graph.\n\n\
         ## Epoch rules\n\n\
         - Every mutation bumps the epoch: node/relationship creation,\n\
         \x20\x20merges that change anything, property sets, label adds,\n\
         \x20\x20and deletes.\n\
         - Journal replay goes through the same mutation path, so\n\
         \x20\x20recovery bumps the epoch once per replayed op —\n\
         \x20\x20`DurableGraph::epoch()` exposes the current value.\n\
         - A reopened journal (or a snapshot load) additionally gets a\n\
         \x20\x20fresh graph id, so entries cached against the previous\n\
         \x20\x20incarnation can never be served, even if the op counts\n\
         \x20\x20happen to line up.\n\n\
         Stale entries are therefore never *returned*; they age out of\n\
         the LRU under byte pressure.\n\n\
         ## Sizing and modes\n\n\
         The cache is byte-bounded LRU: each entry is charged its\n\
         approximate result-set size plus the query text, and inserting\n\
         past the bound evicts the least-recently-used entries. A\n\
         single result larger than the whole bound is rejected (the\n\
         cache keeps what it has rather than flushing itself for one\n\
         oversized answer).\n\n\
         - `iyp serve --cache-mb N` sizes a per-server cache. Cache\n\
         \x20\x20hits skip execution but still honor `--query-timeout`: a\n\
         \x20\x20request arriving past its deadline reports `timeout:` even\n\
         \x20\x20when the answer is sitting in the cache.\n\
         - `iyp query --cache-mb N` / `iyp profile --cache-mb N` size\n\
         \x20\x20the process-global cache used by ad-hoc runs; the\n\
         \x20\x20`IYP_QUERY_CACHE_MB` environment variable does the same.\n\
         - Capacity 0 (the default everywhere) disables caching\n\
         \x20\x20entirely: lookups return immediately and count neither\n\
         \x20\x20hits nor misses.\n\n\
         ## `PROFILE` shows the cache\n\n\
         When a cache is in play, `PROFILE` annotates the plan root\n\
         with `cache=miss` (executed, result stored) or `cache=hit`\n\
         (served from the cache; per-operator rows/timings are absent\n\
         because nothing ran). Running the same prepared statement\n\
         twice:\n\n\
         ```text\n",
    );
    let mut g = iyp_graph::Graph::new();
    for asn in [2497u32, 64496, 64497] {
        g.merge_node("AS", "asn", asn, iyp_graph::Props::new());
    }
    let cache = iyp_cypher::QueryCache::new(1 << 20);
    let stmt = iyp_cypher::Statement::prepare("MATCH (a:AS) RETURN count(a)")
        .expect("sample query parses")
        .cache(&cache);
    for pass in ["first run", "second run"] {
        let (_, plan) = stmt.profile(&g).expect("sample query profiles");
        writeln!(s, "PROFILE MATCH (a:AS) RETURN count(a)   -- {pass}\n").expect("write to string");
        // Wall times vary run to run; elide them so the page is
        // reproducible (everything else is the executor's raw output).
        for line in plan.render().lines() {
            let elided: Vec<String> = line
                .split(' ')
                .map(|tok| match tok.strip_prefix("time=") {
                    Some(rest) => format!("time=…{}", if rest.ends_with(']') { "]" } else { "" }),
                    None => tok.to_string(),
                })
                .collect();
            writeln!(s, "{}", elided.join(" ")).expect("write to string");
        }
        s.push('\n');
    }
    s.push_str(
        "```\n\n\
         Without a cache the annotation is absent, so existing `PROFILE`\n\
         output is unchanged for anyone not opting in.\n\n\
         ## Telemetry\n\n\
         Four instruments observe the cache (all in\n\
         `iyp_telemetry::names`, documented in\n\
         `documentation/telemetry.md`):\n\n",
    );
    for name in [
        iyp_telemetry::names::CYPHER_CACHE_HITS_TOTAL,
        iyp_telemetry::names::CYPHER_CACHE_MISSES_TOTAL,
        iyp_telemetry::names::CYPHER_CACHE_EVICTIONS_TOTAL,
        iyp_telemetry::names::CYPHER_CACHE_BYTES,
    ] {
        let (_, kind, _, help) = iyp_telemetry::names::ALL
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("metric registered");
        writeln!(s, "- `{name}` ({kind}) — {help}.").expect("write to string");
    }
    s.push_str(
        "\n## Statement API\n\n\
         Reads go through one prepared-statement builder:\n\n\
         ```text\n\
         Statement::prepare(text)?          // parse once (AST cache)\n\
         \x20\x20\x20\x20.params(&params)               // $name placeholders\n\
         \x20\x20\x20\x20.cancel(&cancel)               // deadline, polled per row\n\
         \x20\x20\x20\x20.cache(&cache) | .no_cache()   // pick or skip a result cache\n\
         \x20\x20\x20\x20.run(&g) | .run_shared(&g) | .explain(&g) | .profile(&g)\n\
         ```\n\n\
         `run_shared` returns `Arc<ResultSet>`, so a cache hit is\n\
         returned without cloning the rows. Prepared statements are\n\
         reusable across graphs and parameter sets. Writes go through\n\
         `query_write(&mut g, text, &params)`, which parses through the\n\
         same AST cache and never consults a result cache.\n\n\
         On the client side, `Client::query` now returns a typed\n\
         `Result<Table, ClientError>`: a `Table` carries columns plus\n\
         JSON rows, and a `ClientError` carries a stable `code()`\n\
         (`busy`, `timeout`, `read_only`, `query`, ...) with the\n\
         human-readable `detail()` separated out. The low-level\n\
         `Client::request` API is unchanged for protocol-level work.\n",
    );
    s
}

/// Renders `documentation/fault-tolerance.md` — the robustness guide.
///
/// The fault-model table is rendered from [`iyp_simnet::FaultKind::ALL`],
/// and the quarantine/retry defaults are read from
/// `ImportPolicy::default()` and `BuildOptions::default()`, so the page
/// cannot drift from the implementation.
pub fn fault_tolerance_md() -> String {
    let mut s = String::from(
        "# Fault tolerance: chaos injection, quarantine, and query deadlines\n\n\
         The production IYP ingests 46 community feeds it does not\n\
         control: feeds truncate mid-transfer, carry malformed rows, and\n\
         fail transiently. This page documents how the reproduction\n\
         survives all of that — and how to inject those faults on\n\
         purpose. For the metrics the machinery reports, see\n\
         `documentation/telemetry.md`.\n\n\
         ## The fault model (`iyp_simnet::chaos`)\n\n\
         A `FaultPlan` is a seeded, deterministic assignment of faults\n\
         to datasets: the same seed always corrupts the same datasets in\n\
         the same way, so every chaos failure is reproducible. Text\n\
         corruptions are applied to the rendered dataset before its\n\
         crawler parses it:\n\n\
         | Corruption | Effect |\n|---|---|\n",
    );
    for k in iyp_simnet::FaultKind::ALL {
        writeln!(s, "| `{}` | {} |", k.name(), k.description()).expect("write to string");
    }
    let opts = iyp_pipeline::BuildOptions::default();
    let policy = iyp_crawlers::ImportPolicy::default();
    writeln!(
        s,
        "\nFetch faults model the network instead of the payload: a\n\
         *transient* fault fails the first N simulated fetch attempts\n\
         and then succeeds, a *hard* fault fails every attempt.\n\n\
         `FaultPlan::generate(seed, targets)` draws a random plan;\n\
         `iyp build --chaos SEED` runs a full build under one.\n\n\
         ## Per-dataset isolation (`iyp-pipeline`)\n\n\
         `build_graph` treats every dataset as its own failure domain.\n\
         A dataset that panics while rendering or importing, or that\n\
         exhausts its retries or error budget, is recorded in the\n\
         `BuildReport` — `failed` (render/import errors, with cause and\n\
         retry count) or `skipped` (fetch never succeeded) — and the\n\
         build moves on to the next dataset instead of aborting.\n\
         Transient fetch failures are retried up to {} times with\n\
         exponential backoff starting at {} ms; parse errors are never\n\
         retried (the same bytes would fail the same way). Links a\n\
         failed dataset created before failing stay in the graph —\n\
         imports are best-effort, not transactional — and the report\n\
         says exactly which datasets are affected.\n\n\
         ## Record quarantine (`iyp-crawlers`)\n\n\
         Importers parse record-by-record. A malformed record is\n\
         *quarantined* — skipped, counted, and sampled into the build\n\
         report — instead of failing the dataset, until the error\n\
         budget is exhausted: by default {} malformed records are\n\
         always tolerated, and beyond that the dataset fails once more\n\
         than {}% of its records are bad. `ImportPolicy::strict()`\n\
         restores the old any-error-is-fatal behaviour. Parse errors\n\
         carry the 1-based line number and a clipped excerpt of the\n\
         offending input, so a quarantine sample like\n\n\
         ```text\n\
         tranco.top1m: parse error at line 7: bad rank (input: \"x,example.com\")\n\
         ```\n\n\
         points at the exact row to inspect.\n\n\
         ## Query deadlines (`iyp-cypher` + `iyp-server`)\n\n\
         The executor threads a cooperative `Cancel` token through\n\
         every row loop — serial and parallel workers alike, including\n\
         the pattern-expansion work stacks — and polls it once per row,\n\
         so a runaway query stops within one row's worth of work. A\n\
         query run without a token pays a single `Option` check per\n\
         row and returns byte-identical results to the pre-deadline\n\
         engine.\n\n\
         `iyp serve --query-timeout SECS` enforces a wall-clock\n\
         deadline per read query: an over-deadline query is cancelled\n\
         at a row boundary and the client receives one structured\n\
         error line starting with `timeout:`; the connection stays\n\
         usable. The busy-rejection path (`--max-conns`) and the\n\
         timeout path share one structured-rejection write path, so\n\
         the wire format cannot diverge. Write queries are exempt:\n\
         they hold the exclusive journal lock and run to completion or\n\
         not at all.\n\n\
         ## Observability\n\n\
         Four counters track the machinery (all in\n\
         `iyp_telemetry::names`, documented in\n\
         `documentation/telemetry.md`):\n",
        opts.max_retries,
        opts.retry_backoff.as_millis(),
        policy.min_quarantined,
        policy.error_budget_pct,
    )
    .expect("write to string");
    s.push('\n');
    for name in [
        iyp_telemetry::names::BUILD_QUARANTINED_RECORDS_TOTAL,
        iyp_telemetry::names::BUILD_RETRIES_TOTAL,
        iyp_telemetry::names::BUILD_FAILED_DATASETS_TOTAL,
        iyp_telemetry::names::SERVER_QUERY_TIMEOUT_TOTAL,
    ] {
        let (_, kind, _, help) = iyp_telemetry::names::ALL
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("metric registered");
        writeln!(s, "- `{name}` ({kind}) — {help}.").expect("write to string");
    }
    s.push_str(
        "\nThe chaos CI job (`.github/workflows/ci.yml`) runs a\n\
         fixed-seed chaos build plus a property test over random fault\n\
         plans on every push, so the isolation guarantees above are\n\
         continuously exercised.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_render_with_expected_row_counts() {
        let nodes = node_types_md();
        assert_eq!(nodes.lines().filter(|l| l.starts_with("| `:")).count(), 24);
        let rels = relationship_types_md();
        assert_eq!(rels.lines().filter(|l| l.starts_with("| `:")).count(), 24);
        let sources = data_sources_md();
        assert_eq!(
            sources
                .lines()
                .filter(|l| l.starts_with("| ") && l.contains('`'))
                .count(),
            47 // header separator excluded; 46 datasets + the header row with backticks
        );
        assert!(sources.contains("bgpkit.pfx2as"));
        assert!(rels.contains("ROUTE_ORIGIN_AUTHORIZATION"));
        assert!(nodes.contains("AuthoritativeNameServer"));
    }

    #[test]
    fn telemetry_page_documents_every_metric_and_a_real_plan() {
        let page = telemetry_md();
        for (name, kind, _, _) in iyp_telemetry::names::ALL {
            assert!(
                page.contains(&format!("| `{name}` | {kind} |")),
                "{name} missing"
            );
        }
        // The embedded plan is the planner's real output, rooted as usual.
        assert!(page.contains("ProduceResults"));
        assert!(page.contains("NodeByLabelScan") || page.contains("AllNodesScan"));
    }

    #[test]
    fn fault_tolerance_page_documents_model_and_defaults() {
        let page = fault_tolerance_md();
        for k in iyp_simnet::FaultKind::ALL {
            assert!(page.contains(&format!("`{}`", k.name())), "{k:?} missing");
        }
        // Defaults are rendered from the code, not hard-coded.
        let policy = iyp_crawlers::ImportPolicy::default();
        assert!(page.contains(&format!("{}% of its records", policy.error_budget_pct)));
        assert!(page.contains("iyp_server_query_timeout_total"));
        assert!(page.contains("timeout:"));
        assert!(page.contains("--chaos"));
    }

    #[test]
    fn query_cache_page_embeds_a_real_miss_then_hit() {
        let page = query_cache_md();
        // The walkthrough comes from actually profiling the same
        // statement twice against a live cache.
        assert!(page.contains("cache=miss"));
        assert!(page.contains("cache=hit"));
        // Wall times are elided so the page is reproducible.
        assert!(!page.contains("time=0."));
        for name in [
            iyp_telemetry::names::CYPHER_CACHE_HITS_TOTAL,
            iyp_telemetry::names::CYPHER_CACHE_MISSES_TOTAL,
            iyp_telemetry::names::CYPHER_CACHE_EVICTIONS_TOTAL,
            iyp_telemetry::names::CYPHER_CACHE_BYTES,
        ] {
            assert!(page.contains(&format!("`{name}`")), "{name} missing");
        }
        // The Statement API section names every builder step.
        for step in [
            "Statement::prepare(",
            ".params(",
            ".cancel(",
            ".no_cache()",
            ".run_shared(",
            ".explain(",
            ".profile(",
            "query_write(",
        ] {
            assert!(page.contains(step), "{step} missing from the API section");
        }
        // And the read-path page points here.
        assert!(query_engine_md().contains("documentation/query-cache.md"));
    }

    #[test]
    fn durability_page_embeds_a_real_frame() {
        let page = durability_md();
        // The frame walkthrough comes from the real recorder + framing
        // code: a MERGE that creates plus a SET is two ops.
        assert!(page.contains("payload = 2 ops: merge_node, set_node_prop"));
        assert!(page.contains("crc32   = 0x"));
        assert!(page.contains("torn"));
        for policy in ["`always` (default)", "`every=N`", "`never`"] {
            assert!(page.contains(policy), "{policy} missing");
        }
    }
}
