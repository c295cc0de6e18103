//! The three workloads. Each builds its snapshot with `iyp build`,
//! spawns `iyp serve` (set-up), warms up, runs a closed-loop timed
//! window over loopback TCP, reads the server's counters, and checks
//! every output against the in-process engine; `journal_mixed` also
//! SIGKILLs and respawns its server (recovery). With `--trace 1` it adds
//! a traced replay and the in-process build breakdown.

use crate::check::{self, expected_digest, one_line};
use crate::procs::{Iyp, Served};
use crate::streams::{
    self, int_key, LookupKeys, LookupStream, Population, Write, WriteStream, Q_READ_BACK,
};
use crate::trace::Tracer;
use crate::util::{fnv64, median, Dist, Report, Rng};
use iyp_cypher::{QueryCache, Statement};
use iyp_graph::Graph;
use iyp_journal::{DurableGraph, FsyncPolicy};
use iyp_server::{encode_value, Client, ClientError, Command, Request, Response};
use serde_json::{json, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// `iyp serve` spawns per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 5;
/// Result cache of the lookup server: 1 MiB, below the lookup working
/// set (every AS, prefix, domain and hostname of the default snapshot).
const LOOKUP_CACHE_MB: usize = 1;
/// Result cache of the journaled server: holds its whole working set,
/// but every write bumps the epoch and so flushes it.
const JOURNAL_CACHE_MB: usize = 4;
/// Writes between two `checkpoint` commands in `journal_mixed`.
const CHECKPOINT_EVERY: u64 = 40;
/// Writes acknowledged after the final checkpoint and before SIGKILL:
/// exactly what recovery replays.
const TAIL_WRITES: usize = 40;
/// SIGKILL-and-respawn cycles per `journal_mixed` run.
const RECOVERIES: usize = 3;
/// Untimed analytics requests before the window.
const ANALYTICS_WARMUP: usize = 3;
/// Fewest whole analytics rounds in the window (105 timed requests, so
/// ten lie beyond p90; about 50 s).
const ANALYTICS_ROUNDS: u64 = 7;
/// Requests per lookup stream whose answers form the recorded digest.
const DIGEST_REQUESTS: usize = 100;

/// Server counters read from `STATS` around the timed window. A counter
/// missing from `STATS` is reported as absent, never as zero.
const COUNTERS: [&str; 10] = [
    "iyp_cypher_cache_hits_total",
    "iyp_cypher_cache_misses_total",
    "iyp_cypher_cache_evictions_total",
    "iyp_journal_append_bytes_total",
    "iyp_journal_fsyncs_total",
    "iyp_server_busy_rejected_total",
    "iyp_server_query_timeout_total",
    "iyp_server_slow_queries_total",
    "iyp_cypher_parallel_chunks_total",
    "iyp_cypher_worker_seconds",
];

/// State and results of one benchmark run.
pub struct Run {
    pub iyp: Iyp,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Run {
    fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            eprintln!("output check: {what}");
        }
        self.mismatches.push(what);
    }

    /// Builds the workload's snapshot with the binary under test, then
    /// reads and decodes it in-process for the reference answers.
    fn build_and_load(&mut self, scale: &str) -> Result<(PathBuf, Graph), String> {
        let path = self.work.join("snapshot.bin");
        let built = self.iyp.build(scale, self.seed, &path)?;
        let r = &mut self.report;
        r.add("build_s", built.secs, "s", 1);
        r.add("snapshot_mb", built.snapshot_bytes as f64 / 1e6, "MB", 1);
        r.add("build_peak_rss_mb", built.peak_rss_mb, "MiB", 1);
        let t = Instant::now();
        let bytes = std::fs::read(&path).map_err(|e| format!("read snapshot: {e}"))?;
        r.add("graph.snapshot_read_s", t.elapsed().as_secs_f64(), "s", 1);
        let t = Instant::now();
        let graph = iyp_graph::snapshot::from_binary(&bytes).map_err(|e| e.to_string())?;
        r.add("graph.snapshot_decode_s", t.elapsed().as_secs_f64(), "s", 1);
        r.line(format!(
            "info graph scale={scale} seed={} nodes={} rels={} snapshot_bytes={}",
            self.seed,
            graph.node_count(),
            graph.rel_count(),
            built.snapshot_bytes
        ));
        Ok((path, graph))
    }

    /// Spawns the server `SETUP_SPAWNS` times (calling `fresh` before
    /// each spawn) and keeps the last one running.
    fn setup(&mut self, args: &[String], mut fresh: impl FnMut(usize)) -> Result<Served, String> {
        let mut secs = Vec::new();
        let mut kept = None;
        for i in 0..SETUP_SPAWNS {
            drop(kept.take());
            fresh(i);
            let (served, s) = self.iyp.serve(args, &format!("serve-{i}.log"))?;
            secs.push(s);
            kept = Some(served);
        }
        self.report.add_note(
            "setup_s",
            median(&secs),
            "s",
            secs.len(),
            format!("spawns={}", fmt_list(&secs)),
        );
        Ok(kept.expect("at least one spawn"))
    }

    /// SIGKILLs the server and respawns it with the same arguments to
    /// its first PONG. Recovery never writes, so each respawn redoes the
    /// same work; `recover_s` is the median of `RECOVERIES` cycles.
    fn recover(&mut self, mut served: Served, args: &[String]) -> Result<Served, String> {
        let mut secs = Vec::new();
        for i in 0..RECOVERIES {
            served.kill();
            let (s, t) = self.iyp.serve(args, &format!("serve-recovered-{i}.log"))?;
            served = s;
            secs.push(t);
        }
        self.report.add_note(
            "recover_s",
            median(&secs),
            "s",
            secs.len(),
            format!("respawns={}", fmt_list(&secs)),
        );
        Ok(served)
    }

    fn tally(&mut self, log: &ConnLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        for (code, n) in &log.errors {
            self.report.line(format!("error code={code} count={n}"));
        }
    }

    fn check_digest(&mut self, workload: &str, digest: u64) {
        self.report.line(format!(
            "digest {workload} seed={} {digest:016x}",
            self.seed
        ));
        if let Some(recorded) = check::recorded_digest(workload, self.seed) {
            if recorded != digest {
                self.mismatch(format!(
                    "{workload}: in-process answers digest {digest:016x}, recorded {recorded:016x}"
                ));
            } else {
                self.report
                    .line(format!("check {workload} recorded digest matches"));
            }
        }
    }
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// What one client connection saw.
#[derive(Default)]
struct ConnLog {
    lat: Dist,
    by_class: BTreeMap<&'static str, Dist>,
    /// Each request with the digest of its answer or its error code.
    results: Vec<(&'static str, Request, Result<u64, String>)>,
    attempted: u64,
    failed: u64,
    errors: BTreeMap<String, u64>,
    /// Seconds spent digesting answers, excluded from the window.
    paused: f64,
    end: Option<Instant>,
}

impl ConnLog {
    fn merge(&mut self, other: ConnLog) {
        self.lat.extend(&other.lat);
        for (k, d) in other.by_class {
            self.by_class.entry(k).or_default().extend(&d);
        }
        self.results.extend(other.results);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, n) in other.errors {
            *self.errors.entry(k).or_default() += n;
        }
        self.paused = self.paused.max(other.paused);
        self.end = self.end.max(other.end);
    }

    /// Records one read: latency (when `timed`), then the answer's digest
    /// (time excluded from the window).
    fn record_read(
        &mut self,
        class: &'static str,
        req: Request,
        secs: f64,
        r: Result<iyp_server::Table, String>,
        timed: bool,
    ) {
        self.attempted += 1;
        let t = Instant::now();
        let outcome = match r {
            Ok(table) => {
                if timed {
                    self.lat.push(secs);
                    self.by_class.entry(class).or_default().push(secs);
                }
                Ok(check::digest(&req.query, &table.columns, &table.rows))
            }
            Err(code) => {
                self.failed += 1;
                *self.errors.entry(code.clone()).or_default() += 1;
                Err(code)
            }
        };
        self.results.push((class, req, outcome));
        self.paused += t.elapsed().as_secs_f64();
        self.end = Some(Instant::now());
    }
}

/// A connection that reconnects after a transport error.
struct Conn {
    addr: String,
    client: Option<Client>,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            client: None,
        }
    }

    fn client(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            let client = Client::connect(self.addr.as_str()).map_err(|e| {
                // A connection above the server's cap gets a `busy` error
                // line where the connect handshake expects its PONG.
                if e.to_string().contains("busy:") {
                    ClientError::Busy(e.to_string())
                } else {
                    ClientError::Io(e)
                }
            })?;
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("connected"))
    }

    /// Sends a read; returns the client-observed seconds and the answer
    /// or an error code. Any error (busy, timeout, refused, transport)
    /// counts as failed.
    fn read(&mut self, req: &Request) -> (f64, Result<iyp_server::Table, String>) {
        let t = Instant::now();
        let r = self.client().and_then(|c| c.query_request(req));
        let secs = t.elapsed().as_secs_f64();
        if matches!(r, Err(ClientError::Io(_))) {
            self.client = None;
        }
        (secs, r.map_err(|e| e.code().to_string()))
    }

    /// Sends a write; an answer other than `written` counts as failed.
    fn write(&mut self, req: &Request) -> (f64, Result<Response, String>) {
        let t = Instant::now();
        let r = self.client().and_then(|c| Ok(c.write_request(req)?));
        let secs = t.elapsed().as_secs_f64();
        let r = match r {
            Ok(resp @ Response::Written { .. }) => Ok(resp),
            Ok(Response::Error(msg)) => Err(msg.split(':').next().unwrap_or("error").to_string()),
            Ok(other) => Err(format!("unexpected {other:?}")),
            Err(e) => {
                self.client = None;
                Err(e.code().to_string())
            }
        };
        (secs, r)
    }
}

/// In-process reference digests, computed once per distinct request
/// line and always outside the timed windows.
struct Expected<'g> {
    graph: &'g Graph,
    digests: HashMap<String, u64>,
}

impl<'g> Expected<'g> {
    fn new(graph: &'g Graph) -> Self {
        Expected {
            graph,
            digests: HashMap::new(),
        }
    }

    fn digest(&mut self, req: &Request) -> Result<u64, String> {
        let line = Command::Query(req.clone()).to_line();
        if let Some(d) = self.digests.get(&line) {
            return Ok(*d);
        }
        let d = expected_digest(self.graph, req)?;
        self.digests.insert(line, d);
        Ok(d)
    }
}

/// Compares every recorded answer with the in-process reference.
fn check_results(run: &mut Run, expected: &mut Expected, log: &ConnLog) -> Result<(), String> {
    let mut checked = 0usize;
    for (class, req, outcome) in &log.results {
        let Ok(got) = outcome else { continue };
        checked += 1;
        if *got != expected.digest(req)? {
            run.mismatch(format!(
                "{class}: answer to {} differs from the in-process result",
                one_line(&Command::Query(req.clone()).to_line())
            ));
        }
    }
    run.report.line(format!(
        "check answers={checked} distinct_requests={} mismatches={}",
        expected.digests.len(),
        run.mismatches.len()
    ));
    Ok(())
}

/// Counter values from `STATS`; `None` when the server no longer
/// exports the counter.
fn counters(served: &Served) -> Result<BTreeMap<&'static str, Option<f64>>, String> {
    let stats = served
        .client()?
        .stats()
        .map_err(|e| format!("STATS: {e}"))?;
    let telemetry = &stats["telemetry"];
    Ok(COUNTERS
        .iter()
        .map(|&name| {
            let v = &telemetry[name];
            let n = v.as_f64().or_else(|| v["count"].as_f64());
            (name, n)
        })
        .collect())
}

/// Reports each counter's growth over the window, and the cache hit
/// ratio with its base.
fn report_counters(
    run: &mut Run,
    before: &BTreeMap<&'static str, Option<f64>>,
    after: &BTreeMap<&'static str, Option<f64>>,
) {
    let delta = |name: &str| match (
        before.get(name).copied().flatten(),
        after.get(name).copied().flatten(),
    ) {
        (Some(b), Some(a)) => Some(a - b),
        (None, Some(a)) => Some(a),
        _ => None,
    };
    for name in COUNTERS {
        run.report.line(match delta(name) {
            Some(d) => format!("stat {name} window_delta={d}"),
            None => format!("stat {name} absent"),
        });
    }
    // The server registers a counter on its first increment, so a cache
    // that never hit (or a server without a cache) exports no counter:
    // the ratio counts it as 0 of its base, and the `stat` lines above
    // still say which counters were absent.
    let hits = delta("iyp_cypher_cache_hits_total").unwrap_or(0.0);
    let base = hits + delta("iyp_cypher_cache_misses_total").unwrap_or(0.0);
    run.report.add_note(
        "cypher.cache_hit_ratio",
        if base > 0.0 { hits / base } else { 0.0 },
        "ratio",
        base as usize,
        format!("hits={hits} of lookups={base}"),
    );
}

fn report_window(run: &mut Run, log: &mut ConnLog, started: Instant, extra_ops: u64) {
    let end = log.end.unwrap_or_else(Instant::now);
    let window = (end - started).as_secs_f64() - log.paused;
    let completed = log.lat.len() as u64 + extra_ops;
    run.report.add_note(
        "ops_per_s",
        completed as f64 / window,
        "1/s",
        completed as usize,
        format!("window_s={window:.3}"),
    );
    run.report.add_tails("read", &mut log.lat, "ms", 1e3);
    for (class, d) in log.by_class.iter_mut() {
        let p50 = d.pct(0.5).unwrap_or(f64::NAN) * 1e3;
        run.report
            .add(format!("read_ms_p50.{class}"), p50, "ms", d.len());
        if (40.0..=48.0).contains(&p50) || (84.0..=96.0).contains(&p50) {
            run.report.flags.push(format!(
                "read_ms_p50.{class} = {p50:.1} ms lands on the 40/88 ms delayed-ACK quantum"
            ));
        }
    }
}

pub fn error_rate(run: &mut Run) {
    let rate = if run.attempted > 0 {
        run.failed as f64 / run.attempted as f64
    } else {
        0.0
    };
    run.report.add_note(
        "error_rate",
        rate,
        "ratio",
        run.attempted as usize,
        format!("failed={} attempted={}", run.failed, run.attempted),
    );
}

fn peak_rss(run: &mut Run, served: &Served) -> Result<(), String> {
    let mb = served.peak_rss_mb()?;
    run.report.add("peak_rss_mb", mb, "MiB", 1);
    Ok(())
}

// ---------------------------------------------------------------- lookup

pub fn lookup(run: &mut Run) -> Result<(), String> {
    let (snap, graph) = run.build_and_load("default")?;
    let keys = LookupKeys::from_graph(&graph, run.seed)?;
    run.report.line(format!(
        "info lookup populations as={} prefix={} domain={} host={} cache_mb={LOOKUP_CACHE_MB} fsync=none",
        keys.sizes()[0],
        keys.sizes()[1],
        keys.sizes()[2],
        keys.sizes()[3]
    ));
    let args = vec![
        "--snapshot".to_string(),
        snap.display().to_string(),
        "--cache-mb".into(),
        LOOKUP_CACHE_MB.to_string(),
    ];
    let served = run.setup(&args, |_| {})?;

    // Two closed-loop connections; the first second of each stream
    // warms up, the rest of the same stream is timed.
    let warmup = run.seconds.min(1.0);
    let mut log = ConnLog::default();
    let mut before = BTreeMap::new();
    let mut started = Instant::now();
    let barrier = std::sync::Barrier::new(3);
    std::thread::scope(|s| -> Result<(), String> {
        let handles: Vec<_> = (0..2u64)
            .map(|c| {
                let (keys, addr, barrier) = (&keys, served.addr.clone(), &barrier);
                let (seed, seconds) = (run.seed, run.seconds);
                s.spawn(move || {
                    let mut stream = LookupStream::new(keys, seed, c);
                    let mut conn = Conn::new(&addr);
                    let mut log = ConnLog::default();
                    for (timed, secs) in [(false, warmup), (true, seconds)] {
                        barrier.wait();
                        let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
                        while Instant::now() < deadline {
                            let (class, req) = stream.next_request();
                            let (secs, r) = conn.read(&req);
                            log.record_read(class, req, secs, r, timed);
                        }
                        if !timed {
                            log.paused = 0.0;
                            // The main thread reads the counters now.
                            barrier.wait();
                        }
                    }
                    log
                })
            })
            .collect();
        barrier.wait(); // warm-up starts
        barrier.wait(); // warm-up done
        let stats = counters(&served);
        started = Instant::now();
        barrier.wait(); // timed window starts
        for h in handles {
            log.merge(h.join().expect("lookup client thread"));
        }
        before = stats?;
        Ok(())
    })?;
    let after = counters(&served)?;
    report_window(run, &mut log, started, 0);
    report_counters(run, &before, &after);
    peak_rss(run, &served)?;

    let seed = run.seed;
    if run.trace {
        trace_reads(run, &served, &graph, LOOKUP_CACHE_MB, 0, |rid| {
            LookupStream::new(&keys, seed, 0).nth_request(rid)
        })?;
    }
    drop(served);

    run.tally(&log);
    let mut expected = Expected::new(&graph);
    check_results(run, &mut expected, &log)?;
    let mut lines = String::new();
    for c in 0..2 {
        let mut stream = LookupStream::new(&keys, run.seed, c);
        for _ in 0..DIGEST_REQUESTS {
            let (_, req) = stream.next_request();
            let d = expected.digest(&req)?;
            lines.push_str(&format!("{}\t{d:016x}\n", Command::Query(req).to_line()));
        }
    }
    run.check_digest("lookup", fnv64(lines.as_bytes()));
    drop(graph);
    if run.trace {
        trace_build(run, "default")?;
    }
    Ok(())
}

impl LookupStream<'_> {
    /// The `n`-th request of this stream (0-based).
    fn nth_request(mut self, n: u64) -> (&'static str, Request) {
        for _ in 0..n {
            self.next_request();
        }
        self.next_request()
    }
}

// ------------------------------------------------------------- analytics

pub fn analytics(run: &mut Run) -> Result<(), String> {
    let (snap, graph) = run.build_and_load("default")?;
    let queries = streams::analytics_queries();
    let args = vec!["--snapshot".to_string(), snap.display().to_string()];
    let served = run.setup(&args, |_| {})?;
    let seed = run.seed;
    let order = |round: u64| {
        let mut o: Vec<usize> = (0..queries.len()).collect();
        Rng::derive(seed, 300 + round).shuffle(&mut o);
        o
    };
    let mut conn = Conn::new(&served.addr);
    let mut log = ConnLog::default();

    // Warm-up: the first requests of a seeded round, checked, not timed.
    for &i in order(0).iter().take(ANALYTICS_WARMUP) {
        let (class, text) = queries[i];
        let req = check::request(text, Default::default());
        let (secs, r) = conn.read(&req);
        log.record_read(class, req, secs, r, false);
    }
    log.paused = 0.0;
    // Whole rounds only, so every class is timed equally often: at
    // least `ANALYTICS_ROUNDS`, more while the window lasts.
    let before = counters(&served)?;
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < ANALYTICS_ROUNDS || started.elapsed().as_secs_f64() - log.paused < run.seconds {
        rounds += 1;
        for &i in &order(rounds) {
            let (class, text) = queries[i];
            let req = check::request(text, Default::default());
            let (secs, r) = conn.read(&req);
            log.record_read(class, req, secs, r, true);
        }
    }
    run.report.line(format!(
        "info analytics classes={} rounds={rounds} cache_mb=0 fsync=none",
        queries.len()
    ));
    let after = counters(&served)?;
    report_window(run, &mut log, started, 0);
    report_counters(run, &before, &after);
    peak_rss(run, &served)?;

    if run.trace {
        let first = order(0);
        trace_reads(run, &served, &graph, 0, queries.len() as u64, |rid| {
            let (class, text) = queries[first[rid as usize % first.len()]];
            (class, check::request(text, Default::default()))
        })?;
        profile_classes(run, &graph, &queries)?;
    }
    drop(served);

    run.tally(&log);
    let mut expected = Expected::new(&graph);
    check_results(run, &mut expected, &log)?;
    let mut lines = String::new();
    for (class, text) in &queries {
        let d = expected.digest(&check::request(text, Default::default()))?;
        lines.push_str(&format!("{class}\t{d:016x}\n"));
    }
    run.check_digest("analytics", fnv64(lines.as_bytes()));
    drop(graph);
    if run.trace {
        trace_build(run, "default")?;
    }
    Ok(())
}

/// `PROFILE` each analytics class in-process: rows produced by every
/// operator per row returned.
fn profile_classes(
    run: &mut Run,
    graph: &Graph,
    queries: &[(&'static str, &'static str)],
) -> Result<(), String> {
    fn rows(p: &iyp_cypher::PlanNode) -> u64 {
        p.rows.unwrap_or(0) + p.children.iter().map(rows).sum::<u64>()
    }
    for (class, text) in queries {
        let (rs, plan) = Statement::prepare(text)
            .and_then(|s| s.no_cache().profile(graph))
            .map_err(|e| format!("PROFILE {class}: {e}"))?;
        let out = rs.rows.len() as u64;
        let examined = rows(&plan);
        run.report.add_note(
            format!("cypher.rows_examined_per_row_out.{class}"),
            examined as f64 / out.max(1) as f64,
            "ratio",
            1,
            format!("examined={examined} out={out}"),
        );
    }
    Ok(())
}

// --------------------------------------------------------- journal_mixed

/// What the writer has had acknowledged, per AS.
#[derive(Default, Clone)]
struct Acked {
    seq: HashMap<i64, i64>,
    tags: HashMap<i64, BTreeSet<String>>,
    last_asn: Option<i64>,
    /// Every acknowledged write, in acknowledgement order.
    log: Vec<Write>,
}

impl Acked {
    /// The acknowledged state of one AS (cheap to copy under the lock).
    fn clone_for(&self, asn: i64) -> Acked {
        let mut a = Acked::default();
        if let Some(s) = self.seq.get(&asn) {
            a.seq.insert(asn, *s);
        }
        if let Some(t) = self.tags.get(&asn) {
            a.tags.insert(asn, t.clone());
        }
        a
    }

    fn ack(&mut self, w: Write) {
        match &w.tag {
            None => {
                self.seq.insert(w.asn, w.seq);
            }
            Some(t) => {
                self.tags.entry(w.asn).or_default().insert(t.clone());
            }
        }
        self.last_asn = Some(w.asn);
        self.log.push(w);
    }

    /// Whether a read-back answer reflects everything acknowledged for
    /// `asn` (`at_least`) — or exactly that, when no write can be in flight.
    fn admits(&self, asn: i64, rows: &[Vec<Value>], exact: bool) -> bool {
        let [row] = rows else { return false };
        let seq_ok = match (self.seq.get(&asn), row.first().and_then(Value::as_i64)) {
            (None, None) => true,
            (None, Some(_)) => !exact,
            (Some(_), None) => false,
            (Some(want), Some(got)) => got == *want || (!exact && got > *want),
        };
        let got: BTreeSet<String> = row
            .get(1)
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        let want = self.tags.get(&asn).cloned().unwrap_or_default();
        seq_ok
            && if exact {
                got == want
            } else {
                got.is_superset(&want)
            }
    }
}

fn wal_sizes(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let len = e.metadata().ok()?.len();
                    (name.starts_with("wal-") && name.ends_with(".log")).then_some((name, len))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Journal growth: the largest size each WAL file reached, summed.
#[derive(Default)]
struct WalGrowth {
    start: BTreeMap<String, u64>,
    max: BTreeMap<String, u64>,
}

impl WalGrowth {
    fn observe(&mut self, dir: &Path) {
        for (name, len) in wal_sizes(dir) {
            let m = self.max.entry(name).or_insert(0);
            *m = (*m).max(len);
        }
    }

    fn bytes(&self) -> u64 {
        self.max
            .iter()
            .map(|(n, m)| m.saturating_sub(self.start.get(n).copied().unwrap_or(0)))
            .sum()
    }
}

pub fn journal_mixed(run: &mut Run) -> Result<(), String> {
    let (snap, mut graph) = run.build_and_load("small")?;
    let asns = Population::from_graph(&graph, "MATCH (a:AS) RETURN a.asn", run.seed, 105)?;
    let kept_dir = run.work.join("journal");
    let args = vec![
        "--snapshot".to_string(),
        snap.display().to_string(),
        "--journal".into(),
        kept_dir.display().to_string(),
        "--fsync".into(),
        "always".into(),
        "--cache-mb".into(),
        JOURNAL_CACHE_MB.to_string(),
    ];
    run.report.line(format!(
        "info journal_mixed fsync=always cache_mb={JOURNAL_CACHE_MB} checkpoint_every={CHECKPOINT_EVERY} tail_writes={TAIL_WRITES} as_population={}",
        asns.len()
    ));
    // Every spawn seeds a fresh journal directory.
    let served = run.setup(&args, |_| {
        let _ = std::fs::remove_dir_all(&kept_dir);
    })?;
    let trace_dir = run.work.join("journal-trace");
    if run.trace {
        copy_dir(&kept_dir, &trace_dir)?;
    }

    let acked = Mutex::new(Acked::default());
    let mut writes = WriteStream::new(asns.clone(), run.seed);
    let mut wlog = ConnLog::default();
    let mut rlog = ConnLog::default();
    let mut wlat = Dist::default();
    let mut checkpoint_lat = Dist::default();
    let mut growth = WalGrowth::default();
    let mut window_writes = 0u64;
    let mut before = BTreeMap::new();
    let mut started = Instant::now();
    let warmup = run.seconds.min(1.0);
    let barrier = std::sync::Barrier::new(2);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| -> Result<(), String> {
        let (acked, barrier, stop, addr) = (&acked, &barrier, &stop, served.addr.clone());
        let (seed, seconds) = (run.seed, run.seconds);
        let reader_asns = asns.clone();
        let reader = s.spawn(move || {
            let mut rng = Rng::derive(seed, 202);
            let mut conn = Conn::new(&addr);
            let mut log = ConnLog::default();
            let mut mismatches = Vec::new();
            for timed in [false, true] {
                barrier.wait();
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    // Half the reads target the AS written last.
                    let last = acked.lock().expect("acked lock").last_asn;
                    let asn = match (rng.below(2), last) {
                        (0, Some(a)) => a,
                        _ => int_key(reader_asns.draw(&mut rng)),
                    };
                    let req = streams::read_back(asn);
                    let state = acked.lock().expect("acked lock").clone_for(asn);
                    let (secs, r) = conn.read(&req);
                    if let Ok(t) = &r {
                        if !state.admits(asn, &t.rows, false) {
                            mismatches.push(format!(
                                "read of AS{asn} misses an acknowledged write: {:?}",
                                t.rows
                            ));
                        }
                    }
                    log.record_read("read_back", req, secs, r, timed);
                }
                if !timed {
                    log.paused = 0.0;
                }
                barrier.wait();
            }
            (log, mismatches)
        });
        let mut conn = Conn::new(&served.addr);
        let mut stats = Ok(BTreeMap::new());
        for (timed, secs) in [(false, warmup), (true, seconds)] {
            if timed {
                stats = counters(&served);
                growth.start = wal_sizes(&kept_dir);
            }
            barrier.wait();
            started = Instant::now();
            let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
            while Instant::now() < deadline {
                let w = writes.next_write();
                write_one(&mut conn, &mut wlog, acked, w, timed.then_some(&mut wlat));
                if timed {
                    window_writes += 1;
                    if window_writes.is_multiple_of(CHECKPOINT_EVERY) {
                        growth.observe(&kept_dir);
                        checkpoint(&mut conn, &mut wlog, &mut checkpoint_lat);
                    }
                }
            }
            stop.store(true, std::sync::atomic::Ordering::SeqCst);
            barrier.wait();
            stop.store(false, std::sync::atomic::Ordering::SeqCst);
            if timed {
                wlog.end = Some(Instant::now());
                growth.observe(&kept_dir);
            }
        }
        let (log, mismatches) = reader.join().expect("reader thread");
        rlog = log;
        for m in mismatches {
            run.mismatch(m);
        }
        before = stats?;
        Ok(())
    })?;
    let after = counters(&served)?;
    let acked_writes = wlat.len() as u64;
    rlog.end = rlog.end.max(wlog.end);
    report_window(run, &mut rlog, started, acked_writes);
    run.report.add_tails("write", &mut wlat, "ms", 1e3);
    run.report.add_note(
        "wal_bytes_per_write",
        growth.bytes() as f64 / acked_writes.max(1) as f64,
        "B",
        acked_writes as usize,
        format!("wal_bytes={}", growth.bytes()),
    );
    if let (Some(Some(b)), Some(Some(a))) = (
        before.get("iyp_journal_fsyncs_total"),
        after.get("iyp_journal_fsyncs_total"),
    ) {
        run.report.add_note(
            "journal.fsyncs_per_write",
            (a - b) / acked_writes.max(1) as f64,
            "count",
            acked_writes as usize,
            format!(
                "fsyncs={} writes={acked_writes} (checkpoints included)",
                a - b
            ),
        );
    }
    run.report
        .add_tails("checkpoint", &mut checkpoint_lat, "ms", 1e3);
    report_counters(run, &before, &after);
    peak_rss(run, &served)?;

    let mut tlog = ConnLog::default();
    if run.trace {
        trace_journal(run, &served, &trace_dir, &acked, &mut writes, &asns)?;
    }

    // A fixed tail after a checkpoint, so recovery always replays the
    // same number of writes; then SIGKILL and respawn.
    let mut conn = Conn::new(&served.addr);
    checkpoint(&mut conn, &mut tlog, &mut Dist::default());
    for _ in 0..TAIL_WRITES {
        write_one(&mut conn, &mut tlog, &acked, writes.next_write(), None);
    }
    drop(conn);
    let served = run.recover(served, &args)?;

    // Every acknowledged write must read back, exactly.
    let acked = acked.into_inner().expect("acked lock");
    let touched: BTreeSet<i64> = acked.log.iter().map(|w| w.asn).collect();
    let mut conn = Conn::new(&served.addr);
    let mut after_restart = Vec::new();
    for &asn in &touched {
        let req = streams::read_back(asn);
        let (_, r) = conn.read(&req);
        run.attempted += 1;
        match r {
            Ok(t) => {
                if !acked.admits(asn, &t.rows, true) {
                    run.mismatch(format!(
                        "after SIGKILL and restart AS{asn} reads {:?}, not its acknowledged writes",
                        t.rows
                    ));
                }
                after_restart.push((req, check::digest(Q_READ_BACK, &t.columns, &t.rows)));
            }
            Err(code) => {
                run.failed += 1;
                run.report
                    .line(format!("error code={code} count=1 (read-back)"));
            }
        }
    }
    drop(conn);
    drop(served);

    for log in [&wlog, &rlog, &tlog] {
        run.tally(log);
    }
    run.report.line(format!(
        "check journal_mixed acknowledged_writes={} touched_as={} read_back={}",
        acked.log.len(),
        touched.len(),
        after_restart.len()
    ));

    // The same acknowledged writes, applied in-process in order, must
    // give the same read-back answers.
    for w in &acked.log {
        iyp_cypher::query_write(&mut graph, &w.req.query, &w.req.params)
            .map_err(|e| format!("in-process replay: {e}"))?;
    }
    for (req, got) in &after_restart {
        if *got != expected_digest(&graph, req)? {
            run.mismatch(format!(
                "read-back {} differs from the in-process replay",
                one_line(&Command::Query(req.clone()).to_line())
            ));
        }
    }

    // Recorded digest: a fixed prefix of the write stream applied to a
    // fresh copy of the snapshot, then read back.
    let mut fresh = reload(&snap)?;
    let mut stream = WriteStream::new(asns, run.seed);
    let mut lines = String::new();
    let mut touched = BTreeSet::new();
    for _ in 0..DIGEST_REQUESTS {
        let w = stream.next_write();
        iyp_cypher::query_write(&mut fresh, &w.req.query, &w.req.params)
            .map_err(|e| format!("in-process write: {e}"))?;
        touched.insert(w.asn);
    }
    for asn in touched {
        let d = expected_digest(&fresh, &streams::read_back(asn))?;
        lines.push_str(&format!("{asn}\t{d:016x}\n"));
    }
    run.check_digest("journal_mixed", fnv64(lines.as_bytes()));
    drop((graph, fresh));
    if run.trace {
        trace_build(run, "small")?;
    }
    Ok(())
}

fn reload(path: &Path) -> Result<Graph, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read snapshot: {e}"))?;
    iyp_graph::snapshot::from_binary(&bytes).map_err(|e| e.to_string())
}

fn write_one(
    conn: &mut Conn,
    log: &mut ConnLog,
    acked: &Mutex<Acked>,
    w: Write,
    lat: Option<&mut Dist>,
) {
    log.attempted += 1;
    let (secs, r) = conn.write(&w.req);
    match r {
        Ok(_) => {
            if let Some(lat) = lat {
                lat.push(secs);
            }
            acked.lock().expect("acked lock").ack(w);
        }
        Err(code) => {
            log.failed += 1;
            *log.errors.entry(code).or_default() += 1;
        }
    }
}

fn checkpoint(conn: &mut Conn, log: &mut ConnLog, lat: &mut Dist) {
    log.attempted += 1;
    let t = Instant::now();
    let r = conn
        .client()
        .map_err(|e| e.to_string())
        .and_then(|c| c.checkpoint().map_err(|e| e.to_string()));
    match r {
        Ok(_) => lat.push(t.elapsed().as_secs_f64()),
        Err(e) => {
            log.failed += 1;
            *log.errors.entry(format!("checkpoint: {e}")).or_default() += 1;
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for e in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| format!("copy: {e}"))?;
    }
    Ok(())
}

// ----------------------------------------------------------------- trace

/// Per-layer numbers of one traced replay.
#[derive(Default)]
struct Layers {
    tracer: Tracer,
    /// (request id, class, is_read) of every traced request.
    requests: Vec<(u64, &'static str, bool)>,
    response_bytes: Dist,
}

impl Layers {
    /// Reduces the spans to the per-layer metrics, and reports the
    /// traced read latency minus the untraced one as tracing overhead.
    fn report(&self, run: &mut Run, path: &Path) -> Result<(), String> {
        self.tracer
            .write_jsonl(path)
            .map_err(|e| format!("write spans: {e}"))?;
        let mut st = self.tracer.self_times();
        let mut p50 = |name: &str, scale: f64| -> Option<(f64, usize)> {
            let d = st.get_mut(name)?;
            Some((d.pct(0.5)? * scale, d.len()))
        };
        for (name, span, scale, unit) in [
            ("cypher.prepare_us_p50", "cypher.prepare", 1e6, "us"),
            ("cypher.exec_ms_p50", "cypher.exec", 1e3, "ms"),
            ("server.decode_us_p50", "server.decode", 1e6, "us"),
            ("server.encode_ms_p50", "server.encode", 1e3, "ms"),
            ("wire.rtt_ms_p50", "wire.rtt", 1e3, "ms"),
            ("journal.write_ms_p50", "journal.write", 1e3, "ms"),
            ("journal.checkpoint_s", "journal.checkpoint", 1.0, "s"),
        ] {
            if let Some((v, n)) = p50(span, scale) {
                run.report.add(name, v, unit, n);
            }
        }
        let mut bytes = self.response_bytes.clone();
        if let Some(b) = bytes.pct(0.5) {
            run.report
                .add("server.response_bytes_p50", b, "B", bytes.len());
        }
        // Wire wait: round trip minus the server-side layers replayed.
        let layer = |name| self.tracer.per_request(name);
        let rtt = layer("wire.rtt");
        let inner: Vec<_> = [
            "server.decode",
            "cypher.prepare",
            "cypher.exec",
            "server.encode",
            "journal.write",
        ]
        .into_iter()
        .map(layer)
        .collect();
        let mut wait = Dist::default();
        let mut traced_read = Dist::default();
        let mut exec_by_class: BTreeMap<&str, Dist> = BTreeMap::new();
        let exec = layer("cypher.exec");
        for (rid, class, is_read) in &self.requests {
            let Some(r) = rtt.get(rid) else { continue };
            let server: f64 = inner.iter().filter_map(|m| m.get(rid)).sum();
            wait.push(r - server);
            if *is_read {
                traced_read.push(*r);
                if let Some(e) = exec.get(rid) {
                    exec_by_class.entry(class).or_default().push(*e);
                }
            }
        }
        if let Some(w) = wait.pct(0.5) {
            run.report
                .add("wire.wait_ms_p50", w * 1e3, "ms", wait.len());
        }
        for (class, d) in exec_by_class.iter_mut() {
            let v = d.pct(0.5).unwrap_or(f64::NAN) * 1e3;
            run.report
                .add(format!("cypher.exec_ms.{class}"), v, "ms", d.len());
        }
        if let (Some(traced), Some(untraced)) = (
            traced_read.pct(0.5),
            run.report.get("read_p50_ms").map(|m| m.value),
        ) {
            run.report.add_note(
                "trace.overhead_read_p50_ms",
                traced * 1e3 - untraced,
                "ms",
                traced_read.len(),
                format!("traced={:.3} untraced={untraced:.3}", traced * 1e3),
            );
        }
        Ok(())
    }

    /// One read: the round trip over TCP, then the same request through
    /// the server's layer functions in-process.
    fn read(
        &mut self,
        rid: u64,
        class: &'static str,
        conn: &mut Conn,
        req: &Request,
        graph: &Graph,
        cache: &QueryCache,
    ) -> Result<(), String> {
        let t = &mut self.tracer;
        let root = t.begin("request", None, rid);
        let (_, r) = t.span("wire.rtt", Some(root), rid, || conn.read(req));
        r.map_err(|code| format!("traced {class}: {code}"))?;
        let line = Command::Query(req.clone()).to_line();
        let cmd = t.span("server.decode", Some(root), rid, || {
            Command::from_line(&line)
        });
        let Ok(Command::Query(req)) = cmd else {
            return Err(format!("traced {class}: request line does not decode"));
        };
        let stmt = t
            .span("cypher.prepare", Some(root), rid, || {
                Statement::prepare(&req.query)
            })
            .map_err(|e| e.to_string())?;
        let rs = t
            .span("cypher.exec", Some(root), rid, || {
                stmt.params(&req.params).cache(cache).run_shared(graph)
            })
            .map_err(|e| e.to_string())?;
        let text = t.span("server.encode", Some(root), rid, || {
            Response::Ok {
                columns: rs.columns.clone(),
                rows: rs
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|v| encode_value(v, graph)).collect())
                    .collect(),
            }
            .to_line()
        });
        t.end(root);
        self.response_bytes.push(text.len() as f64);
        self.requests.push((rid, class, true));
        Ok(())
    }
}

/// The traced run of a read-only workload: one connection replays the
/// workload's seeded stream for `--seconds` and at least `min` requests,
/// each request followed by its in-process replay.
fn trace_reads(
    run: &mut Run,
    served: &Served,
    graph: &Graph,
    cache_mb: usize,
    min: u64,
    nth: impl Fn(u64) -> (&'static str, Request),
) -> Result<(), String> {
    let cache = QueryCache::with_capacity_mb(cache_mb);
    let mut layers = Layers::default();
    let mut conn = Conn::new(&served.addr);
    conn.client().map_err(|e| format!("traced connect: {e}"))?;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let mut rid = 0;
    while rid < min || Instant::now() < deadline {
        let (class, req) = nth(rid);
        layers.read(rid, class, &mut conn, &req, graph, &cache)?;
        rid += 1;
    }
    let spans = run.work.join("spans.jsonl");
    layers.report(run, &spans)
}

/// The traced run of `journal_mixed`: alternating writes and reads over
/// one connection, replayed in-process on a `DurableGraph` opened from
/// a copy of the seeded journal directory (same fsync policy), caught
/// up with every write the server has acknowledged.
fn trace_journal(
    run: &mut Run,
    served: &Served,
    dir: &Path,
    acked: &Mutex<Acked>,
    writes: &mut WriteStream,
    asns: &Population,
) -> Result<(), String> {
    let catch_up: Vec<Write> = acked.lock().expect("acked lock").log.clone();
    {
        let (durable, _) =
            DurableGraph::open(dir, FsyncPolicy::Never).map_err(|e| e.to_string())?;
        for w in &catch_up {
            durable
                .write(|g| iyp_cypher::query_write(g, &w.req.query, &w.req.params))
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
        }
        durable.checkpoint().map_err(|e| e.to_string())?;
    }
    let (durable, _) = DurableGraph::open(dir, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    let cache = QueryCache::with_capacity_mb(JOURNAL_CACHE_MB);
    let mut layers = Layers::default();
    let mut conn = Conn::new(&served.addr);
    conn.client().map_err(|e| format!("traced connect: {e}"))?;
    let mut rng = Rng::derive(run.seed, 203);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let mut rid = 0u64;
    let mut traced_writes = 0u64;
    while Instant::now() < deadline {
        if rid.is_multiple_of(2) {
            let w = writes.next_write();
            let t = &mut layers.tracer;
            let root = t.begin("request", None, rid);
            let (_, r) = t.span("wire.rtt", Some(root), rid, || conn.write(&w.req));
            r.map_err(|code| format!("traced write: {code}"))?;
            let line = Command::Write(w.req.clone()).to_line();
            let cmd = t.span("server.decode", Some(root), rid, || {
                Command::from_line(&line)
            });
            let Ok(Command::Write(req)) = cmd else {
                return Err("traced write line does not decode".into());
            };
            let (rs, summary) = t
                .span("journal.write", Some(root), rid, || {
                    durable.write(|g| {
                        iyp_cypher::query_write(g, &req.query, &req.params).map(|(rs, s)| {
                            let rows: Vec<Vec<Value>> = rs
                                .rows
                                .iter()
                                .map(|row| row.iter().map(|v| encode_value(v, g)).collect())
                                .collect();
                            ((rs.columns.clone(), rows), s)
                        })
                    })
                })
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
            let text = t.span("server.encode", Some(root), rid, || {
                Response::Written {
                    columns: rs.0,
                    rows: rs.1,
                    summary: json!({
                        "nodes_created": summary.nodes_created,
                        "rels_created": summary.rels_created,
                        "props_set": summary.props_set,
                    }),
                }
                .to_line()
            });
            t.end(root);
            layers.response_bytes.push(text.len() as f64);
            layers.requests.push((rid, "write", false));
            acked.lock().expect("acked lock").ack(w);
            traced_writes += 1;
            if traced_writes.is_multiple_of(CHECKPOINT_EVERY) {
                let mut sink = ConnLog::default();
                checkpoint(&mut conn, &mut sink, &mut Dist::default());
                if sink.failed > 0 {
                    return Err("traced checkpoint failed".into());
                }
                let t = &mut layers.tracer;
                t.span("journal.checkpoint", None, rid, || durable.checkpoint())
                    .map_err(|e| e.to_string())?;
            }
        } else {
            let last = acked.lock().expect("acked lock").last_asn;
            let asn = match (rng.below(2), last) {
                (0, Some(a)) => a,
                _ => int_key(asns.draw(&mut rng)),
            };
            let req = streams::read_back(asn);
            durable.read(|g| layers.read(rid, "read_back", &mut conn, &req, g, &cache))?;
        }
        rid += 1;
    }
    if traced_writes < CHECKPOINT_EVERY {
        layers
            .tracer
            .span("journal.checkpoint", None, rid, || durable.checkpoint())
            .map_err(|e| e.to_string())?;
        let mut sink = ConnLog::default();
        checkpoint(&mut conn, &mut sink, &mut Dist::default());
    }
    // Reopen after the last traced writes: recovery work in-process.
    for _ in 0..TAIL_WRITES {
        let w = writes.next_write();
        let mut sink = ConnLog::default();
        write_one(&mut conn, &mut sink, acked, w.clone(), None);
        if sink.failed > 0 {
            return Err("traced tail write failed".into());
        }
        durable
            .write(|g| iyp_cypher::query_write(g, &w.req.query, &w.req.params))
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
    }
    drop(durable);
    let t = Instant::now();
    let (reopened, report) =
        DurableGraph::open(dir, FsyncPolicy::Always).map_err(|e| e.to_string())?;
    run.report
        .add("journal.open_s", t.elapsed().as_secs_f64(), "s", 1);
    run.report
        .add("journal.replayed_ops", report.replay.ops as f64, "count", 1);
    drop(reopened);
    let spans = run.work.join("spans.jsonl");
    layers.report(run, &spans)
}

/// The build side, in-process at the workload's scale and seed: world
/// generation, rendering of the 46 datasets, import, refinement,
/// validation and snapshot encoding.
fn trace_build(run: &mut Run, scale: &str) -> Result<(), String> {
    use iyp_simnet::{datasets::ALL_DATASETS, SimConfig, World};
    let config = if scale == "default" {
        SimConfig::default()
    } else {
        SimConfig::small()
    };
    let t = Instant::now();
    let world = World::generate(&config, run.seed);
    run.report
        .add("simnet.world_s", t.elapsed().as_secs_f64(), "s", 1);
    let t = Instant::now();
    let mut rendered = 0usize;
    for id in ALL_DATASETS {
        rendered += std::hint::black_box(world.render_dataset(id)).len();
    }
    run.report.add_note(
        "simnet.render_s",
        t.elapsed().as_secs_f64(),
        "s",
        ALL_DATASETS.len(),
        format!("bytes={rendered}"),
    );
    let (graph, report) = iyp_pipeline::build_graph(&world, &iyp_pipeline::BuildOptions::default())
        .map_err(|e| format!("in-process build: {e}"))?;
    let failed = report.failed.len() + report.skipped.len();
    run.report.add_note(
        "build.error_rate",
        failed as f64 / ALL_DATASETS.len() as f64,
        "ratio",
        ALL_DATASETS.len(),
        format!("failed_or_skipped={failed}"),
    );
    let import: f64 = report
        .dataset_timings
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    run.report.add(
        "crawlers.import_s",
        import,
        "s",
        report.dataset_timings.len(),
    );
    for name in [
        "openintel.tranco1m",
        "openintel.infra_ns",
        "openintel.dnsgraph",
    ] {
        let secs = report.dataset_time(name).map_or(0.0, |d| d.as_secs_f64());
        run.report
            .add(format!("crawlers.import_s.{name}"), secs, "s", 1);
    }
    let refine: f64 = report
        .refinement_timings
        .iter()
        .map(|(_, d)| d.as_secs_f64())
        .sum();
    run.report.add(
        "pipeline.refine_s",
        refine,
        "s",
        report.refinement_timings.len(),
    );
    let t = Instant::now();
    let violations = iyp_ontology::validate_graph(&graph).len();
    run.report.add_note(
        "ontology.validate_s",
        t.elapsed().as_secs_f64(),
        "s",
        1,
        format!("violations={violations}"),
    );
    let t = Instant::now();
    let bytes = iyp_graph::snapshot::to_binary(&graph);
    run.report
        .add("graph.snapshot_encode_s", t.elapsed().as_secs_f64(), "s", 1);
    run.report.add_note(
        "graph.snapshot_bytes_per_rel",
        bytes.len() as f64 / graph.rel_count().max(1) as f64,
        "B",
        graph.rel_count(),
        format!("bytes={}", bytes.len()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iyp_server::{Server, ServerOptions, Service};
    use std::sync::Arc;
    use std::time::Duration;

    fn graph() -> Arc<Graph> {
        let mut g = Graph::new();
        for asn in 0..2000u32 {
            g.merge_node("AS", "asn", asn, iyp_graph::Props::new());
        }
        Arc::new(g)
    }

    fn read(conn: &mut Conn, log: &mut ConnLog) {
        let req = check::request("MATCH (a:AS) RETURN count(a)", Default::default());
        let (secs, r) = conn.read(&req);
        log.record_read("count", req, secs, r, true);
    }

    /// Refused connections, `busy` rejections and `timeout` answers all
    /// count as failed requests; only answered requests are timed.
    #[test]
    fn refused_busy_and_timeout_count_as_failed() {
        let mut log = ConnLog::default();

        let closed = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = closed.local_addr().unwrap().to_string();
        drop(closed);
        read(&mut Conn::new(&addr), &mut log);

        let options = ServerOptions {
            max_connections: 1,
            ..Default::default()
        };
        let server =
            Server::start_service_with(Service::ReadOnly(graph()), "127.0.0.1:0", options).unwrap();
        let addr = server.addr().to_string();
        let mut holder = Conn::new(&addr);
        read(&mut holder, &mut log);
        read(&mut Conn::new(&addr), &mut log);

        let options = ServerOptions {
            query_timeout: Some(Duration::from_nanos(1)),
            ..Default::default()
        };
        let slow =
            Server::start_service_with(Service::ReadOnly(graph()), "127.0.0.1:0", options).unwrap();
        read(&mut Conn::new(&slow.addr().to_string()), &mut log);

        assert_eq!(log.attempted, 4);
        assert_eq!(log.failed, 3, "errors: {:?}", log.errors);
        assert_eq!(log.lat.len(), 1);
        for code in ["busy", "timeout"] {
            assert_eq!(log.errors.get(code), Some(&1), "errors: {:?}", log.errors);
        }
    }
}
