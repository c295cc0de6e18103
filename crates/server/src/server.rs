//! The query server: read-only over a shared graph, or read-write over
//! a journaled [`DurableGraph`].

use crate::proto::{encode_value, Command, ProtoError, Response};
use iyp_graph::{Graph, GraphStats};
use iyp_journal::DurableGraph;
use serde_json::json;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server errors.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or accepting failed.
    Io(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Hard cap on a single request line (1 MiB) — a protocol guard, not a
/// resource plan.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Queries slower than this are logged to stderr (and counted in
/// `iyp_server_slow_queries_total`).
const SLOW_QUERY: Duration = Duration::from_millis(250);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum connection handlers in flight at once. Connections
    /// arriving above the cap are rejected with a structured `busy`
    /// error (and counted in `iyp_server_busy_rejected_total`) instead
    /// of spawning an unbounded thread per connection.
    pub max_connections: usize,
    /// Wall-clock deadline for a single read query. Queries past the
    /// deadline are cancelled cooperatively at a row boundary and the
    /// client gets a structured `timeout` error (counted in
    /// `iyp_server_query_timeout_total`); the connection stays usable.
    /// `None` (the default) disables the deadline. Write queries are
    /// not covered: they hold the exclusive journal lock and must run
    /// to completion or not at all.
    pub query_timeout: Option<Duration>,
    /// Byte budget (in MiB) for the server's epoch-keyed query result
    /// cache (`serve --cache-mb N`). Repeated identical queries against
    /// an unchanged graph are answered from the cache without
    /// executing; any journaled write bumps the graph epoch, so stale
    /// entries simply stop matching. Cache hits still honor
    /// `query_timeout`: an expired deadline reports `timeout` even
    /// when the result is cached. `None` (the default) disables the
    /// cache.
    pub cache_mb: Option<usize>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            query_timeout: None,
            cache_mb: None,
        }
    }
}

/// A structured rejection: something the server declined to do, written
/// to the client as one `error` line and counted in telemetry. Both the
/// accept-thread busy path and the in-handler query-timeout path go
/// through here so the wire format and the counters cannot drift.
enum Reject {
    /// The connection arrived above the in-flight handler cap.
    Busy { max_connections: usize },
    /// A read query exceeded the configured deadline and was cancelled
    /// at a row boundary.
    QueryTimeout { limit: Duration, after_ms: u64 },
}

impl Reject {
    fn counter(&self) -> &'static str {
        match self {
            Reject::Busy { .. } => iyp_telemetry::names::SERVER_BUSY_REJECTED_TOTAL,
            Reject::QueryTimeout { .. } => iyp_telemetry::names::SERVER_QUERY_TIMEOUT_TOTAL,
        }
    }

    fn message(&self) -> String {
        match self {
            Reject::Busy { max_connections } => format!(
                "busy: server is at its connection cap ({max_connections} in flight); retry shortly"
            ),
            Reject::QueryTimeout { limit, after_ms } => format!(
                "timeout: query exceeded the {} ms deadline; cancelled at a row boundary after {after_ms} ms",
                limit.as_millis()
            ),
        }
    }

    /// Counts the rejection and renders it as the wire response.
    fn response(&self) -> Response {
        iyp_telemetry::counter(self.counter()).incr();
        Response::Error(self.message())
    }
}

/// Decrements the in-flight connection count when a handler exits,
/// however it exits.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the server serves: an immutable shared graph, or a journaled
/// durable one that also accepts `write` and `checkpoint` commands.
#[derive(Clone)]
pub enum Service {
    /// Read-only over an `Arc<Graph>` (the paper's public instance).
    ReadOnly(Arc<Graph>),
    /// Read-write over a [`DurableGraph`] (the local-instance
    /// workflow, §6.1): concurrent readers, exclusive writer, every
    /// write journaled before it is acknowledged.
    Durable(Arc<DurableGraph>),
}

/// A running query server. Dropping the handle (or calling
/// [`Server::stop`]) shuts the listener down and joins the accept
/// thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    served: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a read-only server for `graph` on `addr` (use port 0 to
    /// pick a free port; the bound address is available via
    /// [`Server::addr`]).
    pub fn start(graph: Arc<Graph>, addr: &str) -> Result<Server, ServerError> {
        Self::start_service(Service::ReadOnly(graph), addr)
    }

    /// Starts a read-write server over a journaled graph.
    pub fn start_durable(durable: Arc<DurableGraph>, addr: &str) -> Result<Server, ServerError> {
        Self::start_service(Service::Durable(durable), addr)
    }

    /// Starts a server for any [`Service`] with default options.
    pub fn start_service(service: Service, addr: &str) -> Result<Server, ServerError> {
        Self::start_service_with(service, addr, ServerOptions::default())
    }

    /// Starts a server for any [`Service`] with explicit options.
    pub fn start_service_with(
        service: Service,
        addr: &str,
        options: ServerOptions,
    ) -> Result<Server, ServerError> {
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicUsize::new(0));
        let accept_shutdown = shutdown.clone();
        let accept_served = served.clone();
        let max_connections = options.max_connections.max(1);
        let query_timeout = options.query_timeout;
        // One result cache per service, shared by every connection
        // handler (QueryCache is internally synchronised). Capacity 0
        // (no --cache-mb) leaves it inert.
        let cache = Arc::new(iyp_cypher::QueryCache::with_capacity_mb(
            options.cache_mb.unwrap_or(0),
        ));
        let active = Arc::new(AtomicUsize::new(0));

        // The listener blocks in accept(); stop() wakes it with a
        // throwaway connection after setting the shutdown flag, so
        // shutdown is immediate without a sleep/poll cycle burning a
        // wakeup every 10 ms for the server's whole lifetime.
        let accept_thread = std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break; // the wakeup connection itself
                    }
                    // Cap in-flight handlers: above the cap, reject
                    // with a structured `busy` error instead of
                    // spawning without bound.
                    if active.load(Ordering::SeqCst) >= max_connections {
                        reject_on_accept(stream, Reject::Busy { max_connections });
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let guard = ActiveGuard(active.clone());
                    let service = service.clone();
                    let served = accept_served.clone();
                    let cache = cache.clone();
                    // Workers are detached: they exit on client EOF
                    // or the 30 s read timeout. stop() only has to
                    // stop *accepting*; draining connections is the
                    // clients' business (writes are journaled before
                    // they are acknowledged, so there is nothing to
                    // flush here).
                    std::thread::spawn(move || {
                        let _guard = guard;
                        let _ = handle_connection(stream, &service, &served, query_timeout, &cache);
                    });
                }
                Err(_) => {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        });

        Ok(Server {
            addr,
            shutdown,
            served,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of requests served so far.
    pub fn served(&self) -> usize {
        self.served.load(Ordering::SeqCst)
    }

    /// Stops the server and joins the accept thread.
    pub fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Wake the blocked accept() so the thread observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Writes a [`Reject`] to a connection we never admitted and drops the
/// stream. Runs on the accept thread, so it must never block on a slow
/// client — hence the short write timeout and ignored errors.
fn reject_on_accept(mut stream: TcpStream, reject: Reject) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = reject.response();
    let _ = stream.write_all(resp.to_line().as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Serves one connection: one request line → one response line, until
/// EOF or a protocol error.
fn handle_connection(
    stream: TcpStream,
    service: &Service,
    served: &AtomicUsize,
    query_timeout: Option<Duration>,
    cache: &iyp_cypher::QueryCache,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    loop {
        // Read at most one byte past the cap, so an endless line costs
        // at most MAX_REQUEST_BYTES of memory before it is refused.
        let mut line = Vec::new();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(e),
        }
        if line.len() > MAX_REQUEST_BYTES {
            // Oversized lines kill the connection: the rest of the
            // line is still in flight and can't be resynchronised.
            let err = ProtoError::TooLarge {
                len: line.len(),
                max: MAX_REQUEST_BYTES,
            };
            let resp = Response::Error(err.to_string());
            writer.write_all(resp.to_line().as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            // Closing with unread input would reset the connection and
            // could discard the reply: send it, then discard what the
            // client still sends (bounded in time and bytes).
            writer.shutdown(std::net::Shutdown::Write)?;
            reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_secs(1)))?;
            let _ = std::io::copy(
                &mut reader.take(16 * MAX_REQUEST_BYTES as u64),
                &mut std::io::sink(),
            );
            return Ok(());
        }
        let read = String::from_utf8(line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        served.fetch_add(1, Ordering::SeqCst);
        let response = match Command::from_line(&read) {
            Ok(Command::Ping) => Response::Pong,
            Ok(Command::Stats) => match service {
                Service::ReadOnly(graph) => Response::Stats(stats_json(graph)),
                Service::Durable(durable) => durable.read(|g| Response::Stats(stats_json(g))),
            },
            Ok(Command::Query(req)) => {
                let _span = iyp_telemetry::span(iyp_telemetry::names::SERVER_REQUEST_SECONDS);
                let started = Instant::now();
                let response = match service {
                    Service::ReadOnly(graph) => run_query(graph, &req, query_timeout, cache),
                    Service::Durable(durable) => {
                        durable.read(|g| run_query(g, &req, query_timeout, cache))
                    }
                };
                log_if_slow(&req.query, started.elapsed());
                response
            }
            Ok(Command::Write(req)) => {
                let _span = iyp_telemetry::span(iyp_telemetry::names::SERVER_REQUEST_SECONDS);
                let started = Instant::now();
                let response = match service {
                    Service::ReadOnly(_) => Response::Error(
                        "read_only: this server has no journal; start it with --journal to accept writes"
                            .to_string(),
                    ),
                    Service::Durable(durable) => {
                        iyp_telemetry::counter(iyp_telemetry::names::SERVER_WRITE_QUERIES_TOTAL)
                            .incr();
                        match durable.write(|g| run_write(g, &req)) {
                            Ok(resp) => resp,
                            Err(e) => Response::Error(format!("journal: {e}")),
                        }
                    }
                };
                log_if_slow(&req.query, started.elapsed());
                response
            }
            Ok(Command::Checkpoint) => match service {
                Service::ReadOnly(_) => Response::Error(
                    "read_only: this server has no journal; nothing to checkpoint".to_string(),
                ),
                Service::Durable(durable) => match durable.checkpoint() {
                    Ok(generation) => Response::Checkpointed { generation },
                    Err(e) => Response::Error(format!("journal: {e}")),
                },
            },
            Err(e) => Response::Error(e.to_string()),
        };
        writer.write_all(response.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// Runs a read query and encodes the result (inside whatever lock the
/// caller holds — entity encoding needs the graph). With a timeout the
/// query runs under a deadline token; without one it runs unpolled, so
/// results are byte-identical to an untimed server. The statement
/// consults the service's epoch-keyed result cache: a hit skips
/// execution entirely (the cached result is from this exact graph
/// epoch, so it is what execution would have produced) but still polls
/// the deadline token once, preserving `--query-timeout` semantics.
fn run_query(
    graph: &Graph,
    req: &crate::proto::Request,
    timeout: Option<Duration>,
    cache: &iyp_cypher::QueryCache,
) -> Response {
    let stmt = match iyp_cypher::Statement::prepare(&req.query) {
        Ok(stmt) => stmt,
        Err(e) => return Response::Error(e.to_string()),
    };
    let stmt = stmt.params(&req.params).cache(cache);
    let result = match timeout {
        Some(limit) => {
            let cancel = iyp_cypher::Cancel::with_timeout(limit);
            stmt.cancel(&cancel).run_shared(graph)
        }
        None => stmt.run_shared(graph),
    };
    match result {
        Ok(rs) => Response::Ok {
            columns: rs.columns.clone(),
            rows: rs
                .rows
                .iter()
                .map(|row| row.iter().map(|v| encode_value(v, graph)).collect())
                .collect(),
        },
        Err(iyp_cypher::CypherError::Timeout { after_ms }) => Reject::QueryTimeout {
            limit: timeout.unwrap_or_default(),
            after_ms,
        }
        .response(),
        Err(e) => Response::Error(e.to_string()),
    }
}

/// Runs a write query and encodes the result while still holding the
/// exclusive lock.
fn run_write(graph: &mut Graph, req: &crate::proto::Request) -> Response {
    match iyp_cypher::query_write(graph, &req.query, &req.params) {
        Ok((rs, summary)) => Response::Written {
            columns: rs.columns.clone(),
            rows: rs
                .rows
                .iter()
                .map(|row| row.iter().map(|v| encode_value(v, graph)).collect())
                .collect(),
            summary: json!({
                "nodes_created": summary.nodes_created,
                "rels_created": summary.rels_created,
                "props_set": summary.props_set,
                "nodes_deleted": summary.nodes_deleted,
                "rels_deleted": summary.rels_deleted,
            }),
        },
        Err(e) => Response::Error(e.to_string()),
    }
}

fn log_if_slow(query: &str, elapsed: Duration) {
    if elapsed >= SLOW_QUERY {
        iyp_telemetry::counter(iyp_telemetry::names::SERVER_SLOW_QUERIES_TOTAL).incr();
        let preview: String = query.chars().take(200).collect();
        eprintln!(
            "[iyp-server] slow query ({:.1} ms): {}",
            elapsed.as_secs_f64() * 1e3,
            preview.split_whitespace().collect::<Vec<_>>().join(" ")
        );
    }
}

/// The `STATS` payload: graph statistics plus a snapshot of every
/// registered telemetry metric.
fn stats_json(graph: &Graph) -> serde_json::Value {
    let stats = GraphStats::compute(graph);
    let labels: serde_json::Map<String, serde_json::Value> = stats
        .nodes_per_label
        .iter()
        .map(|(k, v)| (k.clone(), json!(v)))
        .collect();
    let rel_types: serde_json::Map<String, serde_json::Value> = stats
        .rels_per_type
        .iter()
        .map(|(k, v)| (k.clone(), json!(v)))
        .collect();
    let mut telemetry = serde_json::Map::new();
    for (name, value) in iyp_telemetry::snapshot() {
        let v = match value {
            iyp_telemetry::MetricValue::Counter(c) => json!(c),
            iyp_telemetry::MetricValue::Gauge(g) => json!(g),
            iyp_telemetry::MetricValue::Histogram { count, sum } => {
                json!({ "count": count, "sum_seconds": sum.as_secs_f64() })
            }
        };
        telemetry.insert(name, v);
    }
    json!({
        "graph": {
            "nodes": stats.nodes,
            "rels": stats.rels,
            "nodes_per_label": labels,
            "rels_per_type": rel_types,
        },
        "telemetry": telemetry,
    })
}
