//! End-to-end service tests: server + client over real sockets.

use iyp_graph::{props, Graph, Props, Value};
use iyp_server::{Client, Request, Response, Server, ServerOptions, Service};
use std::sync::Arc;

fn sample_graph() -> Arc<Graph> {
    let mut g = Graph::new();
    for asn in [2497u32, 64496, 64497] {
        g.merge_node("AS", "asn", asn, Props::new());
    }
    let a = g.merge_node("AS", "asn", 2497u32, props([("name", "IIJ".into())]));
    let p = g.merge_node("Prefix", "prefix", "192.0.2.0/24", Props::new());
    g.create_rel(
        a,
        "ORIGINATE",
        p,
        props([("reference_name", Value::Str("bgpkit".into()))]),
    )
    .unwrap();
    Arc::new(g)
}

fn start() -> (Server, std::net::SocketAddr) {
    let server = Server::start(sample_graph(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    (server, addr)
}

#[test]
fn query_roundtrip() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let table = client.query("MATCH (a:AS) RETURN count(a)").unwrap();
    assert_eq!(table.columns.len(), 1);
    assert_eq!(table.single_int(), Some(3));
    server.stop();
}

#[test]
fn entities_are_transported() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let table = client
        .query("MATCH (a:AS {asn: 2497})-[r:ORIGINATE]-(p:Prefix) RETURN a, r, p")
        .unwrap();
    let rows = &table.rows;
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0]["labels"][0], "AS");
    assert_eq!(rows[0][0]["props"]["asn"], 2497);
    assert_eq!(rows[0][1]["type"], "ORIGINATE");
    assert_eq!(rows[0][2]["props"]["prefix"], "192.0.2.0/24");
    server.stop();
}

#[test]
fn parameters_travel() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let mut req = Request::new("MATCH (a:AS {asn: $asn}) RETURN a.asn");
    req.params.insert("asn".into(), Value::Int(64496));
    let Response::Ok { rows, .. } = client.request(&req).unwrap() else {
        panic!()
    };
    assert_eq!(rows[0][0], serde_json::json!(64496));
    server.stop();
}

#[test]
fn query_errors_are_reported_not_fatal() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let err = client.query("MATCH (a:AS RETURN a").unwrap_err();
    assert_eq!(err.code(), "query", "{err}");
    // The connection survives an error.
    let table = client.query("MATCH (a:AS) RETURN count(a)").unwrap();
    assert_eq!(table.single_int(), Some(3));
    server.stop();
}

#[test]
fn multiple_sequential_requests_per_connection() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..10 {
        let table = client.query("MATCH (a:AS) RETURN count(a)").unwrap();
        assert_eq!(table.single_int(), Some(3));
    }
    assert!(server.served() >= 10);
    server.stop();
}

#[test]
fn concurrent_clients() {
    let (mut server, addr) = start();
    let mut handles = Vec::new();
    for _ in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            for _ in 0..5 {
                let table = client
                    .query("MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN count(*)")
                    .unwrap();
                assert_eq!(table.single_int(), Some(1));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(server.served() >= 40);
    server.stop();
}

#[test]
fn malformed_request_yields_error_line() {
    use std::io::{BufRead, BufReader, Write};
    let (mut server, addr) = start();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let resp = Response::from_line(line.trim()).unwrap();
    assert!(matches!(resp, Response::Error(_)));
    server.stop();
}

#[test]
fn stop_is_idempotent_and_prompt() {
    let (mut server, _addr) = start();
    server.stop();
    server.stop();
}

#[test]
fn ping_liveness() {
    let (mut server, addr) = start();
    // connect() itself performs a PING handshake; probe again manually.
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.ping().unwrap());
    server.stop();
}

#[test]
fn stats_command_reports_graph_and_telemetry() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().unwrap();
    assert_eq!(stats["graph"]["nodes"], serde_json::json!(4));
    assert_eq!(
        stats["graph"]["nodes_per_label"]["AS"],
        serde_json::json!(3)
    );
    assert_eq!(
        stats["graph"]["rels_per_type"]["ORIGINATE"],
        serde_json::json!(1)
    );
    assert!(stats["telemetry"].as_object().is_some());
    server.stop();
}

#[test]
fn explain_flows_through_the_protocol() {
    let (mut server, addr) = start();
    let mut client = Client::connect(addr).expect("connect");
    let table = client
        .query("EXPLAIN MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) RETURN count(*)")
        .unwrap();
    assert_eq!(table.columns, vec!["plan"]);
    let text: Vec<String> = table
        .rows
        .iter()
        .map(|r| r[0].as_str().unwrap().to_string())
        .collect();
    assert!(text[0].starts_with("ProduceResults"), "{text:?}");
    assert!(text.iter().any(|l| l.contains("Match")), "{text:?}");
    server.stop();
}

#[test]
fn empty_lines_are_rejected_with_structured_error() {
    use std::io::{BufRead, BufReader, Write};
    let (mut server, addr) = start();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let Response::Error(msg) = Response::from_line(line.trim()).unwrap() else {
        panic!("expected error")
    };
    assert!(msg.starts_with("empty_request:"), "{msg}");
    server.stop();
}

#[test]
fn connection_cap_rejects_excess_clients_with_busy() {
    use std::io::{BufRead, BufReader};
    let mut server = Server::start_service_with(
        Service::ReadOnly(sample_graph()),
        "127.0.0.1:0",
        ServerOptions {
            max_connections: 2,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // connect() performs a PING roundtrip, so once it returns the
    // handler thread is definitely in flight.
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    assert!(a.ping().unwrap());
    assert!(b.ping().unwrap());

    // Third connection is over the cap: it gets one busy error line.
    let third = std::net::TcpStream::connect(addr).unwrap();
    let mut line = String::new();
    BufReader::new(third).read_line(&mut line).unwrap();
    let Response::Error(msg) = Response::from_line(line.trim()).unwrap() else {
        panic!("expected busy error, got {line:?}")
    };
    assert!(msg.starts_with("busy:"), "{msg}");

    // Releasing a slot lets new clients in again (the handler needs a
    // moment to observe EOF, so retry briefly).
    drop(a);
    let mut readmitted = None;
    for _ in 0..100 {
        if let Ok(c) = Client::connect(addr) {
            readmitted = Some(c);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let mut c = readmitted.expect("slot was never released");
    assert!(c.ping().unwrap());
    drop(b);
    server.stop();
}

#[test]
fn oversized_lines_are_rejected_with_structured_error() {
    use std::io::{BufRead, BufReader, Write};
    let (mut server, addr) = start();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let huge = format!("{{\"query\": \"{}\"}}\n", "x".repeat(2 << 20));
    stream.write_all(huge.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let Response::Error(msg) = Response::from_line(line.trim()).unwrap() else {
        panic!("expected error")
    };
    assert!(msg.starts_with("request_too_large:"), "{msg}");
    server.stop();
}

#[test]
fn hostile_query_nesting_gets_an_error_and_the_server_survives() {
    use std::io::{BufRead, BufReader, Write};
    let (mut server, addr) = start();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // A 6 KB request whose query nests 3000 list levels: deeper than
    // the parser builds, far shallower than the JSON line limit.
    let deep = format!("RETURN {}1{}", "[".repeat(3000), "]".repeat(3000));
    let line = Request::new(&deep).to_line();
    assert!(line.len() < 7_000, "{}", line.len());
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    let Response::Error(msg) = Response::from_line(reply.trim()).unwrap() else {
        panic!("expected error, got {reply}")
    };
    assert!(msg.contains("deeper than 128"), "{msg}");
    let mut client = Client::connect(addr).expect("server still accepts");
    assert!(client.ping().unwrap());
    server.stop();
}

#[test]
fn newline_free_stream_over_the_cap_is_refused_promptly() {
    use std::io::{BufRead, BufReader, Write};
    let (mut server, addr) = start();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let started = std::time::Instant::now();
    // More than the 1 MiB cap, and no newline the server could wait for.
    stream
        .write_all(&vec![b'x'; (1 << 20) + (64 << 10)])
        .unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "reply took {:?}",
        started.elapsed()
    );
    let Response::Error(msg) = Response::from_line(reply.trim()).unwrap() else {
        panic!("expected error, got {reply:?}")
    };
    assert!(msg.starts_with("request_too_large:"), "{msg}");
    server.stop();
}
