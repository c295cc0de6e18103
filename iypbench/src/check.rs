//! The output check: every response is compared with the in-process
//! `Statement::run` + `encode_value` result on the same snapshot, in an
//! order-insensitive canonical form.
//!
//! Cypher leaves row order unspecified without `ORDER BY` and element
//! order unspecified inside `collect()`, so both are sorted before
//! comparing; everything else must match exactly.

use crate::util::fnv64;
use iyp_cypher::{Params, Statement};
use iyp_graph::Graph;
use iyp_server::{encode_value, Request};
use serde_json::Value;

/// Which result columns are `collect(...)` aggregates, from the text of
/// the query's final `RETURN` clause.
pub fn collect_columns(query: &str) -> Vec<bool> {
    let lower = query.to_ascii_lowercase();
    let Some(at) = lower.rfind("return") else {
        return Vec::new();
    };
    let mut tail = &lower[at + "return".len()..];
    for stop in [" order by", " skip", " limit"] {
        if let Some(i) = tail.find(stop) {
            tail = &tail[..i];
        }
    }
    let mut items = Vec::new();
    let (mut depth, mut start) = (0i32, 0usize);
    for (i, c) in tail.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                items.push(&tail[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&tail[start..]);
    items
        .iter()
        .map(|item| item.replace(char::is_whitespace, "").contains("collect("))
        .collect()
}

/// The canonical text of a result: header line, then one line per row;
/// rows sorted unless the query has `ORDER BY`, `collect()` cells sorted.
pub fn canonical(query: &str, columns: &[String], rows: &[Vec<Value>]) -> String {
    let collected = collect_columns(query);
    let mut lines: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| match cell {
                    Value::Array(items) if collected.get(i).copied().unwrap_or(false) => {
                        let mut parts: Vec<String> = items.iter().map(Value::to_string).collect();
                        parts.sort();
                        format!("[{}]", parts.join(","))
                    }
                    other => other.to_string(),
                })
                .collect();
            cells.join("\t")
        })
        .collect();
    if !query.to_ascii_uppercase().contains("ORDER BY") {
        lines.sort();
    }
    let mut out = columns.join("\t");
    for l in lines {
        out.push('\n');
        out.push_str(&l);
    }
    out
}

/// Digest of the canonical form (what the timed loop keeps per
/// response instead of the response itself).
pub fn digest(query: &str, columns: &[String], rows: &[Vec<Value>]) -> u64 {
    fnv64(canonical(query, columns, rows).as_bytes())
}

/// The reference answer: the in-process engine on the same snapshot,
/// uncached, encoded exactly as the server encodes it.
pub fn expected(graph: &Graph, req: &Request) -> Result<(Vec<String>, Vec<Vec<Value>>), String> {
    let rs = Statement::prepare(&req.query)
        .and_then(|s| s.params(&req.params).no_cache().run(graph))
        .map_err(|e| format!("in-process `{}`: {e}", one_line(&req.query)))?;
    let rows = rs
        .rows
        .iter()
        .map(|row| row.iter().map(|v| encode_value(v, graph)).collect())
        .collect();
    Ok((rs.columns.clone(), rows))
}

pub fn expected_digest(graph: &Graph, req: &Request) -> Result<u64, String> {
    let (columns, rows) = expected(graph, req)?;
    Ok(digest(&req.query, &columns, &rows))
}

/// A request with parameters.
pub fn request(query: &str, params: Params) -> Request {
    Request {
        query: query.to_string(),
        params,
    }
}

pub fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Digests recorded for the default seed, one `workload seed digest`
/// line each; the in-process answers for that seed must reproduce them.
const RECORDED: &str = include_str!("../digests.txt");

pub fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const Q: &str =
        "MATCH (a:AS)-[:NAME]-(n:Name) RETURN a.asn AS asn, collect(DISTINCT n.name) AS names";

    #[test]
    fn finds_collect_columns() {
        assert_eq!(collect_columns(Q), vec![false, true]);
        assert_eq!(
            collect_columns("MATCH (x) RETURN x, COLLECT(DISTINCT y) ORDER BY x LIMIT 3"),
            vec![false, true]
        );
        assert_eq!(
            collect_columns(iyp_studies::spof::Q_ZONE_HOSTING),
            vec![false, true, true]
        );
    }

    #[test]
    fn row_and_collect_order_do_not_matter() {
        let cols = vec!["asn".to_string(), "names".to_string()];
        let a = vec![
            vec![json!(1), json!(["x", "y"])],
            vec![json!(2), json!(["z"])],
        ];
        let b = vec![
            vec![json!(2), json!(["z"])],
            vec![json!(1), json!(["y", "x"])],
        ];
        assert_eq!(digest(Q, &cols, &a), digest(Q, &cols, &b));
    }

    #[test]
    fn tampered_response_fails_the_check() {
        let cols = vec!["asn".to_string(), "names".to_string()];
        let good = vec![vec![json!(1), json!(["x", "y"])]];
        for bad in [
            vec![vec![json!(1), json!(["x", "Y"])]],
            vec![vec![json!(1), json!(["x"])]],
            vec![vec![json!(1), json!(["x", "y"])], vec![json!(1), json!([])]],
            vec![vec![json!(10), json!(["x", "y"])]],
        ] {
            assert_ne!(digest(Q, &cols, &good), digest(Q, &cols, &bad), "{bad:?}");
        }
        // Order inside a list that is not a collect() is significant.
        let q = "MATCH (a:AS) RETURN a.asn AS asn, a.tags AS names";
        assert_ne!(
            digest(q, &cols, &[vec![json!(1), json!(["x", "y"])]]),
            digest(q, &cols, &[vec![json!(1), json!(["y", "x"])]])
        );
    }

    #[test]
    fn ordered_queries_keep_row_order() {
        let q = "MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn";
        let cols = vec!["asn".to_string()];
        assert_ne!(
            digest(q, &cols, &[vec![json!(1)], vec![json!(2)]]),
            digest(q, &cols, &[vec![json!(2)], vec![json!(1)]])
        );
    }

    #[test]
    fn server_answers_match_the_in_process_reference() {
        let mut g = Graph::new();
        for asn in [10u32, 20, 30] {
            let a = g.merge_node("AS", "asn", asn, iyp_graph::Props::new());
            for name in ["b", "a"] {
                let n = g.merge_node(
                    "Name",
                    "name",
                    format!("{name}{asn}").as_str(),
                    iyp_graph::Props::new(),
                );
                g.create_rel(a, "NAME", n, iyp_graph::Props::new()).unwrap();
            }
        }
        let graph = std::sync::Arc::new(g);
        let server = iyp_server::Server::start(graph.clone(), "127.0.0.1:0").unwrap();
        let mut client = iyp_server::Client::connect(server.addr()).unwrap();
        let req = request(Q, Params::new());
        let table = client.query_request(&req).unwrap();
        assert_eq!(
            digest(Q, &table.columns, &table.rows),
            expected_digest(&graph, &req).unwrap()
        );
        let mut tampered = table.rows.clone();
        tampered[0][0] = json!(99);
        assert_ne!(
            digest(Q, &table.columns, &tampered),
            expected_digest(&graph, &req).unwrap()
        );
    }
}
