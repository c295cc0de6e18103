//! Write-query execution: `CREATE`, `MERGE`, `SET`, `DELETE`.
//!
//! The paper's local-instance workflow (§6.1) has users *adding* to the
//! knowledge graph — tagging the resources under study, importing
//! confidential data, materialising intermediate results ("we added
//! temporal SPoF relationships in the knowledge graph"). This module
//! executes the Cypher write clauses against a mutable graph; the
//! read clauses of a write query run in the same executor loop as any
//! read query (`crate::exec::run`).

use crate::ast::*;
use crate::cache;
use crate::error::CypherError;
use crate::eval::{EvalCtx, Row};
use crate::exec::{match_pattern, run, Params, ResultSet, Target};
use crate::plan::{compile, Step};
use crate::rtval::RtVal;
use iyp_graph::{Graph, NodeId, Props, RelId, Value, MAX_VALUE_DEPTH};
use std::collections::HashSet;

/// Counters describing the effects of a write query (the summary Neo4j
/// prints after an update).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Nodes created.
    pub nodes_created: usize,
    /// Relationships created.
    pub rels_created: usize,
    /// Properties written by `SET`.
    pub props_set: usize,
    /// Nodes deleted.
    pub nodes_deleted: usize,
    /// Relationships deleted.
    pub rels_deleted: usize,
}

/// Parses (through the same AST cache as [`crate::Statement`]),
/// compiles and runs a possibly writing query against a mutable graph.
/// Returns the `RETURN` result (empty when the query has none) and the
/// write counters. Writes are not cancellable: a write either runs to
/// completion or fails on an error.
pub fn query_write(
    graph: &mut Graph,
    text: &str,
    params: &Params,
) -> Result<(ResultSet, WriteSummary), CypherError> {
    let _span = iyp_telemetry::span(iyp_telemetry::names::CYPHER_QUERY_SECONDS);
    iyp_telemetry::counter(iyp_telemetry::names::CYPHER_WRITE_QUERIES_TOTAL).incr();
    let ast = cache::parse_cached(text)?;
    if ast.mode != QueryMode::Normal {
        return Err(CypherError::runtime(
            "EXPLAIN/PROFILE are not supported for write queries",
        ));
    }
    let mut plan = compile(graph, &ast);
    run(Target::Write(graph), &mut plan, params, None, false)
}

/// Runs one write step over the rows the previous steps produced.
pub(crate) fn apply(
    graph: &mut Graph,
    params: &Params,
    step: &Step<'_>,
    rows: Vec<Row>,
    summary: &mut WriteSummary,
) -> Result<Vec<Row>, CypherError> {
    match step.clause {
        Clause::Create(patterns) => {
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                for pattern in patterns {
                    row = create_pattern(graph, params, row, pattern, summary)?;
                }
                out.push(row);
            }
            Ok(out)
        }
        Clause::Merge(pattern) => {
            let mut out = Vec::new();
            for row in rows {
                // Bind every existing match, or create the pattern.
                let mut found = Vec::new();
                match_pattern(
                    &EvalCtx::new(graph, params),
                    &row,
                    &HashSet::new(),
                    &step.patterns[0],
                    &mut found,
                    None,
                )?;
                if found.is_empty() {
                    out.push(create_pattern(graph, params, row, pattern, summary)?);
                } else {
                    out.extend(found.into_iter().map(|(r, _)| r));
                }
            }
            Ok(out)
        }
        Clause::Set(items) => {
            set(graph, params, items, &rows, summary)?;
            Ok(rows)
        }
        Clause::Delete { exprs, detach } => {
            delete(graph, params, exprs, *detach, &rows, summary)?;
            Ok(rows)
        }
        _ => unreachable!("read operators run in the executor"),
    }
}

/// `SET`: evaluates every assignment against the pre-`SET` state, then
/// applies them.
fn set(
    graph: &mut Graph,
    params: &Params,
    items: &[SetItem],
    rows: &[Row],
    summary: &mut WriteSummary,
) -> Result<(), CypherError> {
    let mut planned: Vec<(RtVal, &str, Value)> = Vec::new();
    let ctx = EvalCtx::new(graph, params);
    for row in rows {
        for item in items {
            let target = row.get(&item.var).cloned().ok_or_else(|| {
                CypherError::runtime(format!("SET target `{}` is not bound", item.var))
            })?;
            let value = match ctx.eval(&item.value, row)? {
                RtVal::Scalar(s) => storable(&item.key, s)?,
                other => {
                    return Err(CypherError::runtime(format!(
                        "SET value must be a scalar, got {other:?}"
                    )))
                }
            };
            planned.push((target, &item.key, value));
        }
    }
    for (target, key, value) in planned {
        match target {
            RtVal::Node(n) => graph.set_node_prop(n, key, value)?,
            RtVal::Rel(r) => graph.set_rel_prop(r, key, value)?,
            other => {
                return Err(CypherError::runtime(format!(
                    "SET target must be a node or relationship, got {other:?}"
                )))
            }
        }
        summary.props_set += 1;
    }
    Ok(())
}

/// `DELETE` / `DETACH DELETE` of the nodes and relationships the
/// expressions evaluate to, each once.
fn delete(
    graph: &mut Graph,
    params: &Params,
    exprs: &[Expr],
    detach: bool,
    rows: &[Row],
    summary: &mut WriteSummary,
) -> Result<(), CypherError> {
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut rels: Vec<RelId> = Vec::new();
    let ctx = EvalCtx::new(graph, params);
    for row in rows {
        for e in exprs {
            match ctx.eval(e, row)? {
                RtVal::Node(n) => nodes.push(n),
                RtVal::Rel(r) => rels.push(r),
                RtVal::Scalar(Value::Null) => {}
                other => {
                    return Err(CypherError::runtime(format!(
                        "DELETE target must be a node or relationship, got {other:?}"
                    )))
                }
            }
        }
    }
    rels.sort();
    rels.dedup();
    nodes.sort();
    nodes.dedup();
    for r in rels {
        // The rel may already be gone via an earlier detach.
        if graph.rel(r).is_some() {
            graph.delete_rel(r)?;
            summary.rels_deleted += 1;
        }
    }
    for n in nodes {
        let Some(node) = graph.node(n) else { continue };
        if !detach && node.degree() > 0 {
            return Err(CypherError::runtime(
                "cannot DELETE a node that still has relationships \
                 (use DETACH DELETE)",
            ));
        }
        summary.rels_deleted += node.degree();
        graph.delete_node(n)?;
        summary.nodes_deleted += 1;
    }
    Ok(())
}

/// A value about to be stored as property `key`: lists nested deeper
/// than [`MAX_VALUE_DEPTH`] are refused before anything is written,
/// since snapshot and journal decoding would refuse them on recovery.
fn storable(key: &str, value: Value) -> Result<Value, CypherError> {
    if value.depth() > MAX_VALUE_DEPTH {
        return Err(CypherError::runtime(format!(
            "property `{key}`: value nesting too deep (lists nest at most \
             {MAX_VALUE_DEPTH} levels)"
        )));
    }
    Ok(value)
}

/// Evaluates a pattern's inline property maps into concrete values.
fn eval_props(
    graph: &Graph,
    params: &Params,
    row: &Row,
    props: &[(String, Expr)],
) -> Result<Props, CypherError> {
    let ctx = EvalCtx::new(graph, params);
    let mut out = Props::new();
    for (k, e) in props {
        match ctx.eval(e, row)? {
            RtVal::Scalar(v) => {
                out.insert(k.clone(), storable(k, v)?);
            }
            other => {
                return Err(CypherError::runtime(format!(
                    "property `{k}` must be a scalar, got {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

/// Creates one path pattern, binding its variables into the row.
fn create_pattern(
    graph: &mut Graph,
    params: &Params,
    mut row: Row,
    pattern: &PathPattern,
    summary: &mut WriteSummary,
) -> Result<Row, CypherError> {
    let resolve_node = |graph: &mut Graph,
                        row: &mut Row,
                        np: &NodePattern,
                        summary: &mut WriteSummary|
     -> Result<NodeId, CypherError> {
        if let Some(var) = &np.var {
            if let Some(bound) = row.get(var) {
                return bound.as_node().ok_or_else(|| {
                    CypherError::runtime(format!("`{var}` is bound but is not a node"))
                });
            }
        }
        let props = eval_props(graph, params, row, &np.props)?;
        let labels: Vec<&str> = np.labels.iter().map(String::as_str).collect();
        if labels.is_empty() {
            return Err(CypherError::runtime(
                "CREATE/MERGE requires at least one label on new nodes",
            ));
        }
        let id = graph.create_node(&labels, props);
        summary.nodes_created += 1;
        if let Some(var) = &np.var {
            row.insert(var.clone(), RtVal::Node(id));
        }
        Ok(id)
    };

    let mut prev = resolve_node(graph, &mut row, &pattern.start, summary)?;
    for (rp, np) in &pattern.hops {
        if rp.var_length.is_some() {
            return Err(CypherError::runtime(
                "variable-length relationships cannot be created",
            ));
        }
        if rp.types.len() != 1 {
            return Err(CypherError::runtime(
                "CREATE/MERGE relationships need exactly one type",
            ));
        }
        let next = resolve_node(graph, &mut row, np, summary)?;
        let (src, dst) = match rp.dir {
            RelDir::Right => (prev, next),
            RelDir::Left => (next, prev),
            RelDir::Undirected => {
                return Err(CypherError::runtime(
                    "CREATE/MERGE relationships must be directed (use -> or <-)",
                ))
            }
        };
        let props = eval_props(graph, params, &row, &rp.props)?;
        let rel = graph.create_rel(src, &rp.types[0], dst, props)?;
        summary.rels_created += 1;
        if let Some(var) = &rp.var {
            row.insert(var.clone(), RtVal::Rel(rel));
        }
        prev = next;
    }
    Ok(row)
}
