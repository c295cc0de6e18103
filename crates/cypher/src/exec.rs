//! The executor: runs a compiled `Plan` clause by clause over a read
//! or a write graph — pattern matching, pipelines, aggregation.

use crate::ast::*;
use crate::cancel::Cancel;
use crate::error::CypherError;
use crate::eval::{rt_eq, truth, EvalCtx, Row};
use crate::par::{self, ParCapture};
use crate::plan::{node_at, pattern_vars, plan_pattern, Access, PatternPlan, Plan, StepStat};
use crate::rtval::{GroupKey, RtVal};
use crate::write::{self, WriteSummary};
use iyp_graph::{Direction, Graph, KeyValue, NodeId, Rel, RelId, RelTypeId, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{self, AtomicU64};
use std::time::Instant;

/// Query parameters.
pub type Params = HashMap<String, Value>;

/// The result of a query: named columns and rows of runtime values.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Column names (projection aliases).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<RtVal>>,
}

impl ResultSet {
    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Iterates the values of one column.
    pub fn column_values<'a>(&'a self, name: &str) -> Box<dyn Iterator<Item = &'a RtVal> + 'a> {
        match self.column(name) {
            Some(i) => Box::new(self.rows.iter().map(move |r| &r[i])),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Convenience: the single value of a one-row, one-column result.
    pub fn single(&self) -> Option<&RtVal> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Convenience: single integer result (e.g. `RETURN count(...)`).
    pub fn single_int(&self) -> Option<i64> {
        self.single()?.as_scalar()?.as_int()
    }

    /// Renders an ASCII table of the results (for examples and debugging).
    pub fn render(&self, graph: &Graph) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(self.columns.join(" | ").len().max(4)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.render(graph)).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// Shapes a rendered plan as a result set: one `plan` column, one row
/// per plan line (so plans flow through the text protocol unchanged).
pub(crate) fn plan_result(plan: &crate::PlanNode) -> ResultSet {
    ResultSet {
        columns: vec!["plan".to_string()],
        rows: plan
            .render_lines()
            .into_iter()
            .map(|line| vec![RtVal::Scalar(Value::Str(line))])
            .collect(),
    }
}

/// The graph a plan runs over: shared for reads, exclusive when the
/// query may write.
pub(crate) enum Target<'g> {
    Read(&'g Graph),
    Write(&'g mut Graph),
}

/// Runs a compiled plan. Read steps run on either target; write steps
/// need [`Target::Write`]. `cancel` is polled at row boundaries
/// throughout. With `profile`, every step records its rows, wall time
/// and parallel stages, and every pattern its operators' rows, on the
/// plan itself (see [`Plan::tree`]).
///
/// A read query must end in `RETURN`; a write query without one returns
/// an empty result.
pub(crate) fn run(
    mut target: Target<'_>,
    plan: &mut Plan<'_>,
    params: &Params,
    cancel: Option<&Cancel>,
    profile: bool,
) -> Result<(ResultSet, WriteSummary), CypherError> {
    let mut rows: Vec<Row> = vec![Row::new()];
    let mut result: Option<ResultSet> = None;
    let mut summary = WriteSummary::default();

    for step in &mut plan.steps {
        let started = profile.then(Instant::now);
        let mut cap = ParCapture::default();
        let graph: &Graph = match &target {
            Target::Read(g) => g,
            Target::Write(g) => g,
        };
        let ctx = EvalCtx {
            graph,
            params,
            cancel,
            profile,
        };
        match step.clause {
            Clause::Match { optional, .. } => {
                rows = exec_match(&ctx, rows, &step.patterns, *optional, Some(&mut cap))?;
            }
            Clause::Where(expr) => rows = exec_where(&ctx, rows, expr, Some(&mut cap))?,
            Clause::Unwind { expr, var } => {
                let mut out = Vec::new();
                for row in rows {
                    let v = ctx.eval(expr, &row)?;
                    if let Some(items) = v.as_list() {
                        for item in items {
                            let mut r = row.clone();
                            r.insert(var.clone(), item);
                            out.push(r);
                        }
                    } else if !v.is_null() {
                        // UNWIND of a non-list single value yields one row.
                        let mut r = row;
                        r.insert(var.clone(), v);
                        out.push(r);
                    }
                }
                rows = out;
            }
            Clause::With(proj) => {
                let (cols, projected) = project(&ctx, rows, proj)?;
                rows = projected
                    .into_iter()
                    .map(|vals| cols.iter().cloned().zip(vals).collect())
                    .collect();
            }
            Clause::Return(proj) => {
                let (columns, projected) = project(&ctx, rows, proj)?;
                result = Some(ResultSet {
                    columns,
                    rows: projected,
                });
                rows = Vec::new();
            }
            _ => {
                let Target::Write(graph) = &mut target else {
                    return Err(CypherError::runtime(
                        "write clauses (CREATE/MERGE/SET/DELETE) need a mutable \
                         graph — use query_write()",
                    ));
                };
                rows = write::apply(graph, params, step, rows, &mut summary)?;
            }
        }
        if let Some(started) = started {
            // RETURN drains `rows` into the result set; every other
            // step leaves its output in `rows`.
            let produced = match (step.clause, &result) {
                (Clause::Return(_), Some(rs)) => rs.rows.len(),
                _ => rows.len(),
            };
            step.stat = Some(StepStat {
                rows: produced as u64,
                time: started.elapsed(),
                par: cap,
            });
        }
    }

    let result = match (result, target) {
        (Some(rs), _) => rs,
        (None, Target::Write(_)) => ResultSet {
            columns: Vec::new(),
            rows: Vec::new(),
        },
        (None, Target::Read(_)) => {
            return Err(CypherError::runtime("query did not produce a RETURN"))
        }
    };
    Ok((result, summary))
}

// ----------------------------------------------------------------------
// MATCH
// ----------------------------------------------------------------------

/// Runs one stage over `items`, `f` appending each item's outputs to
/// `out`. A large stage runs on worker threads in contiguous chunks
/// merged in chunk order, so its output equals a serial run's, and
/// `cap` records how many outputs each chunk produced; a serial stage
/// hands `cap` on to `f` instead, for a nested stage to record into.
/// The cancel token is polled per item.
fn stage<T: Sync, R: Send>(
    ctx: &EvalCtx<'_>,
    items: &[T],
    mut cap: Option<&mut ParCapture>,
    out: &mut Vec<R>,
    f: impl Fn(&T, &mut Vec<R>, Option<&mut ParCapture>) -> Result<(), CypherError> + Sync,
) -> Result<(), CypherError> {
    let threads = par::threads();
    if !par::should_parallelize(items.len(), threads) {
        for item in items {
            ctx.check_cancel()?;
            f(item, out, cap.as_deref_mut())?;
        }
        return Ok(());
    }
    let chunks = par::run_chunks(items, threads, |chunk| {
        let mut local = Vec::new();
        for item in chunk {
            ctx.check_cancel()?;
            f(item, &mut local, None)?;
        }
        Ok(local)
    })?;
    if let Some(cap) = cap {
        cap.record(threads, &chunks.iter().map(Vec::len).collect::<Vec<_>>());
    }
    out.extend(chunks.into_iter().flatten());
    Ok(())
}

/// Runs a `MATCH` clause over the input rows (each row matches
/// independently).
fn exec_match(
    ctx: &EvalCtx<'_>,
    rows: Vec<Row>,
    patterns: &[PatternPlan<'_>],
    optional: bool,
    cap: Option<&mut ParCapture>,
) -> Result<Vec<Row>, CypherError> {
    let mut out = Vec::new();
    stage(ctx, &rows, cap, &mut out, |row, out, cap| {
        match_row(ctx, row, patterns, optional, out, cap)
    })?;
    Ok(out)
}

/// Matches every pattern of a `MATCH` clause against one input row.
fn match_row(
    ctx: &EvalCtx<'_>,
    row: &Row,
    patterns: &[PatternPlan<'_>],
    optional: bool,
    out: &mut Vec<Row>,
    mut cap: Option<&mut ParCapture>,
) -> Result<(), CypherError> {
    let mut matches: Vec<(Row, HashSet<RelId>)> = vec![(row.clone(), HashSet::new())];
    for pp in patterns {
        let mut next = Vec::new();
        for (r, used) in matches {
            match_pattern(ctx, &r, &used, pp, &mut next, cap.as_deref_mut())?;
        }
        matches = next;
        if matches.is_empty() {
            break;
        }
    }
    if matches.is_empty() {
        if optional {
            let mut r = row.clone();
            for pp in patterns {
                for var in pattern_vars(pp.pattern) {
                    r.entry(var.to_string()).or_insert_with(RtVal::null);
                }
            }
            out.push(r);
        }
    } else {
        out.extend(matches.into_iter().map(|(r, _)| r));
    }
    Ok(())
}

/// Runs a `WHERE` clause; the kept rows preserve input order.
fn exec_where(
    ctx: &EvalCtx<'_>,
    rows: Vec<Row>,
    expr: &Expr,
    cap: Option<&mut ParCapture>,
) -> Result<Vec<Row>, CypherError> {
    let numbered: Vec<(usize, &Row)> = rows.iter().enumerate().collect();
    let mut kept = Vec::new();
    stage(ctx, &numbered, cap, &mut kept, |&(i, row), kept, _| {
        if truth(&ctx.eval(expr, row)?) == Some(true) {
            kept.push(i);
        }
        Ok(())
    })?;
    let mut kept = kept.into_iter().peekable();
    Ok(rows
        .into_iter()
        .enumerate()
        .filter_map(|(i, row)| kept.next_if_eq(&i).map(|_| row))
        .collect())
}

/// Evaluates `EXISTS { MATCH patterns [WHERE filter] }` for one row:
/// true when the patterns match at least once given the row's
/// bindings. Each pattern anchors the way [`plan_pattern`] decides for
/// the variables bound at that point.
pub(crate) fn exists(
    ctx: &EvalCtx<'_>,
    patterns: &[PathPattern],
    filter: Option<&Expr>,
    row: &Row,
) -> Result<bool, CypherError> {
    let mut matches: Vec<(Row, HashSet<RelId>)> = vec![(row.clone(), HashSet::new())];
    for pattern in patterns {
        let mut next = Vec::new();
        for (r, used) in matches {
            let pp = plan_pattern(ctx.graph, pattern, |v| r.contains_key(v));
            match_pattern(ctx, &r, &used, &pp, &mut next, None)?;
        }
        matches = next;
        if matches.is_empty() {
            return Ok(false);
        }
    }
    match filter {
        None => Ok(true),
        Some(f) => {
            for (r, _) in matches {
                if truth(&ctx.eval(f, &r)?) == Some(true) {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

/// Matches a single linear pattern from its planned anchor, appending
/// `(row, used)` extensions; large anchor candidate sets run as a
/// parallel stage.
pub(crate) fn match_pattern(
    ctx: &EvalCtx<'_>,
    row: &Row,
    used: &HashSet<RelId>,
    pp: &PatternPlan<'_>,
    out: &mut Vec<(Row, HashSet<RelId>)>,
    cap: Option<&mut ParCapture>,
) -> Result<(), CypherError> {
    let before = out.len();
    let candidates = anchor_candidates(ctx, row, pp)?;
    stage(ctx, &candidates, cap, out, |&cand, out, _| {
        match_candidate(ctx, row, used, pp, cand, out)
    })?;
    if ctx.profile {
        let count = |c: &AtomicU64, n: usize| c.fetch_add(n as u64, atomic::Ordering::Relaxed);
        count(&pp.anchored, candidates.len());
        count(&pp.matched, out.len() - before);
    }
    Ok(())
}

/// Expands the pattern from one anchor candidate that fits the
/// anchor's node pattern.
fn match_candidate(
    ctx: &EvalCtx<'_>,
    row: &Row,
    used: &HashSet<RelId>,
    pp: &PatternPlan<'_>,
    cand: NodeId,
    out: &mut Vec<(Row, HashSet<RelId>)>,
) -> Result<(), CypherError> {
    let anchor_np = pp.anchor_node();
    if !node_matches(ctx, row, anchor_np, cand)? {
        return Ok(());
    }
    let mut r = row.clone();
    if let Some(var) = &anchor_np.var {
        r.insert(var.clone(), RtVal::Node(cand));
    }
    expand(ctx, pp.pattern, pp.anchor, cand, r, used.clone(), out)
}

/// Candidate node ids for a pattern's anchor, by its planned access.
fn anchor_candidates(
    ctx: &EvalCtx<'_>,
    row: &Row,
    pp: &PatternPlan<'_>,
) -> Result<Vec<NodeId>, CypherError> {
    let np = pp.anchor_node();
    match pp.access {
        Access::Bound => {
            let var = np.var.as_deref().unwrap_or_default();
            let v = row
                .get(var)
                .ok_or_else(|| CypherError::runtime(format!("undefined variable `{var}`")))?;
            match v.as_node() {
                Some(n) => Ok(vec![n]),
                None if v.is_null() => Ok(vec![]),
                None => Err(CypherError::runtime(format!(
                    "variable `{var}` is not a node"
                ))),
            }
        }
        Access::IndexSeek { fallback } => {
            // The first inline property whose value is a usable key
            // decides: a hit is the only candidate; a miss (the key may
            // simply not be this label's identity key) scans.
            for (key, expr) in &np.props {
                let v = ctx.eval(expr, row)?;
                if let Some(kv) = v.as_scalar().and_then(KeyValue::from_value) {
                    if let Some(hit) = ctx.graph.lookup(&np.labels[0], key, kv) {
                        return Ok(vec![hit]);
                    }
                    break;
                }
            }
            Ok(ctx.graph.nodes_with_label(fallback).collect())
        }
        Access::LabelScan(label) => Ok(ctx.graph.nodes_with_label(label).collect()),
        Access::AllNodes => Ok(ctx.graph.all_nodes().map(|n| n.id).collect()),
    }
}

/// Checks labels and inline props of a node pattern against a node.
fn node_matches(
    ctx: &EvalCtx<'_>,
    row: &Row,
    np: &NodePattern,
    node: NodeId,
) -> Result<bool, CypherError> {
    let Some(n) = ctx.graph.node(node) else {
        return Ok(false);
    };
    for label in &np.labels {
        match ctx.graph.symbols().get_label(label) {
            Some(id) if n.has_label(id) => {}
            _ => return Ok(false),
        }
    }
    for (key, expr) in &np.props {
        let want = ctx.eval(expr, row)?;
        let have = RtVal::Scalar(n.prop(key).cloned().unwrap_or(Value::Null));
        if rt_eq(&have, &want) != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Checks inline props of a relationship pattern.
fn rel_matches(
    ctx: &EvalCtx<'_>,
    row: &Row,
    rp: &RelPattern,
    rel: &Rel,
) -> Result<bool, CypherError> {
    if !rp.types.is_empty() {
        let name = ctx.graph.symbols().rel_type_name(rel.rel_type);
        if !rp.types.iter().any(|t| t == name) {
            return Ok(false);
        }
    }
    for (key, expr) in &rp.props {
        let want = ctx.eval(expr, row)?;
        let have = RtVal::Scalar(rel.prop(key).cloned().unwrap_or(Value::Null));
        if rt_eq(&have, &want) != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Expands the pattern in both directions from the anchor node.
#[allow(clippy::too_many_arguments)]
fn expand(
    ctx: &EvalCtx<'_>,
    pattern: &PathPattern,
    anchor: usize,
    anchor_node: NodeId,
    row: Row,
    used: HashSet<RelId>,
    out: &mut Vec<(Row, HashSet<RelId>)>,
) -> Result<(), CypherError> {
    // Node positions: 0..=hops.len(). Hop i sits between node i and i+1.
    // We expand rightward first (anchor..end), then leftward (anchor..0),
    // via a work stack of partial states.
    struct State {
        row: Row,
        used: HashSet<RelId>,
        right: usize, // next hop index to expand rightward
        left: usize,  // next hop index (+1) to expand leftward; 0 = done
        right_node: NodeId,
        left_node: NodeId,
    }
    let mut stack = vec![State {
        row,
        used,
        right: anchor,
        left: anchor,
        right_node: anchor_node,
        left_node: anchor_node,
    }];

    while let Some(st) = stack.pop() {
        // Expansion work stacks can blow up on dense graphs; poll the
        // cancel token per popped state, not just per row.
        ctx.check_cancel()?;
        // Rightward hops first (node `right` to `right + 1`), then
        // leftward ones (node `left` to `left - 1`, arrows reversed).
        let rightward = st.right < pattern.hops.len();
        if !rightward && st.left == 0 {
            out.push((st.row, st.used));
            continue;
        }
        let (hop, from, np) = if rightward {
            (st.right, st.right_node, &pattern.hops[st.right].1)
        } else {
            (st.left - 1, st.left_node, node_at(pattern, st.left - 1))
        };
        let rp = &pattern.hops[hop].0;
        let dir = match (rp.dir, rightward) {
            (RelDir::Undirected, _) => Direction::Both,
            (RelDir::Right, true) | (RelDir::Left, false) => Direction::Outgoing,
            _ => Direction::Incoming,
        };
        let on_match = |row, used, node| {
            stack.push(if rightward {
                State {
                    row,
                    used,
                    right: hop + 1,
                    right_node: node,
                    ..st
                }
            } else {
                State {
                    row,
                    used,
                    left: hop,
                    left_node: node,
                    ..st
                }
            })
        };
        match rp.var_length {
            Some((min, max)) => step_var_length(
                ctx, &st.row, &st.used, from, rp, np, dir, min, max, on_match,
            )?,
            None => step(ctx, &st.row, &st.used, from, rp, np, dir, on_match)?,
        }
    }
    Ok(())
}

/// A single-type pattern's type id, resolved through the interner
/// once per step; `None` when the type is unknown (it matches
/// nothing), `Some(None)` when the pattern allows several types.
fn type_filter(graph: &Graph, rp: &RelPattern) -> Option<Option<RelTypeId>> {
    match rp.types.as_slice() {
        [only] => graph.symbols().get_rel_type(only).map(Some),
        _ => Some(None),
    }
}

/// Takes one step across a relationship pattern from `from`, invoking
/// `push` for every valid `(row, used, next_node)` extension.
#[allow(clippy::too_many_arguments)]
fn step(
    ctx: &EvalCtx<'_>,
    row: &Row,
    used: &HashSet<RelId>,
    from: NodeId,
    rp: &RelPattern,
    np: &NodePattern,
    dir: Direction,
    mut push: impl FnMut(Row, HashSet<RelId>, NodeId),
) -> Result<(), CypherError> {
    let Some(type_filter) = type_filter(ctx.graph, rp) else {
        return Ok(());
    };

    let bound_rel = rp.var.as_ref().and_then(|v| row.get(v)).cloned();

    let rels: Vec<&Rel> = ctx.graph.rels_of(from, dir, type_filter).collect();
    for rel in rels {
        if let Some(bound) = &bound_rel {
            if bound.as_rel() != Some(rel.id) {
                continue;
            }
        } else if used.contains(&rel.id) {
            continue;
        }
        if !rel_matches(ctx, row, rp, rel)? {
            continue;
        }
        let next = rel.other(from);
        // Directed traversal from `from`: ensure orientation is right
        // when dir is Outgoing/Incoming (rels_of already filters);
        // for self-loops `other` returns `from` which is fine.
        if !node_matches(ctx, row, np, next)? {
            continue;
        }
        if let Some(var) = &np.var {
            if let Some(existing) = row.get(var) {
                if existing.as_node() != Some(next) {
                    continue;
                }
            }
        }
        let mut new_row = row.clone();
        let mut new_used = used.clone();
        if let Some(var) = &rp.var {
            new_row.insert(var.clone(), RtVal::Rel(rel.id));
        }
        if bound_rel.is_none() {
            new_used.insert(rel.id);
        }
        if let Some(var) = &np.var {
            new_row.insert(var.clone(), RtVal::Node(next));
        }
        push(new_row, new_used, next);
    }
    Ok(())
}

/// Variable-length traversal: explores every path of `min..=max` hops
/// whose relationships all satisfy the pattern, invoking `push` once per
/// path endpoint (Cypher semantics: one row per *path*). The rel
/// variable, if any, binds the list of traversed relationships.
#[allow(clippy::too_many_arguments)]
fn step_var_length(
    ctx: &EvalCtx<'_>,
    row: &Row,
    used: &HashSet<RelId>,
    from: NodeId,
    rp: &RelPattern,
    np: &NodePattern,
    dir: Direction,
    min: u32,
    max: u32,
    mut push: impl FnMut(Row, HashSet<RelId>, NodeId),
) -> Result<(), CypherError> {
    let Some(type_filter) = type_filter(ctx.graph, rp) else {
        return Ok(());
    };

    struct PathState {
        node: NodeId,
        used: HashSet<RelId>,
        rels: Vec<RelId>,
    }
    let mut stack = vec![PathState {
        node: from,
        used: used.clone(),
        rels: Vec::new(),
    }];

    while let Some(st) = stack.pop() {
        // Var-length paths are the classic runaway: poll per state.
        ctx.check_cancel()?;
        let depth = st.rels.len() as u32;
        // Emit the endpoint when within bounds and the node pattern
        // accepts it.
        if depth >= min && node_matches(ctx, row, np, st.node)? {
            let node_ok = match np.var.as_ref().and_then(|v| row.get(v)) {
                Some(existing) => existing.as_node() == Some(st.node),
                None => true,
            };
            if node_ok {
                let mut new_row = row.clone();
                if let Some(var) = &rp.var {
                    new_row.insert(
                        var.clone(),
                        RtVal::List(st.rels.iter().map(|r| RtVal::Rel(*r)).collect()),
                    );
                }
                if let Some(var) = &np.var {
                    new_row.insert(var.clone(), RtVal::Node(st.node));
                }
                push(new_row, st.used.clone(), st.node);
            }
        }
        if depth >= max {
            continue;
        }
        let rels: Vec<&Rel> = ctx.graph.rels_of(st.node, dir, type_filter).collect();
        for rel in rels {
            if st.used.contains(&rel.id) {
                continue;
            }
            if !rel_matches(ctx, row, rp, rel)? {
                continue;
            }
            let mut used2 = st.used.clone();
            used2.insert(rel.id);
            let mut rels2 = st.rels.clone();
            rels2.push(rel.id);
            stack.push(PathState {
                node: rel.other(st.node),
                used: used2,
                rels: rels2,
            });
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Projection (WITH / RETURN)
// ----------------------------------------------------------------------

pub(crate) fn project(
    ctx: &EvalCtx<'_>,
    rows: Vec<Row>,
    proj: &Projection,
) -> Result<(Vec<String>, Vec<Vec<RtVal>>), CypherError> {
    let columns: Vec<String> = proj.items.iter().map(|i| i.alias.clone()).collect();
    let has_aggregate = proj.items.iter().any(|i| i.expr.contains_aggregate());

    // Produce raw output rows (plus a representative input row for each,
    // used by ORDER BY to reference pre-projection variables).
    let mut produced: Vec<(Vec<RtVal>, Row)> = Vec::new();

    if has_aggregate {
        // Group rows by the non-aggregate items. Key expressions are
        // evaluated (in parallel for large inputs, order preserved),
        // then rows merge serially into groups — first-occurrence
        // order, so grouping is deterministic and thread-count
        // independent. Keys are structural [`GroupKey`]s, not rendered
        // strings, so distinct values can no longer collide.
        let group_idx: Vec<usize> = proj
            .items
            .iter()
            .enumerate()
            .filter(|(_, i)| !i.expr.contains_aggregate())
            .map(|(k, _)| k)
            .collect();
        let eval_key = |row: &Row| -> Result<(Vec<RtVal>, Vec<GroupKey>), CypherError> {
            let mut key = Vec::with_capacity(group_idx.len());
            for &k in &group_idx {
                key.push(ctx.eval(&proj.items[k].expr, row)?);
            }
            let gk = key.iter().map(RtVal::group_key).collect();
            Ok((key, gk))
        };
        let mut keys = Vec::with_capacity(rows.len());
        stage(ctx, &rows, None, &mut keys, |row, out, _| {
            out.push(eval_key(row)?);
            Ok(())
        })?;
        let mut groups: Vec<(Vec<RtVal>, Vec<Row>)> = Vec::new();
        let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        for (row, (key, gk)) in rows.into_iter().zip(keys) {
            match index.get(&gk) {
                Some(&g) => groups[g].1.push(row),
                None => {
                    index.insert(gk, groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        // Aggregates over zero rows with no grouping keys still produce
        // one row (e.g. `RETURN count(*)` on an empty match).
        if groups.is_empty() && group_idx.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        for (key, group_rows) in groups {
            let mut out_row = Vec::with_capacity(proj.items.len());
            let mut key_iter = key.into_iter();
            for item in &proj.items {
                if item.expr.contains_aggregate() {
                    out_row.push(eval_aggregated(ctx, &item.expr, &group_rows)?);
                } else {
                    out_row.push(key_iter.next().expect("key arity"));
                }
            }
            let repr = group_rows.into_iter().next().unwrap_or_default();
            produced.push((out_row, repr));
        }
    } else {
        // Plain projection: evaluate items per row, in parallel for
        // large inputs (order preserved by chunk-order merge).
        let eval_row = |row: &Row| -> Result<Vec<RtVal>, CypherError> {
            let mut out_row = Vec::with_capacity(proj.items.len());
            for item in &proj.items {
                out_row.push(ctx.eval(&item.expr, row)?);
            }
            Ok(out_row)
        };
        let mut outs = Vec::with_capacity(rows.len());
        stage(ctx, &rows, None, &mut outs, |row, out, _| {
            out.push(eval_row(row)?);
            Ok(())
        })?;
        produced = outs.into_iter().zip(rows).collect();
    }

    if proj.distinct {
        let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
        produced.retain(|(vals, _)| seen.insert(vals.iter().map(RtVal::group_key).collect()));
    }

    let ordered: Vec<Vec<RtVal>> = if proj.order_by.is_empty() {
        produced.into_iter().map(|(vals, _)| vals).collect()
    } else {
        // Decorate–sort–undecorate: ORDER BY sees projected aliases
        // plus the original bindings, so overlay the aliases onto the
        // representative row (consumed, not cloned) to evaluate keys,
        // then sort by the precomputed keys alone.
        let mut keyed: Vec<(Vec<RtVal>, Vec<RtVal>)> = Vec::with_capacity(produced.len());
        for (vals, mut scope) in produced {
            for (c, v) in columns.iter().zip(vals.iter()) {
                scope.insert(c.clone(), v.clone());
            }
            let mut keys = Vec::with_capacity(proj.order_by.len());
            for ok in &proj.order_by {
                keys.push(ctx.eval(&ok.expr, &scope)?);
            }
            keyed.push((keys, vals));
        }
        keyed.sort_by(|a, b| {
            for (i, ok) in proj.order_by.iter().enumerate() {
                let c = a.0[i].order(&b.0[i]);
                let c = if ok.descending { c.reverse() } else { c };
                if c != Ordering::Equal {
                    return c;
                }
            }
            Ordering::Equal
        });
        keyed.into_iter().map(|(_, vals)| vals).collect()
    };

    let empty = Row::new();
    let skip = match &proj.skip {
        Some(e) => eval_usize(ctx, e, &empty, "SKIP")?,
        None => 0,
    };
    let limit = match &proj.limit {
        Some(e) => eval_usize(ctx, e, &empty, "LIMIT")?,
        None => usize::MAX,
    };

    let rows_out: Vec<Vec<RtVal>> = ordered.into_iter().skip(skip).take(limit).collect();
    Ok((columns, rows_out))
}

fn eval_usize(ctx: &EvalCtx<'_>, e: &Expr, row: &Row, what: &str) -> Result<usize, CypherError> {
    let v = ctx.eval(e, row)?;
    v.as_scalar()
        .and_then(|v| v.as_int())
        .filter(|i| *i >= 0)
        .map(|i| i as usize)
        .ok_or_else(|| CypherError::runtime(format!("{what} must be a non-negative integer")))
}

/// Evaluates an expression that contains aggregates over a group.
fn eval_aggregated(ctx: &EvalCtx<'_>, expr: &Expr, group: &[Row]) -> Result<RtVal, CypherError> {
    match expr {
        Expr::Call {
            name,
            distinct,
            args,
        } if is_aggregate_fn(name) => compute_aggregate(ctx, name, *distinct, args, group),
        _ => {
            let mut values = Row::new();
            let lifted = lift_aggregates(ctx, expr, group, &mut values)?;
            ctx.eval(&lifted, &values)
        }
    }
}

/// `expr` with each aggregate call, and each aggregate-free operand
/// (evaluated on the group's first row), replaced by a variable bound
/// to its value in `values`.
fn lift_aggregates(
    ctx: &EvalCtx<'_>,
    expr: &Expr,
    group: &[Row],
    values: &mut Row,
) -> Result<Expr, CypherError> {
    let mut lift = |e: &Expr| lift_aggregates(ctx, e, group, values);
    let value = match expr {
        Expr::Call { name, .. } if is_aggregate_fn(name) => eval_aggregated(ctx, expr, group)?,
        _ if !expr.contains_aggregate() => ctx.eval(expr, group.first().unwrap_or(&Row::new()))?,
        Expr::Binary(op, a, b) => {
            return Ok(Expr::Binary(*op, Box::new(lift(a)?), Box::new(lift(b)?)))
        }
        Expr::Unary(op, a) => return Ok(Expr::Unary(*op, Box::new(lift(a)?))),
        Expr::Call {
            name,
            distinct,
            args,
        } => {
            return Ok(Expr::Call {
                name: name.clone(),
                distinct: *distinct,
                args: args.iter().map(lift).collect::<Result<_, _>>()?,
            })
        }
        other => {
            return Err(CypherError::runtime(format!(
                "unsupported aggregate expression shape: {other:?}"
            )))
        }
    };
    let var = format!("\u{1}{}", values.len());
    values.insert(var.clone(), value);
    Ok(Expr::Var(var))
}

fn compute_aggregate(
    ctx: &EvalCtx<'_>,
    name: &str,
    distinct: bool,
    args: &[Expr],
    group: &[Row],
) -> Result<RtVal, CypherError> {
    // count(*) has no args.
    if name == "count" && args.is_empty() {
        return Ok(RtVal::Scalar(Value::Int(group.len() as i64)));
    }
    let arg = args
        .first()
        .ok_or_else(|| CypherError::runtime(format!("{name}() requires an argument")))?;

    let mut values: Vec<RtVal> = Vec::with_capacity(group.len());
    for row in group {
        let v = ctx.eval(arg, row)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut seen: HashSet<GroupKey> = HashSet::new();
        values.retain(|v| seen.insert(v.group_key()));
    }

    match name {
        "count" => Ok(RtVal::Scalar(Value::Int(values.len() as i64))),
        "collect" => {
            if values.iter().all(|v| matches!(v, RtVal::Scalar(_))) {
                Ok(RtVal::Scalar(Value::List(
                    values
                        .into_iter()
                        .map(|v| match v {
                            RtVal::Scalar(s) => s,
                            _ => unreachable!(),
                        })
                        .collect(),
                )))
            } else {
                Ok(RtVal::List(values))
            }
        }
        "sum" => {
            let mut int_sum: i64 = 0;
            let mut float_sum: f64 = 0.0;
            let mut any_float = false;
            for v in &values {
                match v.as_scalar() {
                    Some(Value::Int(i)) => int_sum += i,
                    Some(Value::Float(f)) => {
                        any_float = true;
                        float_sum += f;
                    }
                    _ => return Err(CypherError::runtime("sum() over non-numbers")),
                }
            }
            Ok(RtVal::Scalar(if any_float {
                Value::Float(float_sum + int_sum as f64)
            } else {
                Value::Int(int_sum)
            }))
        }
        "avg" => {
            if values.is_empty() {
                return Ok(RtVal::null());
            }
            let mut sum = 0.0;
            for v in &values {
                sum += v
                    .as_scalar()
                    .and_then(|s| s.as_float())
                    .ok_or_else(|| CypherError::runtime("avg() over non-numbers"))?;
            }
            Ok(RtVal::Scalar(Value::Float(sum / values.len() as f64)))
        }
        "min" => Ok(values
            .into_iter()
            .min_by(|a, b| a.order(b))
            .unwrap_or_else(RtVal::null)),
        "max" => Ok(values
            .into_iter()
            .max_by(|a, b| a.order(b))
            .unwrap_or_else(RtVal::null)),
        "percentilecont" | "percentiledisc" => {
            let p_expr = args
                .get(1)
                .ok_or_else(|| CypherError::runtime(format!("{name}() needs a percentile")))?;
            let p = ctx
                .eval(p_expr, group.first().unwrap_or(&Row::new()))?
                .as_scalar()
                .and_then(|v| v.as_float())
                .ok_or_else(|| CypherError::runtime("percentile must be a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(CypherError::runtime("percentile must be in [0, 1]"));
            }
            let mut nums: Vec<f64> = Vec::with_capacity(values.len());
            for v in &values {
                nums.push(
                    v.as_scalar()
                        .and_then(|s| s.as_float())
                        .ok_or_else(|| CypherError::runtime("percentile over non-numbers"))?,
                );
            }
            if nums.is_empty() {
                return Ok(RtVal::null());
            }
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            if name == "percentiledisc" {
                let idx = ((p * nums.len() as f64).ceil() as usize).clamp(1, nums.len()) - 1;
                Ok(RtVal::Scalar(Value::Float(nums[idx])))
            } else {
                let rank = p * (nums.len() - 1) as f64;
                let lo = rank.floor() as usize;
                let hi = rank.ceil() as usize;
                let frac = rank - lo as f64;
                Ok(RtVal::Scalar(Value::Float(
                    nums[lo] + (nums[hi] - nums[lo]) * frac,
                )))
            }
        }
        "stdev" => {
            if values.len() < 2 {
                return Ok(RtVal::Scalar(Value::Float(0.0)));
            }
            let mut nums: Vec<f64> = Vec::with_capacity(values.len());
            for v in &values {
                nums.push(
                    v.as_scalar()
                        .and_then(|s| s.as_float())
                        .ok_or_else(|| CypherError::runtime("stdev over non-numbers"))?,
                );
            }
            let mean = nums.iter().sum::<f64>() / nums.len() as f64;
            let var =
                nums.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (nums.len() - 1) as f64;
            Ok(RtVal::Scalar(Value::Float(var.sqrt())))
        }
        other => Err(CypherError::runtime(format!("unknown aggregate {other}()"))),
    }
}
