//! The compiled plan: the operator chain the executor walks, and its
//! `EXPLAIN`/`PROFILE` rendering.
//!
//! `compile` walks the clauses once with the set of variables in
//! scope and records, for every `MATCH`, `OPTIONAL MATCH` and `MERGE`
//! pattern, which node the match starts from and how it finds that
//! node's candidates (`plan_pattern`). The executor
//! (`crate::exec::run`) reads those decisions instead of re-deciding
//! them per row, and under `PROFILE` it records what every operator
//! produced on the plan itself. `Plan::tree` renders that same plan,
//! so `EXPLAIN` shows what will run and `PROFILE` what ran.
//!
//! Building a plan allocates no display strings; operator names and
//! details are rendered only by `Plan::tree`.

use crate::ast::*;
use crate::par::ParCapture;
use iyp_graph::Graph;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One operator in a rendered execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Operator name, e.g. `NodeByLabelScan`, `Filter`, `ProduceResults`.
    pub op: String,
    /// Human-readable operator arguments.
    pub detail: String,
    /// The operator's input (the chain is linear: zero or one child).
    pub children: Vec<PlanNode>,
    /// Rows this operator produced (`PROFILE` only).
    pub rows: Option<u64>,
    /// Wall time spent in this operator's clause (`PROFILE` only).
    pub time: Option<Duration>,
    /// Worker threads the operator ran on (`PROFILE` only; absent or 1
    /// means it ran serially).
    pub parallelism: Option<usize>,
    /// Rows produced per worker slot (`PROFILE` only, parallel runs).
    pub chunk_rows: Option<Vec<u64>>,
    /// Whether the query-result cache answered (`"hit"`) or was
    /// populated (`"miss"`) by this run. Set on the root operator only,
    /// by `PROFILE` when a cache is enabled; rendered as `cache=hit`
    /// in the annotation notes.
    pub cache: Option<&'static str>,
}

impl PlanNode {
    /// A bare operator node.
    pub fn new(op: impl Into<String>, detail: impl Into<String>) -> Self {
        PlanNode {
            op: op.into(),
            detail: detail.into(),
            children: Vec::new(),
            rows: None,
            time: None,
            parallelism: None,
            chunk_rows: None,
            cache: None,
        }
    }

    /// Pretty-prints the plan as an indented operator tree, one line
    /// per operator, annotations aligned right when present.
    pub fn render(&self) -> String {
        self.render_lines().join("\n")
    }

    /// The plan as individual display lines (used to shape a
    /// [`crate::ResultSet`] for the text protocol).
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        self.render_into(0, &mut lines);
        lines
    }

    fn render_into(&self, depth: usize, out: &mut Vec<String>) {
        let indent = if depth == 0 {
            String::new()
        } else {
            format!("{}+- ", "   ".repeat(depth - 1))
        };
        let mut line = format!("{indent}{}", self.op);
        if !self.detail.is_empty() {
            line.push_str(&format!(" ({})", self.detail));
        }
        let mut notes = Vec::new();
        if let Some(rows) = self.rows {
            notes.push(format!("rows={rows}"));
        }
        if let Some(t) = self.time {
            notes.push(format!("time={:.3}ms", t.as_secs_f64() * 1e3));
        }
        if let Some(par) = self.parallelism.filter(|p| *p > 1) {
            notes.push(format!("par={par}"));
            if let Some(chunks) = self.chunk_rows.as_ref().filter(|c| !c.is_empty()) {
                let per: Vec<String> = chunks.iter().map(u64::to_string).collect();
                notes.push(format!("chunks={}", per.join("/")));
            }
        }
        if let Some(c) = self.cache {
            notes.push(format!("cache={c}"));
        }
        if !notes.is_empty() {
            line.push_str(&format!("  [{}]", notes.join(" ")));
        }
        out.push(line);
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Depth-first operator list, root first (the chain is linear, so
    /// this is execution order reversed).
    pub fn flatten(&self) -> Vec<&PlanNode> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.flatten());
        }
        out
    }

    /// Finds the first operator whose name matches.
    pub fn find(&self, op: &str) -> Option<&PlanNode> {
        self.flatten().into_iter().find(|n| n.op == op)
    }
}

/// A compiled query: one step per clause, in execution order.
pub(crate) struct Plan<'q> {
    pub(crate) steps: Vec<Step<'q>>,
}

/// One clause of the plan: the clause, its patterns with their anchor
/// decisions (`MATCH`, `OPTIONAL MATCH` and `MERGE`; in source order),
/// and what `PROFILE` measured on it.
pub(crate) struct Step<'q> {
    pub(crate) clause: &'q Clause,
    pub(crate) patterns: Vec<PatternPlan<'q>>,
    pub(crate) stat: Option<StepStat>,
}

/// `PROFILE` measurements of one step.
pub(crate) struct StepStat {
    /// Rows the step produced.
    pub(crate) rows: u64,
    /// Wall time the step took.
    pub(crate) time: Duration,
    /// Parallel stages the step ran.
    pub(crate) par: ParCapture,
}

/// A pattern with its anchor decision: matching starts at node
/// position `anchor` (0 = the pattern's first node) and gets that
/// node's candidates through `access`.
pub(crate) struct PatternPlan<'q> {
    pub(crate) pattern: &'q PathPattern,
    pub(crate) anchor: usize,
    pub(crate) access: Access<'q>,
    /// `PROFILE` counters: rows the access operator produced (the
    /// anchor's candidate nodes) …
    pub(crate) anchored: AtomicU64,
    /// … and rows the whole pattern produced.
    pub(crate) matched: AtomicU64,
}

/// How the anchor's candidate nodes are found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access<'q> {
    /// The anchor's variable is already bound: its one value.
    Bound,
    /// A labelled node with an inline property: a unique-key lookup on
    /// its first label, scanning `fallback` when the lookup misses.
    IndexSeek { fallback: &'q str },
    /// The nodes of one label (the anchor's least populated one).
    LabelScan(&'q str),
    /// Every node.
    AllNodes,
}

impl<'q> PatternPlan<'q> {
    /// The anchor's node pattern.
    pub(crate) fn anchor_node(&self) -> &'q NodePattern {
        node_at(self.pattern, self.anchor)
    }
}

/// The node pattern at position `idx` (0 = start).
pub(crate) fn node_at(pattern: &PathPattern, idx: usize) -> &NodePattern {
    if idx == 0 {
        &pattern.start
    } else {
        &pattern.hops[idx - 1].1
    }
}

/// Every variable a pattern binds (nodes and relationships), in
/// source order.
pub(crate) fn pattern_vars(pattern: &PathPattern) -> impl Iterator<Item = &str> {
    std::iter::once(pattern.start.var.as_deref())
        .chain(
            pattern
                .hops
                .iter()
                .flat_map(|(r, n)| [r.var.as_deref(), n.var.as_deref()]),
        )
        .flatten()
}

/// Picks a pattern's anchor and access path, in strict preference
/// order: a node whose variable is `bound`, then an index seek (a
/// labelled node with an inline property), then the smallest label
/// scan (ranked by each node's first label), then all nodes. Ties keep
/// the earlier node. Writing the selective end of a pattern first is
/// therefore not required.
pub(crate) fn plan_pattern<'q>(
    graph: &Graph,
    pattern: &'q PathPattern,
    bound: impl Fn(&str) -> bool,
) -> PatternPlan<'q> {
    let nodes = std::iter::once(&pattern.start).chain(pattern.hops.iter().map(|(_, n)| n));
    // Rank: 0 bound, 1 index seek, 2 + n a scan of n nodes.
    let mut best: Option<(usize, usize)> = None;
    for (pos, np) in nodes.enumerate() {
        let rank = if np.var.as_deref().is_some_and(&bound) {
            0
        } else if !np.labels.is_empty() && !np.props.is_empty() {
            1
        } else {
            2 + match np.labels.first() {
                Some(label) => graph.label_count(label),
                None => graph.node_count(),
            }
        };
        if best.is_none_or(|(r, _)| rank < r) {
            best = Some((rank, pos));
        }
    }
    let (rank, anchor) = best.expect("a pattern has at least one node");
    let np = node_at(pattern, anchor);
    let smallest = np
        .labels
        .iter()
        .min_by_key(|l| graph.label_count(l))
        .map(String::as_str);
    let access = match (rank, smallest) {
        (0, _) => Access::Bound,
        (1, Some(fallback)) => Access::IndexSeek { fallback },
        (_, Some(label)) => Access::LabelScan(label),
        (_, None) => Access::AllNodes,
    };
    PatternPlan {
        pattern,
        anchor,
        access,
        anchored: AtomicU64::new(0),
        matched: AtomicU64::new(0),
    }
}

/// Compiles a parsed query into the plan the executor runs. `WITH`
/// resets the variables in scope to its aliases, `UNWIND` adds its
/// variable, and each pattern adds its own once it is planned, so the
/// second pattern of a `MATCH` can anchor on the first one's nodes.
///
/// Label counts are read once, here: a write query plans against the
/// graph as it was when the query started.
pub(crate) fn compile<'q>(graph: &Graph, query: &'q Query) -> Plan<'q> {
    let mut scope: HashSet<&'q str> = HashSet::new();
    let mut steps = Vec::with_capacity(query.clauses.len());
    for clause in &query.clauses {
        let planned: &'q [PathPattern] = match clause {
            Clause::Match { patterns, .. } => patterns,
            Clause::Merge(p) => std::slice::from_ref(p),
            _ => &[],
        };
        let mut patterns = Vec::with_capacity(planned.len());
        for p in planned {
            patterns.push(plan_pattern(graph, p, |v| scope.contains(v)));
            scope.extend(pattern_vars(p));
        }
        match clause {
            Clause::Unwind { var, .. } => {
                scope.insert(var);
            }
            Clause::With(proj) => scope = proj.items.iter().map(|i| i.alias.as_str()).collect(),
            Clause::Create(created) => scope.extend(created.iter().flat_map(pattern_vars)),
            _ => {}
        }
        steps.push(Step {
            clause,
            patterns,
            stat: None,
        });
    }
    Plan { steps }
}

impl Plan<'_> {
    /// Renders the plan as an operator chain rooted at its last step;
    /// each operator's child is its input. After a `PROFILE` run every
    /// operator carries the rows it produced, and each clause's top
    /// operator its wall time and parallel stages.
    pub(crate) fn tree(&self, graph: &Graph) -> PlanNode {
        let mut chain: Option<PlanNode> = None;
        let mut push = |mut node: PlanNode, rows: Option<u64>| {
            node.rows = rows;
            node.children.extend(chain.take());
            chain = Some(node);
        };
        for step in &self.steps {
            let profiled = step.stat.is_some();
            for pp in &step.patterns {
                let count = |c: &AtomicU64| profiled.then(|| c.load(Ordering::Relaxed));
                push(access_node(graph, pp), count(&pp.anchored));
                if !pp.pattern.hops.is_empty() {
                    push(
                        PlanNode::new("Expand", pattern_summary(pp.pattern)),
                        count(&pp.matched),
                    );
                }
            }
            let mut node = step_node(step.clause);
            if let Some(stat) = &step.stat {
                node.time = Some(stat.time);
                if stat.par.parallelism > 1 {
                    node.parallelism = Some(stat.par.parallelism);
                    node.chunk_rows = Some(stat.par.chunk_rows.clone());
                }
            }
            push(node, step.stat.as_ref().map(|s| s.rows));
        }
        chain.unwrap_or_else(|| PlanNode::new("EmptyPlan", ""))
    }
}

/// The operator that finds a pattern's anchor candidates.
fn access_node(graph: &Graph, pp: &PatternPlan<'_>) -> PlanNode {
    let np = pp.anchor_node();
    let var = np.var.as_deref().unwrap_or("_");
    match pp.access {
        Access::Bound => PlanNode::new("BoundVariable", var),
        Access::IndexSeek { .. } => PlanNode::new("NodeIndexSeek", node_body(np)),
        Access::LabelScan(label) => PlanNode::new(
            "NodeByLabelScan",
            format!("{var}:{label} (~{} nodes)", graph.label_count(label)),
        ),
        Access::AllNodes => PlanNode::new(
            "AllNodesScan",
            format!("{var} (~{} nodes)", graph.node_count()),
        ),
    }
}

/// The operator line of a clause's own work (above its patterns, if
/// any).
fn step_node(clause: &Clause) -> PlanNode {
    let list = |items: Vec<String>| items.join(", ");
    match clause {
        Clause::Match { optional, patterns } => PlanNode::new(
            if *optional { "OptionalMatch" } else { "Match" },
            patterns
                .iter()
                .flat_map(pattern_vars)
                .collect::<Vec<_>>()
                .join(", "),
        ),
        Clause::Where(e) => PlanNode::new("Filter", expr_summary(e)),
        Clause::Unwind { expr, var } => {
            PlanNode::new("Unwind", format!("{} AS {var}", expr_summary(expr)))
        }
        Clause::With(proj) => PlanNode::new("Projection", projection_summary(proj)),
        Clause::Return(proj) => PlanNode::new("ProduceResults", projection_summary(proj)),
        Clause::Create(patterns) => PlanNode::new(
            "Create",
            list(patterns.iter().map(pattern_summary).collect()),
        ),
        Clause::Merge(p) => PlanNode::new("Merge", pattern_summary(p)),
        Clause::Set(items) => PlanNode::new(
            "SetProperties",
            list(
                items
                    .iter()
                    .map(|i| format!("{}.{} = {}", i.var, i.key, expr_summary(&i.value)))
                    .collect(),
            ),
        ),
        Clause::Delete { exprs, detach } => PlanNode::new(
            if *detach { "DetachDelete" } else { "Delete" },
            list(exprs.iter().map(expr_summary).collect()),
        ),
    }
}

fn projection_summary(proj: &Projection) -> String {
    let aliases: Vec<&str> = proj.items.iter().map(|i| i.alias.as_str()).collect();
    let mut s = format!(
        "{}{}",
        if proj.distinct { "DISTINCT " } else { "" },
        aliases.join(", ")
    );
    if !proj.order_by.is_empty() {
        s.push_str(&format!(" ORDER BY {} key(s)", proj.order_by.len()));
    }
    for (part, present) in [
        (" SKIP", proj.skip.is_some()),
        (" LIMIT", proj.limit.is_some()),
    ] {
        if present {
            s.push_str(part);
        }
    }
    s
}

/// Single-line rendering of a path pattern, inline property maps of
/// nodes and relationships included.
fn pattern_summary(p: &PathPattern) -> String {
    let mut s = node_summary(&p.start);
    for (rel, node) in &p.hops {
        let mut body = rel.var.clone().unwrap_or_default();
        if !rel.types.is_empty() {
            body.push(':');
            body.push_str(&rel.types.join("|"));
        }
        if let Some((min, max)) = rel.var_length {
            body.push_str(&format!("*{min}..{max}"));
        }
        body.push_str(&props_summary(&rel.props));
        let body = if body.is_empty() {
            body
        } else {
            format!("[{body}]")
        };
        s.push_str(&match rel.dir {
            RelDir::Right => format!("-{body}->"),
            RelDir::Left => format!("<-{body}-"),
            RelDir::Undirected => format!("-{body}-"),
        });
        s.push_str(&node_summary(node));
    }
    s
}

fn node_summary(n: &NodePattern) -> String {
    format!("({})", node_body(n))
}

/// A node pattern without its parentheses: `var:Label {key: value}`.
fn node_body(n: &NodePattern) -> String {
    let mut s = n.var.clone().unwrap_or_default();
    for l in &n.labels {
        s.push(':');
        s.push_str(l);
    }
    s.push_str(&props_summary(&n.props));
    s
}

fn props_summary(props: &[(String, Expr)]) -> String {
    if props.is_empty() {
        return String::new();
    }
    let items: Vec<String> = props
        .iter()
        .map(|(k, e)| format!("{k}: {}", expr_summary(e)))
        .collect();
    format!(" {{{}}}", items.join(", "))
}

/// Compact single-line rendering of an expression (for `Filter` rows).
fn expr_summary(e: &Expr) -> String {
    match e {
        Expr::Lit(iyp_graph::Value::Str(s)) => format!("'{s}'"),
        Expr::Lit(v) => format!("{v}"),
        Expr::Param(p) => format!("${p}"),
        Expr::Var(v) => v.clone(),
        Expr::Prop(b, k) => format!("{}.{k}", expr_summary(b)),
        Expr::List(items) => format!(
            "[{}]",
            items
                .iter()
                .map(expr_summary)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Expr::Unary(UnaryOp::Not, b) => format!("NOT {}", expr_summary(b)),
        Expr::Unary(UnaryOp::Neg, b) => format!("-{}", expr_summary(b)),
        Expr::Binary(op, a, b) => {
            let sym = match op {
                BinOp::And => "AND",
                BinOp::Or => "OR",
                BinOp::Xor => "XOR",
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
                BinOp::Pow => "^",
                BinOp::In => "IN",
                BinOp::StartsWith => "STARTS WITH",
                BinOp::EndsWith => "ENDS WITH",
                BinOp::Contains => "CONTAINS",
            };
            format!("{} {sym} {}", expr_summary(a), expr_summary(b))
        }
        Expr::IsNull(b, negated) => format!(
            "{} IS {}NULL",
            expr_summary(b),
            if *negated { "NOT " } else { "" }
        ),
        Expr::Call {
            name,
            distinct,
            args,
        } => format!(
            "{name}({}{})",
            if *distinct { "DISTINCT " } else { "" },
            args.iter().map(expr_summary).collect::<Vec<_>>().join(", ")
        ),
        Expr::Index(a, b) => format!("{}[{}]", expr_summary(a), expr_summary(b)),
        Expr::Case { .. } => "CASE … END".into(),
        Expr::Exists { patterns, .. } => {
            let patterns: Vec<String> = patterns.iter().map(pattern_summary).collect();
            format!("EXISTS {{ {} }}", patterns.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use iyp_graph::{Graph, Props};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 64496u32, Props::new());
        let p = g.merge_node("Prefix", "prefix", "192.0.2.0/24", Props::new());
        g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
        g
    }

    fn explain(g: &Graph, q: &str) -> PlanNode {
        let ast = parse(q).unwrap();
        compile(g, &ast).tree(g)
    }

    #[test]
    fn plan_is_a_chain_rooted_at_produce_results() {
        let g = sample_graph();
        let plan = explain(
            &g,
            "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) WHERE a.asn > 0 RETURN p.prefix",
        );
        let ops: Vec<&str> = plan.flatten().iter().map(|n| n.op.as_str()).collect();
        assert_eq!(
            ops,
            [
                "ProduceResults",
                "Filter",
                "Match",
                "Expand",
                "NodeByLabelScan"
            ]
        );
        assert!(plan.flatten().iter().all(|n| n.children.len() <= 1));
    }

    #[test]
    fn index_seek_beats_label_scan() {
        let g = sample_graph();
        let plan = explain(&g, "MATCH (p:Prefix)--(a:AS {asn: 64496}) RETURN a.asn");
        let seek = plan.find("NodeIndexSeek").expect("index seek");
        assert_eq!(seek.detail, "a:AS {asn: 64496}");
    }

    #[test]
    fn anchor_ties_keep_the_earlier_node_and_bound_wins() {
        let g = sample_graph();
        let ast = parse("MATCH (a:AS)-[:ORIGINATE]-(b:AS) MATCH (x)--(a) RETURN x").unwrap();
        let plan = compile(&g, &ast);
        let first = &plan.steps[0].patterns[0];
        assert_eq!((first.anchor, first.access), (0, Access::LabelScan("AS")));
        let second = &plan.steps[1].patterns[0];
        assert_eq!((second.anchor, second.access), (1, Access::Bound));
    }

    #[test]
    fn expr_summary_is_compact() {
        let ast = parse("MATCH (a) WHERE a.asn <> 3 AND a.name STARTS WITH 'x' RETURN a").unwrap();
        let Clause::Where(e) = &ast.clauses[1] else {
            panic!("expected WHERE")
        };
        assert_eq!(expr_summary(e), "a.asn <> 3 AND a.name STARTS WITH 'x'");
    }
}
