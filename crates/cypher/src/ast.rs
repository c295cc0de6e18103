//! Abstract syntax tree for the Cypher subset.

use iyp_graph::Value;

/// How a query should be run: normally, or as an `EXPLAIN`/`PROFILE`
/// introspection request (leading keyword, as in openCypher).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Execute and return the result rows.
    #[default]
    Normal,
    /// Return the execution plan without running the query.
    Explain,
    /// Run the query and return the plan that ran, with the rows each
    /// operator produced and each clause's wall time.
    Profile,
}

/// A full query: a pipeline of clauses ending in `RETURN`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Execution mode (`EXPLAIN` / `PROFILE` prefix).
    pub mode: QueryMode,
    /// The clause pipeline, in source order.
    pub clauses: Vec<Clause>,
}

/// One pipeline clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `MATCH` / `OPTIONAL MATCH` over one or more comma-separated
    /// path patterns.
    Match {
        /// True for `OPTIONAL MATCH`.
        optional: bool,
        /// The path patterns.
        patterns: Vec<PathPattern>,
    },
    /// `WHERE` predicate (attached to the preceding MATCH/WITH rows).
    Where(Expr),
    /// `UNWIND expr AS var`.
    Unwind {
        /// The list expression.
        expr: Expr,
        /// Binding introduced per element.
        var: String,
    },
    /// `WITH` projection (keeps the pipeline going).
    With(Projection),
    /// Final `RETURN` projection.
    Return(Projection),
    /// `CREATE` new nodes/relationships (write queries only).
    Create(Vec<PathPattern>),
    /// `MERGE` a pattern: bind existing matches or create the pattern.
    Merge(PathPattern),
    /// `SET var.key = expr, …`.
    Set(Vec<SetItem>),
    /// `DELETE expr, …` / `DETACH DELETE …`.
    Delete {
        /// Expressions evaluating to nodes or relationships.
        exprs: Vec<Expr>,
        /// `DETACH`: also remove a node's relationships.
        detach: bool,
    },
}

/// One `SET` assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct SetItem {
    /// Variable holding the node or relationship.
    pub var: String,
    /// Property key.
    pub key: String,
    /// New value.
    pub value: Expr,
}

/// A projection: `RETURN`/`WITH` items plus modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// True for `DISTINCT`.
    pub distinct: bool,
    /// Projected items.
    pub items: Vec<ProjItem>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `SKIP n`.
    pub skip: Option<Expr>,
    /// `LIMIT n`.
    pub limit: Option<Expr>,
}

/// One projected item with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjItem {
    /// The expression to project.
    pub expr: Expr,
    /// Alias (`AS name`); defaults to the source text of simple items.
    pub alias: String,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expr,
    /// True for descending.
    pub descending: bool,
}

/// A linear path pattern: `(n)-[r:T]->(m)-...`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPattern {
    /// The first node.
    pub start: NodePattern,
    /// Subsequent (relationship, node) hops.
    pub hops: Vec<(RelPattern, NodePattern)>,
}

/// A node pattern: `(var:Label1:Label2 {prop: expr, ...})`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// Variable name, if bound.
    pub var: Option<String>,
    /// Required labels (conjunctive).
    pub labels: Vec<String>,
    /// Inline property equality constraints.
    pub props: Vec<(String, Expr)>,
}

/// Direction of a relationship pattern, from the perspective of the
/// left-hand node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelDir {
    /// `-[]->`
    Right,
    /// `<-[]-`
    Left,
    /// `-[]-`
    Undirected,
}

/// A relationship pattern: `-[var:TYPE1|TYPE2 {prop: expr} *1..3]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPattern {
    /// Variable name, if bound.
    pub var: Option<String>,
    /// Allowed relationship types (disjunctive); empty = any.
    pub types: Vec<String>,
    /// Inline property equality constraints.
    pub props: Vec<(String, Expr)>,
    /// Direction.
    pub dir: RelDir,
    /// Variable-length bounds `(min, max)`; `None` = exactly one hop.
    /// `*` is `(1, VAR_LENGTH_CAP)`, `*n` is `(n, n)`, `*a..b` is
    /// `(a, b)`.
    pub var_length: Option<(u32, u32)>,
}

/// Upper bound substituted for an open-ended `*` (Cypher's unbounded
/// form); prevents accidental exponential traversals.
pub const VAR_LENGTH_CAP: u32 = 15;

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// `$param`.
    Param(String),
    /// Variable reference.
    Var(String),
    /// Property access `expr.key`.
    Prop(Box<Expr>, String),
    /// List literal.
    List(Vec<Expr>),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull(Box<Expr>, bool),
    /// Function call; `distinct` applies to aggregates.
    Call {
        /// Lower-cased function name.
        name: String,
        /// `DISTINCT` inside the call parentheses.
        distinct: bool,
        /// Arguments; `count(*)` is encoded as `count` with zero args.
        args: Vec<Expr>,
    },
    /// List index / slice access `expr[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// `CASE WHEN cond THEN val ... ELSE val END`.
    Case {
        /// (condition, result) pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result; defaults to null.
        default: Option<Box<Expr>>,
    },
    /// `EXISTS { MATCH <patterns> [WHERE expr] }` — true when the
    /// pattern matches at least once given the current bindings.
    Exists {
        /// Patterns to probe.
        patterns: Vec<PathPattern>,
        /// Optional inner predicate.
        filter: Option<Box<Expr>>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    In,
    StartsWith,
    EndsWith,
    Contains,
}

impl Expr {
    /// True if the expression contains an aggregate function call
    /// (determines grouping in projections).
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::Param(_) | Expr::Var(_) => false,
            Expr::Prop(e, _) => e.contains_aggregate(),
            Expr::List(es) => es.iter().any(Expr::contains_aggregate),
            Expr::Unary(_, e) => e.contains_aggregate(),
            Expr::Binary(_, a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::IsNull(e, _) => e.contains_aggregate(),
            Expr::Call { name, args, .. } => {
                is_aggregate_fn(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Index(a, b) => a.contains_aggregate() || b.contains_aggregate(),
            Expr::Case { branches, default } => {
                branches
                    .iter()
                    .any(|(c, v)| c.contains_aggregate() || v.contains_aggregate())
                    || default.as_ref().is_some_and(|d| d.contains_aggregate())
            }
            Expr::Exists { .. } => false,
        }
    }
}

/// True if `name` (lower-case) is an aggregate function.
pub fn is_aggregate_fn(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "collect"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "percentilecont"
            | "percentiledisc"
            | "stdev"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Call {
            name: "count".into(),
            distinct: true,
            args: vec![],
        };
        assert!(agg.contains_aggregate());
        let nested = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Lit(Value::Int(1))),
            Box::new(agg),
        );
        assert!(nested.contains_aggregate());
        let plain = Expr::Call {
            name: "toupper".into(),
            distinct: false,
            args: vec![Expr::Var("x".into())],
        };
        assert!(!plain.contains_aggregate());
    }
}
