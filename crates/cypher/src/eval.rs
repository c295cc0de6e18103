//! Expression evaluation (non-aggregate).

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::error::CypherError;
use crate::rtval::RtVal;
use iyp_graph::{Graph, Value};
use std::collections::HashMap;

/// A row of variable bindings.
pub type Row = HashMap<String, RtVal>;

/// Evaluation context: the graph plus query parameters.
pub struct EvalCtx<'g> {
    /// The graph being queried.
    pub graph: &'g Graph,
    /// Query parameters (`$name`).
    pub params: &'g HashMap<String, Value>,
    /// Deadline/cancel token, polled at row boundaries.
    pub cancel: Option<&'g crate::cancel::Cancel>,
    /// Whether the executor records `PROFILE` row counts.
    pub profile: bool,
}

impl<'g> EvalCtx<'g> {
    /// A context with no cancel token, not profiling.
    pub fn new(graph: &'g Graph, params: &'g HashMap<String, Value>) -> EvalCtx<'g> {
        EvalCtx {
            graph,
            params,
            cancel: None,
            profile: false,
        }
    }

    /// Polls the cancel token, if any. Called at row boundaries by the
    /// executor; a query with no token pays only this `Option` check.
    #[inline]
    pub fn check_cancel(&self) -> Result<(), CypherError> {
        match self.cancel {
            None => Ok(()),
            Some(c) => c.check(),
        }
    }
    /// Evaluates an expression in a row. Aggregate calls are rejected —
    /// the executor evaluates those over groups.
    pub fn eval(&self, expr: &Expr, row: &Row) -> Result<RtVal, CypherError> {
        match expr {
            Expr::Lit(v) => Ok(RtVal::Scalar(v.clone())),
            Expr::Param(p) => Ok(RtVal::Scalar(
                self.params.get(p).cloned().unwrap_or(Value::Null),
            )),
            Expr::Var(v) => row
                .get(v)
                .cloned()
                .ok_or_else(|| CypherError::runtime(format!("undefined variable `{v}`"))),
            Expr::Prop(e, key) => {
                let base = self.eval(e, row)?;
                Ok(base.prop(self.graph, key))
            }
            Expr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e, row)?);
                }
                // Keep as scalar list when possible (common case).
                if out.iter().all(|v| matches!(v, RtVal::Scalar(_))) {
                    Ok(RtVal::Scalar(Value::List(
                        out.into_iter()
                            .map(|v| match v {
                                RtVal::Scalar(s) => s,
                                _ => unreachable!(),
                            })
                            .collect(),
                    )))
                } else {
                    Ok(RtVal::List(out))
                }
            }
            Expr::Unary(op, e) => {
                let v = self.eval(e, row)?;
                match op {
                    UnaryOp::Not => Ok(match truth(&v) {
                        Some(b) => RtVal::Scalar(Value::Bool(!b)),
                        None => RtVal::null(),
                    }),
                    UnaryOp::Neg => match v.as_scalar() {
                        Some(Value::Int(i)) => Ok(RtVal::Scalar(Value::Int(-i))),
                        Some(Value::Float(f)) => Ok(RtVal::Scalar(Value::Float(-f))),
                        Some(Value::Null) => Ok(RtVal::null()),
                        _ => Err(CypherError::runtime("cannot negate a non-number")),
                    },
                }
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b, row),
            Expr::IsNull(e, negated) => {
                let v = self.eval(e, row)?;
                let is_null = v.is_null();
                Ok(RtVal::Scalar(Value::Bool(if *negated {
                    !is_null
                } else {
                    is_null
                })))
            }
            Expr::Call { name, args, .. } => self.eval_fn(name, args, row),
            Expr::Index(e, idx) => {
                let list = self.eval(e, row)?;
                let i = self.eval(idx, row)?;
                let Some(Value::Int(i)) = i.as_scalar().cloned() else {
                    return Ok(RtVal::null());
                };
                let items = match list.as_list() {
                    Some(items) => items,
                    None => return Ok(RtVal::null()),
                };
                let n = items.len() as i64;
                let i = if i < 0 { i + n } else { i };
                if i < 0 || i >= n {
                    Ok(RtVal::null())
                } else {
                    Ok(items[i as usize].clone())
                }
            }
            Expr::Case { branches, default } => {
                for (cond, val) in branches {
                    if truth(&self.eval(cond, row)?) == Some(true) {
                        return self.eval(val, row);
                    }
                }
                match default {
                    Some(d) => self.eval(d, row),
                    None => Ok(RtVal::null()),
                }
            }
            Expr::Exists { patterns, filter } => {
                let found = crate::exec::exists(self, patterns, filter.as_deref(), row)?;
                Ok(RtVal::Scalar(Value::Bool(found)))
            }
        }
    }

    fn eval_binary(&self, op: BinOp, a: &Expr, b: &Expr, row: &Row) -> Result<RtVal, CypherError> {
        // Three-valued logic short-circuits.
        match op {
            BinOp::And => {
                let l = truth(&self.eval(a, row)?);
                if l == Some(false) {
                    return Ok(RtVal::Scalar(Value::Bool(false)));
                }
                let r = truth(&self.eval(b, row)?);
                return Ok(match (l, r) {
                    (_, Some(false)) => RtVal::Scalar(Value::Bool(false)),
                    (Some(true), Some(true)) => RtVal::Scalar(Value::Bool(true)),
                    _ => RtVal::null(),
                });
            }
            BinOp::Or => {
                let l = truth(&self.eval(a, row)?);
                if l == Some(true) {
                    return Ok(RtVal::Scalar(Value::Bool(true)));
                }
                let r = truth(&self.eval(b, row)?);
                return Ok(match (l, r) {
                    (_, Some(true)) => RtVal::Scalar(Value::Bool(true)),
                    (Some(false), Some(false)) => RtVal::Scalar(Value::Bool(false)),
                    _ => RtVal::null(),
                });
            }
            BinOp::Xor => {
                let l = truth(&self.eval(a, row)?);
                let r = truth(&self.eval(b, row)?);
                return Ok(match (l, r) {
                    (Some(x), Some(y)) => RtVal::Scalar(Value::Bool(x ^ y)),
                    _ => RtVal::null(),
                });
            }
            _ => {}
        }

        let lhs = self.eval(a, row)?;
        let rhs = self.eval(b, row)?;
        match op {
            BinOp::Eq | BinOp::Ne => {
                let eq = rt_eq(&lhs, &rhs);
                Ok(match eq {
                    None => RtVal::null(),
                    Some(e) => RtVal::Scalar(Value::Bool(if op == BinOp::Eq { e } else { !e })),
                })
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let (Some(x), Some(y)) = (lhs.as_scalar(), rhs.as_scalar()) else {
                    return Ok(RtVal::null());
                };
                if x.is_null() || y.is_null() {
                    return Ok(RtVal::null());
                }
                // Comparable kinds: both numbers or both strings.
                let cmp = match (x, y) {
                    (Value::Str(a), Value::Str(b)) => a.cmp(b),
                    _ => match (x.as_float(), y.as_float()) {
                        (Some(a), Some(b)) => {
                            a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
                        }
                        _ => return Ok(RtVal::null()),
                    },
                };
                use std::cmp::Ordering::*;
                let b = match op {
                    BinOp::Lt => cmp == Less,
                    BinOp::Le => cmp != Greater,
                    BinOp::Gt => cmp == Greater,
                    BinOp::Ge => cmp != Less,
                    _ => unreachable!(),
                };
                Ok(RtVal::Scalar(Value::Bool(b)))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Pow => {
                self.arith(op, &lhs, &rhs)
            }
            BinOp::In => {
                if lhs.is_null() {
                    return Ok(RtVal::null());
                }
                let Some(items) = rhs.as_list() else {
                    return Ok(RtVal::null());
                };
                let found = items.iter().any(|i| rt_eq(&lhs, i) == Some(true));
                Ok(RtVal::Scalar(Value::Bool(found)))
            }
            BinOp::StartsWith | BinOp::EndsWith | BinOp::Contains => {
                let (Some(Value::Str(s)), Some(Value::Str(t))) = (lhs.as_scalar(), rhs.as_scalar())
                else {
                    return Ok(RtVal::null());
                };
                let b = match op {
                    BinOp::StartsWith => s.starts_with(t.as_str()),
                    BinOp::EndsWith => s.ends_with(t.as_str()),
                    BinOp::Contains => s.contains(t.as_str()),
                    _ => unreachable!(),
                };
                Ok(RtVal::Scalar(Value::Bool(b)))
            }
            BinOp::And | BinOp::Or | BinOp::Xor => unreachable!("handled above"),
        }
    }

    fn arith(&self, op: BinOp, lhs: &RtVal, rhs: &RtVal) -> Result<RtVal, CypherError> {
        let (Some(x), Some(y)) = (lhs.as_scalar(), rhs.as_scalar()) else {
            return Ok(RtVal::null());
        };
        if x.is_null() || y.is_null() {
            return Ok(RtVal::null());
        }
        // String / list concatenation with +.
        if op == BinOp::Add {
            if let (Value::Str(a), Value::Str(b)) = (x, y) {
                return Ok(RtVal::Scalar(Value::Str(format!("{a}{b}"))));
            }
            if let (Value::List(a), Value::List(b)) = (x, y) {
                let mut out = a.clone();
                out.extend(b.clone());
                return Ok(RtVal::Scalar(Value::List(out)));
            }
            // string + number renders the number.
            if let (Value::Str(a), other) = (x, y) {
                return Ok(RtVal::Scalar(Value::Str(format!("{a}{other}"))));
            }
            if let (other, Value::Str(b)) = (x, y) {
                return Ok(RtVal::Scalar(Value::Str(format!("{other}{b}"))));
            }
        }
        match (x, y) {
            (Value::Int(a), Value::Int(b)) => {
                let r = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(CypherError::runtime("division by zero"));
                        }
                        a.checked_div(*b)
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            return Err(CypherError::runtime("modulo by zero"));
                        }
                        a.checked_rem(*b)
                    }
                    BinOp::Pow => {
                        return Ok(RtVal::Scalar(Value::Float((*a as f64).powf(*b as f64))))
                    }
                    _ => unreachable!(),
                };
                r.map(|v| RtVal::Scalar(Value::Int(v)))
                    .ok_or_else(|| CypherError::runtime("integer overflow"))
            }
            _ => {
                let (Some(a), Some(b)) = (x.as_float(), y.as_float()) else {
                    return Err(CypherError::runtime(format!(
                        "type error: cannot apply {op:?} to {x} and {y}"
                    )));
                };
                let r = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    BinOp::Pow => a.powf(b),
                    _ => unreachable!(),
                };
                Ok(RtVal::Scalar(Value::Float(r)))
            }
        }
    }

    fn eval_fn(&self, name: &str, args: &[Expr], row: &Row) -> Result<RtVal, CypherError> {
        if crate::ast::is_aggregate_fn(name) {
            return Err(CypherError::runtime(format!(
                "aggregate function {name}() in a non-aggregating position"
            )));
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, row)?);
        }
        let arg_str = |i: usize| -> Option<String> {
            vals.get(i)
                .and_then(|v| v.as_scalar())
                .and_then(|v| v.as_str())
                .map(String::from)
        };
        match name {
            "toupper" => Ok(RtVal::Scalar(match arg_str(0) {
                Some(s) => Value::Str(s.to_uppercase()),
                None => Value::Null,
            })),
            "tolower" => Ok(RtVal::Scalar(match arg_str(0) {
                Some(s) => Value::Str(s.to_lowercase()),
                None => Value::Null,
            })),
            "trim" => Ok(RtVal::Scalar(match arg_str(0) {
                Some(s) => Value::Str(s.trim().to_string()),
                None => Value::Null,
            })),
            "reverse" => Ok(RtVal::Scalar(match arg_str(0) {
                Some(s) => Value::Str(s.chars().rev().collect()),
                None => Value::Null,
            })),
            "replace" => {
                let (Some(s), Some(from), Some(to)) = (arg_str(0), arg_str(1), arg_str(2)) else {
                    return Ok(RtVal::null());
                };
                Ok(RtVal::Scalar(Value::Str(s.replace(&from, &to))))
            }
            "split" => {
                let (Some(s), Some(sep)) = (arg_str(0), arg_str(1)) else {
                    return Ok(RtVal::null());
                };
                Ok(RtVal::Scalar(Value::List(
                    s.split(sep.as_str())
                        .map(|p| Value::Str(p.to_string()))
                        .collect(),
                )))
            }
            "substring" => {
                let Some(s) = arg_str(0) else {
                    return Ok(RtVal::null());
                };
                let start = vals
                    .get(1)
                    .and_then(|v| v.as_scalar())
                    .and_then(|v| v.as_int())
                    .unwrap_or(0)
                    .max(0) as usize;
                let len = vals
                    .get(2)
                    .and_then(|v| v.as_scalar())
                    .and_then(|v| v.as_int());
                let chars: Vec<char> = s.chars().collect();
                let end = match len {
                    Some(l) => (start + l.max(0) as usize).min(chars.len()),
                    None => chars.len(),
                };
                let start = start.min(chars.len());
                Ok(RtVal::Scalar(Value::Str(
                    chars[start..end].iter().collect(),
                )))
            }
            "size" => match vals.first() {
                Some(RtVal::Scalar(Value::Str(s))) => {
                    Ok(RtVal::Scalar(Value::Int(s.chars().count() as i64)))
                }
                Some(v) => match v.as_list() {
                    Some(l) => Ok(RtVal::Scalar(Value::Int(l.len() as i64))),
                    None => Ok(RtVal::null()),
                },
                None => Ok(RtVal::null()),
            },
            "head" => match vals.first().and_then(|v| v.as_list()) {
                Some(l) => Ok(l.first().cloned().unwrap_or_else(RtVal::null)),
                None => Ok(RtVal::null()),
            },
            "last" => match vals.first().and_then(|v| v.as_list()) {
                Some(l) => Ok(l.last().cloned().unwrap_or_else(RtVal::null)),
                None => Ok(RtVal::null()),
            },
            "coalesce" => Ok(vals
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or_else(RtVal::null)),
            "abs" => match vals.first().and_then(|v| v.as_scalar()) {
                Some(Value::Int(i)) => Ok(RtVal::Scalar(Value::Int(i.abs()))),
                Some(Value::Float(f)) => Ok(RtVal::Scalar(Value::Float(f.abs()))),
                _ => Ok(RtVal::null()),
            },
            "round" => match vals
                .first()
                .and_then(|v| v.as_scalar())
                .and_then(|v| v.as_float())
            {
                Some(f) => Ok(RtVal::Scalar(Value::Float(f.round()))),
                None => Ok(RtVal::null()),
            },
            "floor" => match vals
                .first()
                .and_then(|v| v.as_scalar())
                .and_then(|v| v.as_float())
            {
                Some(f) => Ok(RtVal::Scalar(Value::Float(f.floor()))),
                None => Ok(RtVal::null()),
            },
            "ceil" => match vals
                .first()
                .and_then(|v| v.as_scalar())
                .and_then(|v| v.as_float())
            {
                Some(f) => Ok(RtVal::Scalar(Value::Float(f.ceil()))),
                None => Ok(RtVal::null()),
            },
            "tointeger" => match vals.first().and_then(|v| v.as_scalar()) {
                Some(Value::Int(i)) => Ok(RtVal::Scalar(Value::Int(*i))),
                Some(Value::Float(f)) => Ok(RtVal::Scalar(Value::Int(*f as i64))),
                Some(Value::Str(s)) => Ok(RtVal::Scalar(
                    s.trim()
                        .parse::<i64>()
                        .map(Value::Int)
                        .unwrap_or(Value::Null),
                )),
                _ => Ok(RtVal::null()),
            },
            "tofloat" => match vals.first().and_then(|v| v.as_scalar()) {
                Some(Value::Int(i)) => Ok(RtVal::Scalar(Value::Float(*i as f64))),
                Some(Value::Float(f)) => Ok(RtVal::Scalar(Value::Float(*f))),
                Some(Value::Str(s)) => Ok(RtVal::Scalar(
                    s.trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .unwrap_or(Value::Null),
                )),
                _ => Ok(RtVal::null()),
            },
            "tostring" => match vals.first() {
                Some(RtVal::Scalar(Value::Null)) | None => Ok(RtVal::null()),
                Some(v) => Ok(RtVal::Scalar(Value::Str(v.render(self.graph)))),
            },
            "labels" => match vals.first().and_then(|v| v.as_node()) {
                Some(id) => {
                    let labels = self
                        .graph
                        .node(id)
                        .map(|n| {
                            n.labels
                                .iter()
                                .map(|l| Value::Str(self.graph.symbols().label_name(*l).into()))
                                .collect()
                        })
                        .unwrap_or_default();
                    Ok(RtVal::Scalar(Value::List(labels)))
                }
                None => Ok(RtVal::null()),
            },
            "type" => match vals.first().and_then(|v| v.as_rel()) {
                Some(id) => Ok(RtVal::Scalar(match self.graph.rel(id) {
                    Some(r) => {
                        Value::Str(self.graph.symbols().rel_type_name(r.rel_type).to_string())
                    }
                    None => Value::Null,
                })),
                None => Ok(RtVal::null()),
            },
            "id" => match vals.first() {
                Some(RtVal::Node(n)) => Ok(RtVal::Scalar(Value::Int(n.0 as i64))),
                Some(RtVal::Rel(r)) => Ok(RtVal::Scalar(Value::Int(r.0 as i64))),
                _ => Ok(RtVal::null()),
            },
            "startnode" | "endnode" => match vals.first().and_then(|v| v.as_rel()) {
                Some(id) => match self.graph.rel(id) {
                    Some(r) => Ok(RtVal::Node(if name == "startnode" { r.src } else { r.dst })),
                    None => Ok(RtVal::null()),
                },
                None => Ok(RtVal::null()),
            },
            "keys" => {
                let keys = match vals.first() {
                    Some(RtVal::Node(n)) => self
                        .graph
                        .node(*n)
                        .map(|n| n.props.keys().cloned().collect::<Vec<_>>()),
                    Some(RtVal::Rel(r)) => self
                        .graph
                        .rel(*r)
                        .map(|r| r.props.keys().cloned().collect::<Vec<_>>()),
                    _ => None,
                };
                Ok(match keys {
                    Some(k) => RtVal::Scalar(Value::List(k.into_iter().map(Value::Str).collect())),
                    None => RtVal::null(),
                })
            }
            "range" => {
                let get = |i: usize| {
                    vals.get(i)
                        .and_then(|v| v.as_scalar())
                        .and_then(|v| v.as_int())
                };
                let (Some(start), Some(end)) = (get(0), get(1)) else {
                    return Ok(RtVal::null());
                };
                let step = get(2).unwrap_or(1);
                if step == 0 {
                    return Err(CypherError::runtime("range() step must be non-zero"));
                }
                let mut out = Vec::new();
                let mut x = start;
                while (step > 0 && x <= end) || (step < 0 && x >= end) {
                    out.push(Value::Int(x));
                    if out.len() > 1_000_000 {
                        return Err(CypherError::runtime("range() too large"));
                    }
                    x += step;
                }
                Ok(RtVal::Scalar(Value::List(out)))
            }
            "properties" => match vals.first() {
                Some(RtVal::Node(n)) => Ok(RtVal::Scalar(Value::List(
                    self.graph
                        .node(*n)
                        .map(|n| {
                            n.props
                                .iter()
                                .map(|(k, v)| Value::List(vec![Value::Str(k.clone()), v.clone()]))
                                .collect()
                        })
                        .unwrap_or_default(),
                ))),
                _ => Ok(RtVal::null()),
            },
            other => Err(CypherError::runtime(format!("unknown function {other}()"))),
        }
    }
}

/// Three-valued truthiness: Some(true/false) or None for null.
pub fn truth(v: &RtVal) -> Option<bool> {
    match v {
        RtVal::Scalar(Value::Null) => None,
        RtVal::Scalar(Value::Bool(b)) => Some(*b),
        RtVal::Scalar(v) => Some(v.is_truthy()),
        _ => Some(true),
    }
}

/// Cypher equality over runtime values; `None` means unknown (null).
pub fn rt_eq(a: &RtVal, b: &RtVal) -> Option<bool> {
    match (a, b) {
        (RtVal::Scalar(x), RtVal::Scalar(y)) => x.cypher_eq(y),
        (RtVal::Node(x), RtVal::Node(y)) => Some(x == y),
        (RtVal::Rel(x), RtVal::Rel(y)) => Some(x == y),
        (RtVal::List(x), RtVal::List(y)) => {
            if x.len() != y.len() {
                return Some(false);
            }
            let mut all = Some(true);
            for (i, j) in x.iter().zip(y.iter()) {
                match rt_eq(i, j) {
                    Some(true) => {}
                    Some(false) => return Some(false),
                    None => all = None,
                }
            }
            all
        }
        (RtVal::List(_), RtVal::Scalar(Value::List(_)))
        | (RtVal::Scalar(Value::List(_)), RtVal::List(_)) => {
            let (Some(x), Some(y)) = (a.as_list(), b.as_list()) else {
                return Some(false);
            };
            rt_eq(&RtVal::List(x), &RtVal::List(y))
        }
        (RtVal::Scalar(Value::Null), _) | (_, RtVal::Scalar(Value::Null)) => None,
        _ => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Clause;
    use crate::parser::parse;
    use iyp_graph::props;

    fn eval_str(expr_text: &str) -> RtVal {
        // Parse via a dummy RETURN.
        let q = parse(&format!("MATCH (n) RETURN {expr_text}")).unwrap();
        let Clause::Return(p) = &q.clauses[1] else {
            panic!()
        };
        let graph = Graph::new();
        let params = HashMap::new();
        let ctx = EvalCtx::new(&graph, &params);
        let mut row = Row::new();
        row.insert("n".into(), RtVal::null());
        ctx.eval(&p.items[0].expr, &row).unwrap()
    }

    fn scalar(v: RtVal) -> Value {
        v.as_scalar().unwrap().clone()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(scalar(eval_str("1 + 2 * 3")), Value::Int(7));
        assert_eq!(scalar(eval_str("(1 + 2) * 3")), Value::Int(9));
        assert_eq!(scalar(eval_str("7 / 2")), Value::Int(3));
        assert_eq!(scalar(eval_str("7.0 / 2")), Value::Float(3.5));
        assert_eq!(scalar(eval_str("7 % 3")), Value::Int(1));
        assert_eq!(scalar(eval_str("-5")), Value::Int(-5));
        assert_eq!(scalar(eval_str("2 ^ 10")), Value::Float(1024.0));
    }

    #[test]
    fn string_ops() {
        assert_eq!(scalar(eval_str("'a' + 'b'")), Value::Str("ab".into()));
        assert_eq!(scalar(eval_str("'ab' STARTS WITH 'a'")), Value::Bool(true));
        assert_eq!(scalar(eval_str("'ab' ENDS WITH 'a'")), Value::Bool(false));
        assert_eq!(scalar(eval_str("'abc' CONTAINS 'b'")), Value::Bool(true));
        assert_eq!(
            scalar(eval_str("toUpper('rpki')")),
            Value::Str("RPKI".into())
        );
        assert_eq!(scalar(eval_str("size('abc')")), Value::Int(3));
        assert_eq!(
            scalar(eval_str("split('a.b.c', '.')")),
            Value::List(vec!["a".into(), "b".into(), "c".into()])
        );
        assert_eq!(
            scalar(eval_str("substring('abcdef', 1, 3)")),
            Value::Str("bcd".into())
        );
        assert_eq!(
            scalar(eval_str("replace('a-b', '-', '.')")),
            Value::Str("a.b".into())
        );
    }

    #[test]
    fn null_propagation() {
        assert!(eval_str("null + 1").is_null());
        assert!(eval_str("null = 1").is_null());
        assert!(eval_str("null STARTS WITH 'a'").is_null());
        assert_eq!(scalar(eval_str("null IS NULL")), Value::Bool(true));
        assert_eq!(scalar(eval_str("1 IS NOT NULL")), Value::Bool(true));
        assert_eq!(scalar(eval_str("coalesce(null, null, 3)")), Value::Int(3));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(scalar(eval_str("true AND false")), Value::Bool(false));
        assert!(eval_str("true AND null").is_null());
        assert_eq!(scalar(eval_str("false AND null")), Value::Bool(false));
        assert_eq!(scalar(eval_str("true OR null")), Value::Bool(true));
        assert!(eval_str("false OR null").is_null());
        assert_eq!(scalar(eval_str("NOT false")), Value::Bool(true));
        assert!(eval_str("NOT null").is_null());
        assert_eq!(scalar(eval_str("true XOR false")), Value::Bool(true));
    }

    #[test]
    fn in_operator_and_lists() {
        assert_eq!(scalar(eval_str("2 IN [1,2,3]")), Value::Bool(true));
        assert_eq!(scalar(eval_str("5 IN [1,2,3]")), Value::Bool(false));
        assert_eq!(scalar(eval_str("[1,2,3][0]")), Value::Int(1));
        assert_eq!(scalar(eval_str("[1,2,3][-1]")), Value::Int(3));
        assert!(eval_str("[1,2,3][9]").is_null());
        assert_eq!(scalar(eval_str("head([4,5])")), Value::Int(4));
        assert_eq!(scalar(eval_str("last([4,5])")), Value::Int(5));
        assert_eq!(scalar(eval_str("size([4,5])")), Value::Int(2));
    }

    #[test]
    fn comparisons() {
        assert_eq!(scalar(eval_str("1 < 2")), Value::Bool(true));
        assert_eq!(scalar(eval_str("2.5 >= 2")), Value::Bool(true));
        assert_eq!(scalar(eval_str("'a' < 'b'")), Value::Bool(true));
        assert_eq!(scalar(eval_str("1 <> 2")), Value::Bool(true));
        assert!(eval_str("1 < 'a'").is_null());
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            scalar(eval_str(
                "CASE WHEN 1 = 2 THEN 'x' WHEN 2 = 2 THEN 'y' ELSE 'z' END"
            )),
            Value::Str("y".into())
        );
        assert_eq!(
            scalar(eval_str("CASE WHEN false THEN 'x' END")),
            Value::Null
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(scalar(eval_str("toInteger('42')")), Value::Int(42));
        assert_eq!(scalar(eval_str("toInteger('x')")), Value::Null);
        assert_eq!(scalar(eval_str("toFloat('2.5')")), Value::Float(2.5));
        assert_eq!(scalar(eval_str("toString(42)")), Value::Str("42".into()));
        assert_eq!(scalar(eval_str("abs(-3)")), Value::Int(3));
        assert_eq!(scalar(eval_str("round(2.6)")), Value::Float(3.0));
    }

    #[test]
    fn division_by_zero_errors() {
        let q = parse("MATCH (n) RETURN 1 / 0").unwrap();
        let Clause::Return(p) = &q.clauses[1] else {
            panic!()
        };
        let graph = Graph::new();
        let params = HashMap::new();
        let ctx = EvalCtx::new(&graph, &params);
        let mut row = Row::new();
        row.insert("n".into(), RtVal::null());
        assert!(ctx.eval(&p.items[0].expr, &row).is_err());
    }

    #[test]
    fn graph_functions() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 2497u32, props([("name", "IIJ".into())]));
        let b = g.merge_node("AS", "asn", 64496u32, Props::new());
        let r = g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        let params = HashMap::new();
        let ctx = EvalCtx::new(&g, &params);
        let mut row = Row::new();
        row.insert("a".into(), RtVal::Node(a));
        row.insert("r".into(), RtVal::Rel(r));

        let q = parse("MATCH (n) RETURN labels(a), type(r), id(a), a.name").unwrap();
        let Clause::Return(p) = &q.clauses[1] else {
            panic!()
        };
        let labels = ctx.eval(&p.items[0].expr, &row).unwrap();
        assert_eq!(
            labels.as_scalar().unwrap().as_list().unwrap()[0],
            Value::Str("AS".into())
        );
        let t = ctx.eval(&p.items[1].expr, &row).unwrap();
        assert_eq!(t.as_scalar().unwrap().as_str(), Some("PEERS_WITH"));
        let id = ctx.eval(&p.items[2].expr, &row).unwrap();
        assert_eq!(id.as_scalar().unwrap().as_int(), Some(a.0 as i64));
        let name = ctx.eval(&p.items[3].expr, &row).unwrap();
        assert_eq!(name.as_scalar().unwrap().as_str(), Some("IIJ"));
    }

    use iyp_graph::Props;
}
