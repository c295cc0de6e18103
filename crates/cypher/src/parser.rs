//! Recursive-descent parser for the Cypher subset.

use crate::ast::*;
use crate::error::CypherError;
use crate::lexer::{tokenize, Token};
use iyp_graph::Value;

/// The deepest expression tree the parser builds, and the deepest its
/// own recursion goes (the JSON parser's limit, too). Evaluating or
/// dropping an expression recurses once per level, so hostile query
/// text nested deeper gets a parse error instead of a stack overflow.
pub const MAX_EXPR_DEPTH: usize = 128;

/// An expression with the depth of its tree.
type Parsed = Result<(Expr, usize), CypherError>;

/// Binding powers of the expression operators, loosest first.
const OR: u8 = 1;
const XOR: u8 = 2;
const AND: u8 = 3;
const NOT: u8 = 4;
const CMP: u8 = 5;
const ADD: u8 = 6;
const MUL: u8 = 7;

/// Parses a query string into an AST.
pub fn parse(input: &str) -> Result<Query, CypherError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
        pattern_depth: 0,
    };
    let q = p.query()?;
    if p.pos < p.tokens.len() {
        return Err(p.err("trailing tokens after query"));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current depth of nested sub-expressions (see [`MAX_EXPR_DEPTH`]).
    nesting: usize,
    /// Deepest inline-property expression seen in the patterns being
    /// parsed (for the depth of an `EXISTS` subquery).
    pattern_depth: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> CypherError {
        CypherError::Parse {
            pos: self.pos,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<(), CypherError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), CypherError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    /// Any identifier (plain or backticked).
    fn ident(&mut self, what: &str) -> Result<String, CypherError> {
        match self.next().cloned() {
            Some(Token::Ident(s)) => Ok(s),
            Some(Token::QuotedIdent(s)) => Ok(s),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Clauses
    // ------------------------------------------------------------------

    fn query(&mut self) -> Result<Query, CypherError> {
        let mode = if self.eat_kw("explain") {
            QueryMode::Explain
        } else if self.eat_kw("profile") {
            QueryMode::Profile
        } else {
            QueryMode::Normal
        };
        let mut clauses = Vec::new();
        let mut has_write = false;
        loop {
            if self.eat_kw("optional") {
                self.expect_kw("match")?;
                clauses.push(self.match_clause(true)?);
            } else if self.eat_kw("match") {
                clauses.push(self.match_clause(false)?);
            } else if self.eat_kw("where") {
                clauses.push(Clause::Where(self.expr()?));
            } else if self.eat_kw("unwind") {
                let expr = self.expr()?;
                self.expect_kw("as")?;
                let var = self.ident("variable after AS")?;
                clauses.push(Clause::Unwind { expr, var });
            } else if self.eat_kw("with") {
                clauses.push(Clause::With(self.projection()?));
            } else if self.eat_kw("create") {
                has_write = true;
                let mut patterns = vec![self.path_pattern()?];
                while self.eat(&Token::Comma) {
                    patterns.push(self.path_pattern()?);
                }
                clauses.push(Clause::Create(patterns));
            } else if self.eat_kw("merge") {
                has_write = true;
                clauses.push(Clause::Merge(self.path_pattern()?));
            } else if self.eat_kw("set") {
                has_write = true;
                let mut items = vec![self.set_item()?];
                while self.eat(&Token::Comma) {
                    items.push(self.set_item()?);
                }
                clauses.push(Clause::Set(items));
            } else if self.eat_kw("detach") {
                self.expect_kw("delete")?;
                has_write = true;
                clauses.push(self.delete_clause(true)?);
            } else if self.eat_kw("delete") {
                has_write = true;
                clauses.push(self.delete_clause(false)?);
            } else if self.eat_kw("return") {
                clauses.push(Clause::Return(self.projection()?));
                let _ = self.eat(&Token::Semicolon);
                break;
            } else if self.peek().is_none()
                || (self.peek() == Some(&Token::Semicolon) && self.pos + 1 == self.tokens.len())
            {
                let _ = self.eat(&Token::Semicolon);
                if has_write {
                    break; // write queries need no RETURN
                }
                return Err(self.err("query must end with RETURN"));
            } else {
                return Err(self.err(format!("unexpected token {:?}", self.peek())));
            }
        }
        Ok(Query { mode, clauses })
    }

    fn set_item(&mut self) -> Result<SetItem, CypherError> {
        let var = self.ident("variable in SET")?;
        self.expect(&Token::Dot, ". in SET target")?;
        let key = self.ident("property key in SET")?;
        self.expect(&Token::Eq, "= in SET")?;
        let value = self.expr()?;
        Ok(SetItem { var, key, value })
    }

    fn delete_clause(&mut self, detach: bool) -> Result<Clause, CypherError> {
        let mut exprs = vec![self.expr()?];
        while self.eat(&Token::Comma) {
            exprs.push(self.expr()?);
        }
        Ok(Clause::Delete { exprs, detach })
    }

    fn match_clause(&mut self, optional: bool) -> Result<Clause, CypherError> {
        let mut patterns = vec![self.path_pattern()?];
        while self.eat(&Token::Comma) {
            patterns.push(self.path_pattern()?);
        }
        Ok(Clause::Match { optional, patterns })
    }

    fn projection(&mut self) -> Result<Projection, CypherError> {
        let distinct = self.eat_kw("distinct");
        let mut items = vec![self.proj_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.proj_item()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let descending = if self.eat_kw("desc") || self.eat_kw("descending") {
                    true
                } else {
                    let _ = self.eat_kw("asc") || self.eat_kw("ascending");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let skip = if self.eat_kw("skip") {
            Some(self.expr()?)
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Projection {
            distinct,
            items,
            order_by,
            skip,
            limit,
        })
    }

    fn proj_item(&mut self) -> Result<ProjItem, CypherError> {
        let start = self.pos;
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            self.ident("alias after AS")?
        } else {
            default_alias(&expr, &self.tokens[start..self.pos])
        };
        Ok(ProjItem { expr, alias })
    }

    // ------------------------------------------------------------------
    // Patterns
    // ------------------------------------------------------------------

    fn path_pattern(&mut self) -> Result<PathPattern, CypherError> {
        let start = self.node_pattern()?;
        let mut hops = Vec::new();
        loop {
            let dir_left = if self.eat(&Token::BackArrow) {
                true
            } else if self.eat(&Token::Minus) {
                false
            } else {
                break;
            };
            // Optional bracketed relationship detail.
            let (var, types, props, var_length) = if self.eat(&Token::LBracket) {
                let var = match self.peek() {
                    Some(Token::Ident(s)) if !s.eq_ignore_ascii_case("") => {
                        let v = s.clone();
                        self.pos += 1;
                        Some(v)
                    }
                    _ => None,
                };
                let mut types = Vec::new();
                if self.eat(&Token::Colon) {
                    types.push(self.ident("relationship type")?);
                    while self.eat(&Token::Pipe) {
                        let _ = self.eat(&Token::Colon);
                        types.push(self.ident("relationship type")?);
                    }
                }
                // Variable length: `*`, `*n`, `*a..b`, `*..b`, `*a..`.
                let var_length = if self.eat(&Token::Star) {
                    let min = match self.peek() {
                        Some(Token::Int(n)) => {
                            let n = *n;
                            self.pos += 1;
                            Some(n)
                        }
                        _ => None,
                    };
                    if self.eat(&Token::DotDot) {
                        let max = match self.peek() {
                            Some(Token::Int(n)) => {
                                let n = *n;
                                self.pos += 1;
                                Some(n)
                            }
                            _ => None,
                        };
                        Some((
                            min.unwrap_or(1).max(0) as u32,
                            max.unwrap_or(VAR_LENGTH_CAP as i64) as u32,
                        ))
                    } else {
                        match min {
                            Some(n) => Some((n as u32, n as u32)),
                            None => Some((1, VAR_LENGTH_CAP)),
                        }
                    }
                } else {
                    None
                };
                let props = if self.peek() == Some(&Token::LBrace) {
                    self.prop_map()?
                } else {
                    Vec::new()
                };
                self.expect(&Token::RBracket, "]")?;
                (var, types, props, var_length)
            } else {
                (None, Vec::new(), Vec::new(), None)
            };
            // Closing arrow.
            let dir = if self.eat(&Token::Arrow) {
                if dir_left {
                    return Err(self.err("relationship cannot point both ways"));
                }
                RelDir::Right
            } else if self.eat(&Token::Minus) {
                if dir_left {
                    RelDir::Left
                } else {
                    RelDir::Undirected
                }
            } else {
                return Err(self.err("expected - or -> to close relationship pattern"));
            };
            let node = self.node_pattern()?;
            hops.push((
                RelPattern {
                    var,
                    types,
                    props,
                    dir,
                    var_length,
                },
                node,
            ));
        }
        Ok(PathPattern { start, hops })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, CypherError> {
        self.expect(&Token::LParen, "( for node pattern")?;
        let mut np = NodePattern::default();
        if let Some(Token::Ident(s)) = self.peek() {
            np.var = Some(s.clone());
            self.pos += 1;
        }
        while self.eat(&Token::Colon) {
            np.labels.push(self.ident("label")?);
        }
        if self.peek() == Some(&Token::LBrace) {
            np.props = self.prop_map()?;
        }
        self.expect(&Token::RParen, ") to close node pattern")?;
        Ok(np)
    }

    fn prop_map(&mut self) -> Result<Vec<(String, Expr)>, CypherError> {
        self.expect(&Token::LBrace, "{")?;
        let mut props = Vec::new();
        if self.peek() != Some(&Token::RBrace) {
            loop {
                let key = self.ident("property key")?;
                self.expect(&Token::Colon, ": in property map")?;
                let (value, depth) = self.nested()?;
                self.pattern_depth = self.pattern_depth.max(depth);
                props.push((key, value));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect(&Token::RBrace, "}")?;
        Ok(props)
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    //
    // Every expression function returns the tree with its depth, and
    // every node is checked against MAX_EXPR_DEPTH as it is built, so
    // no deeper tree ever exists to be evaluated or dropped (both
    // recurse once per level). `nesting` bounds the parser's own
    // recursion through parentheses, lists, calls and subqueries;
    // operator chains and prefix operators are parsed by loops, so each
    // nesting level costs a handful of stack frames.
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CypherError> {
        Ok(self.nested()?.0)
    }

    /// Parses a sub-expression one level deeper in the parser's own
    /// recursion.
    fn nested(&mut self) -> Parsed {
        if self.nesting >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let out = self.binding(OR);
        self.nesting -= 1;
        out
    }

    fn too_deep(&self) -> CypherError {
        self.err(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// An expression node over children of depth `below`.
    fn node(&self, e: Expr, below: usize) -> Parsed {
        if below >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok((e, below + 1))
    }

    fn binary(&self, op: BinOp, (a, da): (Expr, usize), (b, db): (Expr, usize)) -> Parsed {
        self.node(Expr::Binary(op, Box::new(a), Box::new(b)), da.max(db))
    }

    /// Precedence climbing over the binary operators, loosest first:
    /// `OR`, `XOR`, `AND`, prefix `NOT`, one comparison (`=`, `<>`, `<`,
    /// `<=`, `>`, `>=`, `STARTS WITH`, `ENDS WITH`, `CONTAINS`, `IN`,
    /// `IS [NOT] NULL`), `+ -`, then `* / % ^`; all left-associative.
    /// Parses the operators that bind at least as tightly as `min`.
    fn binding(&mut self, min: u8) -> Parsed {
        // A `NOT` prefix takes a whole comparison as its operand, which
        // leaves only AND/XOR/OR to this loop.
        let (mut lhs, mut ceiling) = if min <= NOT && self.at_kw("not") {
            (self.negation()?, AND)
        } else {
            (self.unary()?, u8::MAX)
        };
        while let Some((op, prec)) = self.infix() {
            if prec < min || prec > ceiling {
                break;
            }
            self.pos += 1;
            // Tighter operators went to the right operand; a comparison
            // does not chain.
            ceiling = if prec == CMP { NOT } else { prec };
            lhs = match op {
                None => {
                    let negated = self.eat_kw("not");
                    self.expect_kw("null")?;
                    self.node(Expr::IsNull(Box::new(lhs.0), negated), lhs.1)?
                }
                Some(op) => {
                    if matches!(op, BinOp::StartsWith | BinOp::EndsWith) {
                        self.expect_kw("with")?;
                    }
                    let rhs = self.binding(prec + 1)?;
                    self.binary(op, lhs, rhs)?
                }
            };
        }
        Ok(lhs)
    }

    /// `NOT NOT … comparison`.
    fn negation(&mut self) -> Parsed {
        let mut nots = 0;
        while self.eat_kw("not") {
            nots += 1;
        }
        let mut e = self.binding(CMP)?;
        for _ in 0..nots {
            e = self.node(Expr::Unary(UnaryOp::Not, Box::new(e.0)), e.1)?;
        }
        Ok(e)
    }

    /// The operator at the cursor and its binding power, without
    /// consuming it; `None` as the operator stands for `IS [NOT] NULL`.
    fn infix(&self) -> Option<(Option<BinOp>, u8)> {
        let keywords = [
            ("or", BinOp::Or, OR),
            ("xor", BinOp::Xor, XOR),
            ("and", BinOp::And, AND),
            ("starts", BinOp::StartsWith, CMP),
            ("ends", BinOp::EndsWith, CMP),
            ("contains", BinOp::Contains, CMP),
            ("in", BinOp::In, CMP),
        ];
        if let Some(&(_, op, prec)) = keywords.iter().find(|(kw, ..)| self.at_kw(kw)) {
            return Some((Some(op), prec));
        }
        if self.at_kw("is") {
            return Some((None, CMP));
        }
        let (op, prec) = match self.peek()? {
            Token::Eq => (BinOp::Eq, CMP),
            Token::Neq => (BinOp::Ne, CMP),
            Token::Lt => (BinOp::Lt, CMP),
            Token::Le => (BinOp::Le, CMP),
            Token::Gt => (BinOp::Gt, CMP),
            Token::Ge => (BinOp::Ge, CMP),
            Token::Plus => (BinOp::Add, ADD),
            Token::Minus => (BinOp::Sub, ADD),
            Token::Star => (BinOp::Mul, MUL),
            Token::Slash => (BinOp::Div, MUL),
            Token::Percent => (BinOp::Mod, MUL),
            Token::Caret => (BinOp::Pow, MUL),
            _ => return None,
        };
        Some((Some(op), prec))
    }

    fn unary(&mut self) -> Parsed {
        // Prefix signs: `-` negates, `+` is a no-op.
        let mut negations = 0;
        loop {
            if self.eat(&Token::Minus) {
                negations += 1;
            } else if !self.eat(&Token::Plus) {
                break;
            }
        }
        let mut e = self.postfix()?;
        for _ in 0..negations {
            e = self.node(Expr::Unary(UnaryOp::Neg, Box::new(e.0)), e.1)?;
        }
        Ok(e)
    }

    fn postfix(&mut self) -> Parsed {
        let mut e = self.atom()?;
        loop {
            if self.eat(&Token::Dot) {
                let key = self.ident("property name")?;
                e = self.node(Expr::Prop(Box::new(e.0), key), e.1)?;
            } else if self.eat(&Token::LBracket) {
                let idx = self.nested()?;
                self.expect(&Token::RBracket, "] after index")?;
                let below = e.1.max(idx.1);
                e = self.node(Expr::Index(Box::new(e.0), Box::new(idx.0)), below)?;
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// A comma-separated list of nested expressions up to `close`, with
    /// the depth of the deepest.
    fn expr_list(&mut self, close: &Token) -> Result<(Vec<Expr>, usize), CypherError> {
        let mut items = Vec::new();
        let mut depth = 0;
        if self.peek() != Some(close) {
            loop {
                let (e, d) = self.nested()?;
                items.push(e);
                depth = depth.max(d);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        Ok((items, depth))
    }

    fn atom(&mut self) -> Parsed {
        let token = self.peek().cloned();
        if token.is_some() {
            self.pos += 1;
        }
        match token {
            Some(Token::Int(i)) => Ok((Expr::Lit(Value::Int(i)), 1)),
            Some(Token::Float(f)) => Ok((Expr::Lit(Value::Float(f)), 1)),
            Some(Token::Str(s)) => Ok((Expr::Lit(Value::Str(s)), 1)),
            Some(Token::Param(p)) => Ok((Expr::Param(p), 1)),
            Some(Token::LParen) => {
                let e = self.nested()?;
                self.expect(&Token::RParen, ") after expression")?;
                Ok(e)
            }
            Some(Token::LBracket) => self.list(),
            Some(Token::Ident(name)) => self.named(name),
            Some(Token::QuotedIdent(name)) => Ok((Expr::Var(name), 1)),
            other => {
                self.pos -= usize::from(other.is_some());
                Err(self.err(format!("unexpected token in expression: {other:?}")))
            }
        }
    }

    /// A list literal, after its `[`.
    fn list(&mut self) -> Parsed {
        let (items, depth) = self.expr_list(&Token::RBracket)?;
        self.expect(&Token::RBracket, "] to close list")?;
        self.node(Expr::List(items), depth)
    }

    /// An atom spelled as an identifier (already consumed): a keyword
    /// value, `CASE`, `EXISTS { … }`, a function call or a variable.
    fn named(&mut self, name: String) -> Parsed {
        let literal = match name.to_ascii_lowercase().as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            "null" => Value::Null,
            "case" => return self.case_expr(),
            "exists" if self.peek() == Some(&Token::LBrace) => return self.exists(),
            _ if self.eat(&Token::LParen) => return self.call(name),
            _ => return Ok((Expr::Var(name), 1)),
        };
        Ok((Expr::Lit(literal), 1))
    }

    /// `EXISTS { [MATCH] <patterns> [WHERE expr] }`, after `EXISTS`. A
    /// subquery also recurses through the pattern parser, so it spends a
    /// second level of the nesting budget.
    fn exists(&mut self) -> Parsed {
        self.nesting += 1;
        let out = self.subquery();
        self.nesting -= 1;
        out
    }

    fn subquery(&mut self) -> Parsed {
        self.expect(&Token::LBrace, "{")?;
        let _ = self.eat_kw("match");
        // Inline property maps inside the patterns are expressions too:
        // count their depth.
        let outer = std::mem::take(&mut self.pattern_depth);
        let mut patterns = vec![self.path_pattern()?];
        while self.eat(&Token::Comma) {
            patterns.push(self.path_pattern()?);
        }
        let mut depth = std::mem::replace(&mut self.pattern_depth, outer);
        let filter = if self.eat_kw("where") {
            let (f, d) = self.nested()?;
            depth = depth.max(d);
            Some(Box::new(f))
        } else {
            None
        };
        self.expect(&Token::RBrace, "} to close EXISTS")?;
        self.node(Expr::Exists { patterns, filter }, depth)
    }

    /// A function call, after its `name(`.
    fn call(&mut self, name: String) -> Parsed {
        let distinct = self.eat_kw("distinct");
        let (args, depth) = if self.eat(&Token::Star) {
            (Vec::new(), 0) // count(*): zero args.
        } else {
            self.expr_list(&Token::RParen)?
        };
        self.expect(&Token::RParen, ") to close call")?;
        let name = name.to_ascii_lowercase();
        self.node(
            Expr::Call {
                name,
                distinct,
                args,
            },
            depth,
        )
    }

    /// `CASE WHEN … THEN … [ELSE …] END`, after `CASE`.
    fn case_expr(&mut self) -> Parsed {
        let mut branches = Vec::new();
        let mut depth = 0;
        while self.eat_kw("when") {
            let (cond, dc) = self.nested()?;
            self.expect_kw("then")?;
            let (val, dv) = self.nested()?;
            depth = depth.max(dc).max(dv);
            branches.push((cond, val));
        }
        let default = if self.eat_kw("else") {
            let (d, dd) = self.nested()?;
            depth = depth.max(dd);
            Some(Box::new(d))
        } else {
            None
        };
        self.expect_kw("end")?;
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        self.node(Expr::Case { branches, default }, depth)
    }
}

/// Default alias for an unaliased projection item: the source text,
/// re-rendered from tokens (e.g. `x.asn`, `count(DISTINCT pfx)`).
fn default_alias(expr: &Expr, tokens: &[Token]) -> String {
    // For the common cases render precisely; otherwise join token text.
    match expr {
        Expr::Var(v) => v.clone(),
        Expr::Prop(inner, key) => {
            if let Expr::Var(v) = inner.as_ref() {
                format!("{v}.{key}")
            } else {
                render_tokens(tokens)
            }
        }
        _ => render_tokens(tokens),
    }
}

fn render_tokens(tokens: &[Token]) -> String {
    let mut s = String::new();
    for t in tokens {
        let frag = match t {
            Token::Ident(x) => x.clone(),
            Token::QuotedIdent(x) => format!("`{x}`"),
            Token::Str(x) => format!("'{x}'"),
            Token::Int(i) => i.to_string(),
            Token::Float(f) => f.to_string(),
            Token::Param(p) => format!("${p}"),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::LBracket => "[".into(),
            Token::RBracket => "]".into(),
            Token::LBrace => "{".into(),
            Token::RBrace => "}".into(),
            Token::Colon => ":".into(),
            Token::Comma => ",".into(),
            Token::Dot => ".".into(),
            Token::DotDot => "..".into(),
            Token::Semicolon => ";".into(),
            Token::Pipe => "|".into(),
            Token::Plus => "+".into(),
            Token::Minus => "-".into(),
            Token::Star => "*".into(),
            Token::Slash => "/".into(),
            Token::Percent => "%".into(),
            Token::Caret => "^".into(),
            Token::Eq => "=".into(),
            Token::Neq => "<>".into(),
            Token::Lt => "<".into(),
            Token::Le => "<=".into(),
            Token::Gt => ">".into(),
            Token::Ge => ">=".into(),
            Token::Arrow => "->".into(),
            Token::BackArrow => "<-".into(),
        };
        match frag.as_str() {
            "." | "(" | ")" | "[" | "]" => s.push_str(&frag),
            _ => {
                if !s.is_empty() && !s.ends_with(['.', '(', '[']) {
                    // no space after opening or dot
                }
                s.push_str(&frag);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_1() {
        let q = parse(
            "// Select ASes originating prefixes
             MATCH (x:AS)-[:ORIGINATE]-(:Prefix)
             RETURN DISTINCT x.asn",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 2);
        let Clause::Match { optional, patterns } = &q.clauses[0] else {
            panic!("expected MATCH");
        };
        assert!(!optional);
        assert_eq!(patterns.len(), 1);
        let p = &patterns[0];
        assert_eq!(p.start.var.as_deref(), Some("x"));
        assert_eq!(p.start.labels, vec!["AS"]);
        assert_eq!(p.hops.len(), 1);
        assert_eq!(p.hops[0].0.types, vec!["ORIGINATE"]);
        assert_eq!(p.hops[0].0.dir, RelDir::Undirected);
        assert_eq!(p.hops[0].1.labels, vec!["Prefix"]);
        let Clause::Return(proj) = &q.clauses[1] else {
            panic!("expected RETURN")
        };
        assert!(proj.distinct);
        assert_eq!(proj.items[0].alias, "x.asn");
    }

    #[test]
    fn parses_listing_2_moas() {
        let q = parse(
            "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
             WHERE x.asn <> y.asn
             RETURN DISTINCT p.prefix",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 3);
        assert!(matches!(
            &q.clauses[1],
            Clause::Where(Expr::Binary(BinOp::Ne, _, _))
        ));
    }

    #[test]
    fn parses_listing_3_with_inline_props_and_reference() {
        let q = parse(
            "MATCH (org:Organization)-[:MANAGED_BY]-(:AS)-[:ORIGINATE]-(pfx:Prefix)-[:CATEGORIZED]-(:Tag {label:'RPKI Valid'})
             WHERE org.name = 'CERN'
             MATCH (pfx)-[:PART_OF]-(:IP)-[:RESOLVES_TO {reference_name:'openintel.tranco1m'}]-(h:HostName)
             RETURN distinct h.name",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 4);
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!()
        };
        let tag = &patterns[0].hops[2].1;
        assert_eq!(tag.labels, vec!["Tag"]);
        assert_eq!(tag.props[0].0, "label");
        let Clause::Match { patterns, .. } = &q.clauses[2] else {
            panic!()
        };
        let rel = &patterns[0].hops[1].0;
        assert_eq!(rel.props[0].0, "reference_name");
    }

    #[test]
    fn parses_directed_arrows() {
        let q = parse("MATCH (a)-[:R]->(b)<-[:S]-(c) RETURN a").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(patterns[0].hops[0].0.dir, RelDir::Right);
        assert_eq!(patterns[0].hops[1].0.dir, RelDir::Left);
    }

    #[test]
    fn parses_multiple_rel_types() {
        let q = parse("MATCH (a)-[:R|S|:T]-(b) RETURN a").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(patterns[0].hops[0].0.types, vec!["R", "S", "T"]);
    }

    #[test]
    fn parses_count_star_and_aggregates() {
        let q = parse("MATCH (n) RETURN count(*), count(DISTINCT n), collect(n.x) AS xs").unwrap();
        let Clause::Return(p) = &q.clauses[1] else {
            panic!()
        };
        assert_eq!(p.items.len(), 3);
        let Expr::Call {
            name,
            distinct,
            args,
        } = &p.items[0].expr
        else {
            panic!()
        };
        assert_eq!(name, "count");
        assert!(!distinct);
        assert!(args.is_empty());
        let Expr::Call { distinct, .. } = &p.items[1].expr else {
            panic!()
        };
        assert!(distinct);
        assert_eq!(p.items[2].alias, "xs");
    }

    #[test]
    fn parses_with_order_skip_limit() {
        let q = parse(
            "MATCH (n:AS)
             WITH n.asn AS asn, count(*) AS c
             WHERE c > 2
             RETURN asn ORDER BY c DESC, asn SKIP 1 LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.clauses.len(), 4);
        let Clause::Return(p) = &q.clauses[3] else {
            panic!()
        };
        assert_eq!(p.order_by.len(), 2);
        assert!(p.order_by[0].descending);
        assert!(!p.order_by[1].descending);
        assert!(p.skip.is_some());
        assert!(p.limit.is_some());
    }

    #[test]
    fn parses_starts_with_and_in() {
        let q = parse(
            "MATCH (t:Tag) WHERE t.label STARTS WITH 'RPKI Invalid' AND t.x IN [1,2,3] RETURN t",
        )
        .unwrap();
        let Clause::Where(e) = &q.clauses[1] else {
            panic!()
        };
        assert!(matches!(e, Expr::Binary(BinOp::And, _, _)));
    }

    #[test]
    fn parses_unwind_and_params() {
        let q = parse("UNWIND $asns AS a MATCH (n:AS {asn: a}) RETURN n.asn").unwrap();
        assert!(matches!(&q.clauses[0], Clause::Unwind { .. }));
    }

    #[test]
    fn parses_case() {
        let q = parse(
            "MATCH (n) RETURN CASE WHEN n.af = 4 THEN 'v4' WHEN n.af = 6 THEN 'v6' ELSE '?' END AS fam",
        )
        .unwrap();
        let Clause::Return(p) = &q.clauses[1] else {
            panic!()
        };
        assert!(matches!(&p.items[0].expr, Expr::Case { branches, .. } if branches.len() == 2));
        assert_eq!(p.items[0].alias, "fam");
    }

    #[test]
    fn parses_is_null() {
        let q = parse("MATCH (n) WHERE n.x IS NOT NULL AND n.y IS NULL RETURN n").unwrap();
        let Clause::Where(Expr::Binary(BinOp::And, a, b)) = &q.clauses[1] else {
            panic!()
        };
        assert!(matches!(a.as_ref(), Expr::IsNull(_, true)));
        assert!(matches!(b.as_ref(), Expr::IsNull(_, false)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("MATCH (n)").is_err()); // no RETURN
        assert!(parse("RETURN").is_err());
        assert!(parse("MATCH (n RETURN n").is_err());
        assert!(parse("MATCH (a)<-[:R]->(b) RETURN a").is_err());
        assert!(parse("MATCH (n) RETURN n extra").is_err());
    }

    #[test]
    fn backticked_ranking_name() {
        let q = parse("MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d) RETURN d").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(patterns[0].start.props[0].0, "name");
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive() {
        for q in [
            "match (n) return n",
            "MATCH (n) RETURN n",
            "Match (n) Return n",
            "mAtCh (n) rEtUrN n",
        ] {
            assert!(parse(q).is_ok(), "{q}");
        }
    }

    #[test]
    fn keyword_like_identifiers_work_as_variables() {
        // `matcher`, `returned` must not be eaten as keywords.
        let q = parse("MATCH (matcher:AS) RETURN matcher.asn").unwrap();
        let Clause::Match { patterns, .. } = &q.clauses[0] else {
            panic!()
        };
        assert_eq!(patterns[0].start.var.as_deref(), Some("matcher"));
    }

    #[test]
    fn var_length_forms() {
        for (q, expected) in [
            ("MATCH (a)-[:R*]-(b) RETURN a", (1, VAR_LENGTH_CAP)),
            ("MATCH (a)-[:R*3]-(b) RETURN a", (3, 3)),
            ("MATCH (a)-[:R*2..5]-(b) RETURN a", (2, 5)),
            ("MATCH (a)-[:R*..4]-(b) RETURN a", (1, 4)),
            ("MATCH (a)-[:R*2..]-(b) RETURN a", (2, VAR_LENGTH_CAP)),
        ] {
            let ast = parse(q).unwrap();
            let Clause::Match { patterns, .. } = &ast.clauses[0] else {
                panic!()
            };
            assert_eq!(patterns[0].hops[0].0.var_length, Some(expected), "{q}");
        }
    }

    #[test]
    fn exists_subquery_parses() {
        let q = parse(
            "MATCH (a:AS) WHERE EXISTS { MATCH (a)-[:ORIGINATE]-(p:Prefix) WHERE p.af = 4 } RETURN a",
        )
        .unwrap();
        let Clause::Where(Expr::Exists { patterns, filter }) = &q.clauses[1] else {
            panic!("{:?}", q.clauses[1]);
        };
        assert_eq!(patterns.len(), 1);
        assert!(filter.is_some());
    }

    #[test]
    fn write_clause_shapes() {
        assert!(parse("CREATE (:AS {asn: 1})").is_ok());
        assert!(parse("MERGE (t:Tag {label: 'x'})").is_ok());
        assert!(parse("MATCH (a) SET a.x = 1, a.y = 'z'").is_ok());
        assert!(parse("MATCH (a) DETACH DELETE a").is_ok());
        assert!(parse("MATCH (a)-[r]-() DELETE r, a").is_ok());
        // Reads still require RETURN.
        assert!(parse("MATCH (a)").is_err());
        // SET without assignment fails.
        assert!(parse("MATCH (a) SET a").is_err());
    }

    #[test]
    fn semicolons_and_whitespace_are_tolerated() {
        assert!(parse("MATCH (n) RETURN n;").is_ok());
        assert!(parse("  \n\tMATCH (n)\n\nRETURN n\n").is_ok());
        assert!(parse("CREATE (:AS {asn: 1});").is_ok());
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        for (shape, text) in [
            (
                "lists",
                format!("RETURN {}1{}", "[".repeat(5_000), "]".repeat(5_000)),
            ),
            ("sum chain", format!("RETURN 1{}", " + 1".repeat(40_000))),
            (
                "NOT prefixes",
                format!("RETURN {}true", "NOT ".repeat(20_000)),
            ),
            ("unary minus", format!("RETURN {}1", "- ".repeat(40_000))),
            (
                "parentheses",
                format!("RETURN {}1{}", "(".repeat(5_000), ")".repeat(5_000)),
            ),
            (
                "property chain",
                format!("MATCH (n) RETURN n{}", ".a".repeat(5_000)),
            ),
            // These recurse through more parser frames per level.
            (
                "calls",
                format!("RETURN {}1{}", "abs(".repeat(5_000), ")".repeat(5_000)),
            ),
            (
                "indexes",
                format!("RETURN {}0{}", "x[".repeat(5_000), "]".repeat(5_000)),
            ),
            (
                "NOT groups",
                format!("RETURN {}true{}", "NOT (".repeat(5_000), ")".repeat(5_000)),
            ),
            (
                "CASE",
                format!(
                    "RETURN {}1{}",
                    "CASE WHEN ".repeat(5_000),
                    " THEN 1 END".repeat(5_000)
                ),
            ),
            (
                "EXISTS",
                format!(
                    "MATCH (a) WHERE {}true{} RETURN a",
                    "EXISTS { MATCH (a {x: ".repeat(5_000),
                    "}) }".repeat(5_000)
                ),
            ),
        ] {
            match parse(&text) {
                Err(CypherError::Parse { msg, .. }) => {
                    assert!(msg.contains("deeper than 128"), "{shape}: {msg}")
                }
                other => panic!("{shape}: expected a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let sum = format!("RETURN 1{}", " + 1".repeat(100));
        let list = format!("RETURN {}1{}", "[".repeat(100), "]".repeat(100));
        let nots = format!("MATCH (n) WHERE {}true RETURN n", "NOT ".repeat(100));
        for text in [sum, list, nots] {
            assert!(parse(&text).is_ok(), "{text}");
        }
        // EXISTS subqueries count their inline property maps too.
        let inner = format!("{}1{}", "[".repeat(127), "]".repeat(127));
        let q = format!("MATCH (a) WHERE EXISTS {{ MATCH (a)--(b {{x: {inner}}}) }} RETURN a");
        assert!(parse(&q).is_err());
    }

    #[test]
    fn deeply_nested_expressions() {
        assert!(
            parse("MATCH (n) WHERE ((n.a + 1) * (n.b - 2)) / (n.c % 3) > -(n.d ^ 2) RETURN n")
                .is_ok()
        );
        assert!(parse(
            "MATCH (n) RETURN CASE WHEN n.x IN [1, [2, 3], 'a'] THEN coalesce(n.y, n.z, 0) ELSE size(split(n.s, '.')) END"
        )
        .is_ok());
    }
}
