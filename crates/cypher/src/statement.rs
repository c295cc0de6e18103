//! Prepared statements: the read-query API.
//!
//! [`Statement`] is the one way to run, explain and profile a read
//! query ([`crate::query_write`] runs writes). Preparing parses once —
//! re-preparing the same text reuses a process-global AST cache. Each
//! run compiles the AST against the graph into the plan the executor
//! walks ([`crate::plan`]); `EXPLAIN` renders that plan and `PROFILE`
//! renders it after running it. Runs consult an epoch-keyed
//! [`QueryCache`], so repeated hot queries against an unchanged graph
//! skip execution entirely:
//!
//! ```
//! use iyp_cypher::{Cancel, Params, Statement};
//! use iyp_graph::{Graph, Props, Value};
//!
//! let mut g = Graph::new();
//! g.merge_node("AS", "asn", 2497u32, Props::new());
//! let mut params = Params::new();
//! params.insert("asn".to_string(), Value::Int(2497));
//! let cancel = Cancel::new();
//! let n = Statement::prepare("MATCH (a:AS {asn: $asn}) RETURN count(a)")?
//!     .params(&params)
//!     .cancel(&cancel)
//!     .run(&g)?;
//! assert_eq!(n.single_int(), Some(1));
//! # Ok::<(), iyp_cypher::CypherError>(())
//! ```
//!
//! Cache semantics: a statement run consults its attached cache (or
//! the [`crate::cache::global`] one when none is attached; attach with
//! [`Statement::cache`], opt out with [`Statement::no_cache`]). A hit
//! still polls the cancel token once, so `--query-timeout` semantics
//! hold — an already-expired deadline reports `timeout` rather than
//! sneaking a result out of the cache. `PROFILE` runs mark the plan
//! root `cache=hit|miss` whenever a cache is enabled; on a hit the plan
//! carries no per-operator stats because nothing ran.

use crate::ast::{Query, QueryMode};
use crate::cache::{self, QueryCache};
use crate::cancel::Cancel;
use crate::error::CypherError;
use crate::exec::{plan_result, run, Params, ResultSet, Target};
use crate::plan::{compile, Plan, PlanNode};
use iyp_graph::Graph;
use std::sync::{Arc, OnceLock};

/// A parsed, reusable query. See the module docs for an example.
pub struct Statement<'a> {
    text: String,
    ast: Arc<Query>,
    params: Option<&'a Params>,
    cancel: Option<&'a Cancel>,
    cache: Option<&'a QueryCache>,
    use_cache: bool,
}

fn empty_params() -> &'static Params {
    static EMPTY: OnceLock<Params> = OnceLock::new();
    EMPTY.get_or_init(Params::new)
}

impl<'a> Statement<'a> {
    /// Parses `text` into a reusable statement. The parsed AST is
    /// shared through a process-global cache, so preparing the same
    /// text twice does not re-run the parser.
    pub fn prepare(text: &str) -> Result<Statement<'static>, CypherError> {
        Ok(Statement {
            text: text.to_string(),
            ast: cache::parse_cached(text)?,
            params: None,
            cancel: None,
            cache: None,
            use_cache: true,
        })
    }

    /// Attaches query parameters (`$name` placeholders).
    pub fn params<'b>(self, params: &'b Params) -> Statement<'b>
    where
        'a: 'b,
    {
        Statement {
            params: Some(params),
            ..self
        }
    }

    /// Attaches a cancel token, polled at row boundaries during
    /// execution — and once on a cache hit, so deadlines behave the
    /// same whether or not the cache answers.
    pub fn cancel<'b>(self, cancel: &'b Cancel) -> Statement<'b>
    where
        'a: 'b,
    {
        Statement {
            cancel: Some(cancel),
            ..self
        }
    }

    /// Uses `cache` for this statement's runs instead of the
    /// process-global one (the server attaches its own per-service
    /// cache this way).
    pub fn cache<'b>(self, cache: &'b QueryCache) -> Statement<'b>
    where
        'a: 'b,
    {
        Statement {
            cache: Some(cache),
            ..self
        }
    }

    /// Disables result caching for this statement's runs (the AST is
    /// still reused).
    pub fn no_cache(mut self) -> Statement<'a> {
        self.use_cache = false;
        self
    }

    /// Runs the statement and returns an owned result (cloning only if
    /// the result is simultaneously held by the cache — see
    /// [`Statement::run_shared`] to avoid that).
    pub fn run(&self, graph: &Graph) -> Result<ResultSet, CypherError> {
        let shared = self.run_shared(graph)?;
        Ok(Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Runs the statement. On a cache hit this returns the cached
    /// result without executing anything; the result is byte-identical
    /// to what execution would produce because the cache key embeds
    /// the graph's mutation epoch.
    ///
    /// `EXPLAIN`/`PROFILE`-prefixed statements return their plan as a
    /// one-`plan`-column result, one row per plan line.
    pub fn run_shared(&self, graph: &Graph) -> Result<Arc<ResultSet>, CypherError> {
        let _span = iyp_telemetry::span(iyp_telemetry::names::CYPHER_QUERY_SECONDS);
        iyp_telemetry::counter(iyp_telemetry::names::CYPHER_QUERIES_TOTAL).incr();
        match self.ast.mode {
            QueryMode::Normal => Ok(self
                .execute(graph, &mut compile(graph, &self.ast), false)?
                .0),
            QueryMode::Explain => Ok(Arc::new(plan_result(&self.explain(graph)))),
            QueryMode::Profile => Ok(Arc::new(plan_result(&self.profile_impl(graph)?.1))),
        }
    }

    /// Compiles the statement against `graph` and renders the plan a
    /// run would execute, without running anything.
    pub fn explain(&self, graph: &Graph) -> PlanNode {
        compile(graph, &self.ast).tree(graph)
    }

    /// Runs the statement and returns both its result and the plan that
    /// ran: every operator carries the rows it produced, and each
    /// clause its wall time. With a cache enabled the plan root is
    /// marked `cache=hit` (served without executing; no per-operator
    /// stats) or `cache=miss` (executed and now cached).
    pub fn profile(&self, graph: &Graph) -> Result<(ResultSet, PlanNode), CypherError> {
        let (rows, plan) = self.profile_impl(graph)?;
        Ok((
            Arc::try_unwrap(rows).unwrap_or_else(|arc| (*arc).clone()),
            plan,
        ))
    }

    fn profile_impl(&self, graph: &Graph) -> Result<(Arc<ResultSet>, PlanNode), CypherError> {
        let mut plan = compile(graph, &self.ast);
        let (rows, cache) = self.execute(graph, &mut plan, true)?;
        let mut tree = plan.tree(graph);
        tree.cache = cache;
        Ok((rows, tree))
    }

    /// Runs `plan`, unless the cache answers; a hit still polls the
    /// cancel token once, so deadlines hold either way. Returns the
    /// result and, when a cache is in play, whether it hit.
    fn execute(
        &self,
        graph: &Graph,
        plan: &mut Plan<'_>,
        profile: bool,
    ) -> Result<(Arc<ResultSet>, Option<&'static str>), CypherError> {
        let params = self.params.unwrap_or(empty_params());
        let cache = self.effective_cache();
        if let Some(hit) = cache.and_then(|c| c.get(graph, &self.text, params)) {
            if let Some(token) = self.cancel {
                token.check()?;
            }
            return Ok((hit, Some("hit")));
        }
        let (rows, _) = run(Target::Read(graph), plan, params, self.cancel, profile)?;
        let rows = Arc::new(rows);
        if let Some(cache) = cache {
            cache.insert(graph, &self.text, params, Arc::clone(&rows));
        }
        Ok((rows, cache.map(|_| "miss")))
    }

    /// The cache this run will consult: the attached one, else the
    /// global one — and only if it is enabled and `no_cache` was not
    /// requested.
    fn effective_cache(&self) -> Option<&QueryCache> {
        if !self.use_cache {
            return None;
        }
        let cache = self.cache.unwrap_or_else(|| cache::global());
        if cache.is_enabled() {
            Some(cache)
        } else {
            None
        }
    }
}
