//! A Cypher query engine for the IYP property graph.
//!
//! The paper's entire user-facing surface is Cypher: every reproduced
//! study is a handful of `MATCH … WHERE … RETURN …` queries (Listings
//! 1–6). This crate implements the subset of openCypher those queries —
//! and realistic extensions of them — need:
//!
//! - `MATCH` / `OPTIONAL MATCH` with linear path patterns, inline
//!   property maps, multiple labels, and all three arrow directions;
//! - relationship-uniqueness semantics within a `MATCH` clause;
//! - `WHERE` with boolean operators, comparisons, `STARTS WITH` /
//!   `ENDS WITH` / `CONTAINS`, `IN`, `IS [NOT] NULL`;
//! - `WITH` pipelines, `UNWIND`, and `RETURN`, each with `DISTINCT`,
//!   aggregation (`count`, `collect`, `sum`, `avg`, `min`, `max`,
//!   `percentileCont`), `ORDER BY`, `SKIP` and `LIMIT`;
//! - scalar functions (`toUpper`, `size`, `coalesce`, `labels`, `type`,
//!   `id`, `split`, `substring`, `toInteger`, …) and `$parameters`;
//! - `//` comments, case-insensitive keywords;
//! - `CREATE`, `MERGE`, `SET` and `[DETACH] DELETE` through
//!   [`query_write`].
//!
//! A query runs in three stages: [`parser`] turns the text into an
//! [`ast::Query`] (cached per text), [`plan`] compiles it against the
//! graph into a chain of operators with every pattern's anchor decided,
//! and [`exec`] walks that chain — the same chain `EXPLAIN` prints and
//! `PROFILE` reports on. [`Statement`] is the API for reads,
//! [`query_write`] for writes.
//!
//! # Example
//!
//! Listing 2 of the paper — all MOAS prefixes — runs verbatim:
//!
//! ```
//! use iyp_graph::{Graph, Props};
//! use iyp_cypher::Statement;
//!
//! let mut g = Graph::new();
//! let a = g.merge_node("AS", "asn", 64496u32, Props::new());
//! let b = g.merge_node("AS", "asn", 64497u32, Props::new());
//! let p = g.merge_node("Prefix", "prefix", "192.0.2.0/24", Props::new());
//! g.create_rel(a, "ORIGINATE", p, Props::new()).unwrap();
//! g.create_rel(b, "ORIGINATE", p, Props::new()).unwrap();
//!
//! let rs = Statement::prepare("
//!     // Find Prefixes with two originating ASes
//!     MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS)
//!     WHERE x.asn <> y.asn
//!     RETURN DISTINCT p.prefix
//! ").unwrap().run(&g).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! assert_eq!(rs.rows[0][0].as_scalar().unwrap().as_str(), Some("192.0.2.0/24"));
//! ```

pub mod ast;
pub mod cache;
pub mod cancel;
pub mod error;
pub mod eval;
pub mod exec;
pub mod lexer;
pub mod par;
pub mod parser;
pub mod plan;
pub mod rtval;
pub mod statement;
pub mod write;

pub use cache::QueryCache;
pub use cancel::Cancel;
pub use error::CypherError;
pub use exec::{Params, ResultSet};
pub use par::{set_min_partition, set_threads, threads};
pub use plan::PlanNode;
pub use rtval::{GroupKey, RtVal};
pub use statement::Statement;
pub use write::{query_write, WriteSummary};
