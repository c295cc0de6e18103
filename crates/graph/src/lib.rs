//! The IYP property-graph store.
//!
//! This crate implements the database substrate that the paper delegates
//! to Neo4j: a labelled property graph with
//!
//! - **nodes** carrying one or more *labels* (ontology entity types, e.g.
//!   `AS`, `Prefix`) and a property map;
//! - **relationships** carrying a *type* (e.g. `ORIGINATE`), a direction,
//!   and a property map (including the six IYP provenance properties);
//! - a **label index** (all nodes with a label) and a per-label
//!   **unique-key index** used for Neo4j-`MERGE`-style get-or-create, which
//!   is what makes identical entities from different datasets collapse
//!   into a single node (§2.3);
//! - **adjacency lists** for constant-time traversal in both directions;
//! - **snapshot** persistence, mirroring the weekly IYP dumps.
//!
//! Unlike nodes, relationships are *not* deduplicated: importing the same
//! fact from two datasets produces two parallel links distinguished by
//! their `reference_name` property — exactly the behaviour §2.3 prescribes.

pub mod algo;
pub mod codec;
pub mod error;
pub mod node;
pub mod op;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod symbols;
pub mod value;

pub use error::GraphError;
pub use node::{Direction, Node, NodeId, Rel, RelId};
pub use op::GraphOp;
pub use stats::GraphStats;
pub use store::Graph;
pub use symbols::{LabelId, PropKeyId, RelTypeId, SymbolTable};
pub use value::{props, KeyValue, Props, Value, MAX_VALUE_DEPTH};
