//! Internet Yellow Pages — the core, user-facing API.
//!
//! This crate ties the IYP stack together behind one type, [`Iyp`]:
//! build a knowledge graph from the (synthetic) Internet, query it in
//! Cypher, run the paper's studies, and save/load snapshots.
//!
//! ```
//! use iyp_core::{Iyp, SimConfig};
//!
//! // Build a small knowledge graph (all 46 datasets + refinement).
//! let iyp = Iyp::build(&SimConfig::tiny(), 42).unwrap();
//!
//! // Listing 1 of the paper: all ASes originating prefixes.
//! let rs = iyp.query("MATCH (x:AS)-[:ORIGINATE]-(:Prefix) RETURN count(DISTINCT x.asn)").unwrap();
//! assert!(rs.single_int().unwrap() > 0);
//! ```

pub mod docs;
pub mod notebook;

pub use iyp_crawlers as crawlers;
pub use iyp_cypher as cypher;
pub use iyp_graph as graph;
pub use iyp_journal as journal;
pub use iyp_netdata as netdata;
pub use iyp_ontology as ontology;
pub use iyp_pipeline as pipeline;
pub use iyp_simnet as simnet;
pub use iyp_studies as studies;

pub use iyp_cypher::{CypherError, Params, ResultSet, RtVal, Statement};
pub use iyp_graph::{Graph, GraphError, GraphStats, Props, Value};
pub use iyp_pipeline::{BuildOptions, BuildReport};
pub use iyp_simnet::{DatasetId, SimConfig, World};

use std::path::Path;

/// A built Internet Yellow Pages instance: the knowledge graph plus the
/// build report, with convenience accessors.
#[derive(Debug)]
pub struct Iyp {
    graph: Graph,
    report: BuildReport,
}

impl Iyp {
    /// Generates a synthetic Internet and builds the full knowledge
    /// graph from all 46 datasets, including the refinement passes.
    pub fn build(config: &SimConfig, seed: u64) -> Result<Iyp, crawlers::CrawlError> {
        let world = World::generate(config, seed);
        Self::build_from_world(&world, &BuildOptions::default())
    }

    /// Builds from an existing world with custom options.
    pub fn build_from_world(
        world: &World,
        options: &BuildOptions,
    ) -> Result<Iyp, crawlers::CrawlError> {
        let (graph, report) = iyp_pipeline::build_graph(world, options)?;
        Ok(Iyp { graph, report })
    }

    /// Wraps an existing graph (e.g. loaded from a snapshot).
    pub fn from_graph(graph: Graph) -> Iyp {
        let stats = GraphStats::compute(&graph);
        Iyp {
            report: BuildReport::empty(stats),
            graph,
        }
    }

    /// The knowledge graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access (local-instance workflows: add your own data).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// The build report.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// Consumes the instance, returning the owned graph (e.g. to share
    /// it behind an `Arc` with a query server).
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Consumes the instance, seeding a journal directory with the
    /// graph (generation-1 snapshot + empty WAL) and returning the
    /// durable handle — the journaled-build workflow: subsequent writes
    /// go through the WAL and survive crashes.
    pub fn into_durable(
        self,
        dir: &Path,
        policy: journal::FsyncPolicy,
    ) -> Result<journal::DurableGraph, journal::JournalError> {
        journal::DurableGraph::seed(dir, self.graph, policy)
    }

    /// Runs a Cypher query without parameters.
    pub fn query(&self, text: &str) -> Result<ResultSet, CypherError> {
        Statement::prepare(text)?.run(&self.graph)
    }

    /// Runs a Cypher query with parameters.
    pub fn query_with(&self, text: &str, params: &Params) -> Result<ResultSet, CypherError> {
        Statement::prepare(text)?.params(params).run(&self.graph)
    }

    /// Builds the execution plan for a query without running it
    /// (`EXPLAIN`).
    pub fn explain(&self, text: &str) -> Result<cypher::PlanNode, CypherError> {
        Ok(Statement::prepare(text)?.explain(&self.graph))
    }

    /// Runs a query and returns its result together with the plan
    /// annotated with per-operator rows and wall time (`PROFILE`).
    pub fn profile(&self, text: &str) -> Result<(ResultSet, cypher::PlanNode), CypherError> {
        Statement::prepare(text)?.profile(&self.graph)
    }

    /// Runs a (possibly writing) Cypher query — `CREATE`, `MERGE`,
    /// `SET`, `DELETE` — against the local instance (§6.1 workflow).
    pub fn update(
        &mut self,
        text: &str,
    ) -> Result<(ResultSet, iyp_cypher::WriteSummary), CypherError> {
        iyp_cypher::query_write(&mut self.graph, text, &Params::new())
    }

    /// Saves a binary snapshot (the weekly-dump workflow of §3.1).
    pub fn save_snapshot(&self, path: &Path) -> Result<(), GraphError> {
        graph::snapshot::save_binary(&self.graph, path)
    }

    /// Loads a binary snapshot.
    pub fn load_snapshot(path: &Path) -> Result<Iyp, GraphError> {
        Ok(Self::from_graph(graph::snapshot::load_binary(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_query_snapshot_roundtrip() {
        let iyp = Iyp::build(&SimConfig::tiny(), 1).unwrap();
        assert_eq!(iyp.report().violations, 0);
        let n = iyp
            .query("MATCH (p:Prefix) RETURN count(p)")
            .unwrap()
            .single_int()
            .unwrap();
        assert!(n > 0);

        let path = std::env::temp_dir().join("iyp_core_test.snapshot");
        iyp.save_snapshot(&path).unwrap();
        let restored = Iyp::load_snapshot(&path).unwrap();
        let m = restored
            .query("MATCH (p:Prefix) RETURN count(p)")
            .unwrap()
            .single_int()
            .unwrap();
        assert_eq!(n, m);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn local_instance_can_extend_graph() {
        // §6.1: a local instance can tag studied resources to simplify
        // subsequent queries.
        let mut iyp = Iyp::build(&SimConfig::tiny(), 1).unwrap();
        let g = iyp.graph_mut();
        let tag = g.merge_node("Tag", "label", "My Study", Props::new());
        let some_as = g.nodes_with_label("AS").next().unwrap();
        g.create_rel(some_as, "CATEGORIZED", tag, Props::new())
            .unwrap();
        let rs = iyp
            .query("MATCH (a:AS)-[:CATEGORIZED]-(:Tag {label:'My Study'}) RETURN count(a)")
            .unwrap();
        assert_eq!(rs.single_int(), Some(1));
    }
}
