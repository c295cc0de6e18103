//! Snapshot persistence.
//!
//! The public IYP service releases weekly database snapshots that users
//! load into a local instance (§3.1). This module provides the same
//! workflow for our store, in two formats:
//!
//! - **JSON** — human-inspectable, interoperable;
//! - **binary** — a compact length-prefixed little-endian encoding
//!   (see [`crate::codec`]), several times smaller and faster, used by
//!   the benchmark suite.
//!
//! Both formats roundtrip the complete graph; indexes are rebuilt on
//! load, and both loaders reject ids that point outside the decoded
//! tables instead of panicking on them.

use crate::codec::{put_props, put_str, Reader};
use crate::error::GraphError;
use crate::node::{Node, NodeId, Rel, RelId};
use crate::store::Graph;
use crate::symbols::{LabelId, RelTypeId, SymbolTable};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// Magic bytes identifying a binary IYP snapshot.
const MAGIC: &[u8; 4] = b"IYPS";
/// Binary format version.
const VERSION: u8 = 1;

#[derive(Serialize, Deserialize)]
struct SnapshotDoc {
    symbols: SymbolTable,
    nodes: Vec<Option<Node>>,
    rels: Vec<Option<Rel>>,
}

/// Serialises the graph to a JSON snapshot string.
pub fn to_json(graph: &Graph) -> Result<String, GraphError> {
    let (symbols, nodes, rels) = graph.parts();
    let doc = SnapshotDoc {
        symbols: symbols.clone(),
        nodes: nodes.to_vec(),
        rels: rels.to_vec(),
    };
    serde_json::to_string(&doc).map_err(|e| GraphError::Snapshot(e.to_string()))
}

/// Loads a graph from a JSON snapshot string.
pub fn from_json(json: &str) -> Result<Graph, GraphError> {
    let doc: SnapshotDoc =
        serde_json::from_str(json).map_err(|e| GraphError::Snapshot(e.to_string()))?;
    Graph::from_parts(doc.symbols, doc.nodes, doc.rels)
}

/// Writes a JSON snapshot to a file.
pub fn save_json(graph: &Graph, path: &Path) -> Result<(), GraphError> {
    let json = to_json(graph)?;
    fs::write(path, json).map_err(|e| GraphError::Snapshot(e.to_string()))
}

/// Loads a JSON snapshot from a file.
pub fn load_json(path: &Path) -> Result<Graph, GraphError> {
    let json = fs::read_to_string(path).map_err(|e| GraphError::Snapshot(e.to_string()))?;
    from_json(&json)
}

// ----------------------------------------------------------------------
// Binary format
// ----------------------------------------------------------------------

/// Serialises the graph to the compact binary snapshot format.
pub fn to_binary(graph: &Graph) -> Vec<u8> {
    let (symbols, nodes, rels) = graph.parts();
    let mut buf = Vec::with_capacity(1 << 16);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);

    // Symbol table: labels, rel types (prop keys are rebuilt from data).
    buf.extend_from_slice(&(symbols.label_count() as u32).to_le_bytes());
    for (_, l) in symbols.labels() {
        put_str(&mut buf, l);
    }
    buf.extend_from_slice(&(symbols.rel_type_count() as u32).to_le_bytes());
    for (_, t) in symbols.rel_types() {
        put_str(&mut buf, t);
    }

    // Nodes (adjacency is rebuilt from rels on load).
    buf.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    for slot in nodes {
        match slot {
            None => buf.push(0),
            Some(n) => {
                buf.push(1);
                buf.extend_from_slice(&(n.labels.len() as u16).to_le_bytes());
                for l in &n.labels {
                    buf.extend_from_slice(&l.0.to_le_bytes());
                }
                put_props(&mut buf, &n.props);
            }
        }
    }

    // Rels.
    buf.extend_from_slice(&(rels.len() as u64).to_le_bytes());
    for slot in rels {
        match slot {
            None => buf.push(0),
            Some(r) => {
                buf.push(1);
                buf.extend_from_slice(&r.rel_type.0.to_le_bytes());
                buf.extend_from_slice(&r.src.0.to_le_bytes());
                buf.extend_from_slice(&r.dst.0.to_le_bytes());
                put_props(&mut buf, &r.props);
            }
        }
    }
    buf
}

/// Loads a graph from the compact binary snapshot format.
pub fn from_binary(data: &[u8]) -> Result<Graph, GraphError> {
    let mut r = Reader::new(data);
    if r.bytes(4, "header")? != MAGIC {
        return Err(GraphError::Snapshot("bad magic".into()));
    }
    let version = r.u8("header")?;
    if version != VERSION {
        return Err(GraphError::Snapshot(format!(
            "unsupported version {version}"
        )));
    }

    let mut symbols = SymbolTable::new();
    for _ in 0..r.u32("label table")? {
        symbols.label(&r.str("label name")?);
    }
    for _ in 0..r.u32("type table")? {
        symbols.rel_type(&r.str("type name")?);
    }

    // Every slot takes at least one byte, which caps what a corrupt
    // count can reserve.
    let nnodes = r.u64("node count")? as usize;
    let mut nodes: Vec<Option<Node>> = Vec::with_capacity(nnodes.min(r.remaining()));
    for i in 0..nnodes {
        match r.u8("node")? {
            0 => nodes.push(None),
            1 => {
                let nl = r.u16("node labels")? as usize;
                let mut labels = Vec::with_capacity(nl.min(r.remaining()));
                for _ in 0..nl {
                    labels.push(LabelId(r.u32("label id")?));
                }
                nodes.push(Some(Node {
                    id: NodeId(i as u64),
                    labels,
                    props: r.props()?,
                    out_rels: Vec::new(),
                    in_rels: Vec::new(),
                }));
            }
            t => return Err(GraphError::Snapshot(format!("bad node tag {t}"))),
        }
    }

    let nrels = r.u64("rel count")? as usize;
    let mut rels: Vec<Option<Rel>> = Vec::with_capacity(nrels.min(r.remaining()));
    for i in 0..nrels {
        match r.u8("rel")? {
            0 => rels.push(None),
            1 => rels.push(Some(Rel {
                id: RelId(i as u64),
                rel_type: RelTypeId(r.u32("rel type")?),
                src: NodeId(r.u64("rel src")?),
                dst: NodeId(r.u64("rel dst")?),
                props: r.props()?,
            })),
            t => return Err(GraphError::Snapshot(format!("bad rel tag {t}"))),
        }
    }

    Graph::from_parts(symbols, nodes, rels)
}

/// Writes a binary snapshot to a file.
pub fn save_binary(graph: &Graph, path: &Path) -> Result<(), GraphError> {
    fs::write(path, to_binary(graph)).map_err(|e| GraphError::Snapshot(e.to_string()))
}

/// Loads a binary snapshot from a file.
pub fn load_binary(path: &Path) -> Result<Graph, GraphError> {
    let data = fs::read(path).map_err(|e| GraphError::Snapshot(e.to_string()))?;
    from_binary(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Direction;
    use crate::value::{props, Props, Value};

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 2497u32, props([("name", "IIJ".into())]));
        let p = g.merge_node(
            "Prefix",
            "prefix",
            "2001:db8::/32",
            props([("af", Value::Int(6))]),
        );
        g.create_rel(
            a,
            "ORIGINATE",
            p,
            props([
                ("reference_name", "bgpkit.pfx2as".into()),
                ("count", Value::Int(12)),
                ("weight", Value::Float(0.25)),
                ("tags", Value::List(vec!["x".into(), Value::Int(1)])),
                ("nullable", Value::Null),
                ("flag", Value::Bool(true)),
            ]),
        )
        .unwrap();
        g
    }

    fn assert_same(g: &Graph, h: &Graph) {
        assert_eq!(g.node_count(), h.node_count());
        assert_eq!(g.rel_count(), h.rel_count());
        let a = h.lookup("AS", "asn", 2497u32).expect("AS survives");
        let p = h
            .lookup("Prefix", "prefix", "2001:db8::/32")
            .expect("prefix survives");
        let t = h.symbols().get_rel_type("ORIGINATE");
        let rels: Vec<_> = h.rels_of(a, Direction::Outgoing, t).collect();
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].dst, p);
        assert_eq!(rels[0].prop("count").unwrap().as_int(), Some(12));
        assert_eq!(rels[0].prop("weight").unwrap().as_float(), Some(0.25));
        assert!(rels[0].prop("nullable").unwrap().is_null());
        assert_eq!(rels[0].prop("flag").unwrap().as_bool(), Some(true));
        assert_eq!(rels[0].prop("tags").unwrap().as_list().unwrap().len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let g = sample_graph();
        let json = to_json(&g).unwrap();
        let h = from_json(&json).unwrap();
        assert_same(&g, &h);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample_graph();
        let bin = to_binary(&g);
        let h = from_binary(&bin).unwrap();
        assert_same(&g, &h);
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let g = sample_graph();
        assert!(to_binary(&g).len() < to_json(&g).unwrap().len());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_binary(b"").is_err());
        assert!(from_binary(b"NOPE\x01").is_err());
        assert!(from_binary(b"IYPS\x63").is_err()); // bad version
        let mut bin = to_binary(&sample_graph());
        bin.truncate(bin.len() / 2);
        assert!(from_binary(&bin).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = sample_graph();
        let dir = std::env::temp_dir();
        let jpath = dir.join("iyp_snapshot_test.json");
        let bpath = dir.join("iyp_snapshot_test.bin");
        save_json(&g, &jpath).unwrap();
        save_binary(&g, &bpath).unwrap();
        assert_same(&g, &load_json(&jpath).unwrap());
        assert_same(&g, &load_binary(&bpath).unwrap());
        let _ = std::fs::remove_file(jpath);
        let _ = std::fs::remove_file(bpath);
    }

    #[test]
    fn roundtrip_preserves_merge_semantics() {
        let g = sample_graph();
        let mut h = from_binary(&to_binary(&g)).unwrap();
        // Merging the same AS key must hit the existing node, not make a new one.
        let before = h.node_count();
        let a = h.merge_node("AS", "asn", 2497u32, Props::new());
        assert_eq!(h.node_count(), before);
        assert_eq!(Some(a), h.lookup("AS", "asn", 2497u32));
    }

    #[test]
    fn roundtrip_with_deletions() {
        let mut g = sample_graph();
        let extra = g.merge_node("AS", "asn", 99u32, Props::new());
        g.delete_node(extra).unwrap();
        let h = from_binary(&to_binary(&g)).unwrap();
        assert_eq!(h.node_count(), g.node_count());
        assert!(h.lookup("AS", "asn", 99u32).is_none());
    }
}
