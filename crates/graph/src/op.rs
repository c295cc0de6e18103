//! Logical graph operations: the unit of journaling and replay.
//!
//! Every mutation the store can perform is expressible as a [`GraphOp`].
//! Live writes *record* the ops they perform (see
//! [`Graph::begin_recording`]), a write-ahead log persists them, and
//! crash recovery *replays* them through [`Graph::apply`] — one shared
//! code path, so a replayed log reproduces the exact same state,
//! including node and relationship ids.
//!
//! # Effect logging
//!
//! Ops are *effects*, not intents: a `MERGE` records which node it
//! resolved to and whether it created one, and creations record the id
//! the store assigned. This makes replay deterministic by construction
//! — it never re-runs index lookups whose outcome could differ after a
//! snapshot reload — and lets [`Graph::apply`] *verify* determinism:
//! if a replayed creation would assign a different id than the recorded
//! one, replay fails with [`GraphError::Replay`] instead of silently
//! diverging.

use crate::codec::{put_props, put_str, put_value, Reader};
use crate::error::GraphError;
use crate::node::{NodeId, RelId};
use crate::value::{KeyValue, Props, Value};

/// One logical mutation of the graph, as recorded by a live write.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphOp {
    /// `Graph::create_node` — `id` is the id the store assigned.
    CreateNode {
        /// Assigned node id (next dense id at the time of the write).
        id: NodeId,
        /// Label names (resolved to the symbol table on apply).
        labels: Vec<String>,
        /// Initial properties.
        props: Props,
    },
    /// `Graph::merge_node` — with the resolution it took.
    MergeNode {
        /// Merge label.
        label: String,
        /// Merge key property name.
        key: String,
        /// Merge key value.
        key_value: KeyValue,
        /// Extra properties merged into the node.
        props: Props,
        /// The node the merge resolved to.
        node: NodeId,
        /// Whether the node was created (vs. merged into an existing
        /// one). Replay honours this decision instead of re-probing
        /// the unique-key index.
        created: bool,
    },
    /// `Graph::add_label`.
    AddLabel {
        /// Target node.
        node: NodeId,
        /// Label name to add.
        label: String,
    },
    /// `Graph::set_node_prop`.
    SetNodeProp {
        /// Target node.
        node: NodeId,
        /// Property key.
        key: String,
        /// New value.
        value: Value,
    },
    /// `Graph::set_rel_prop`.
    SetRelProp {
        /// Target relationship.
        rel: RelId,
        /// Property key.
        key: String,
        /// New value.
        value: Value,
    },
    /// `Graph::create_rel` — `id` is the id the store assigned.
    CreateRel {
        /// Assigned relationship id.
        id: RelId,
        /// Source node.
        src: NodeId,
        /// Relationship type name.
        rel_type: String,
        /// Destination node.
        dst: NodeId,
        /// Relationship properties.
        props: Props,
    },
    /// `Graph::delete_rel`.
    DeleteRel {
        /// Relationship to delete.
        rel: RelId,
    },
    /// `Graph::delete_node` (detach semantics: the cascade over the
    /// node's relationships is implied, not recorded separately).
    DeleteNode {
        /// Node to delete.
        node: NodeId,
    },
}

impl GraphOp {
    /// Short operation name (for reports and debugging).
    pub fn name(&self) -> &'static str {
        match self {
            GraphOp::CreateNode { .. } => "create_node",
            GraphOp::MergeNode { .. } => "merge_node",
            GraphOp::AddLabel { .. } => "add_label",
            GraphOp::SetNodeProp { .. } => "set_node_prop",
            GraphOp::SetRelProp { .. } => "set_rel_prop",
            GraphOp::CreateRel { .. } => "create_rel",
            GraphOp::DeleteRel { .. } => "delete_rel",
            GraphOp::DeleteNode { .. } => "delete_node",
        }
    }
}

// ----------------------------------------------------------------------
// Binary codec (shares the snapshot value encoding)
// ----------------------------------------------------------------------

const TAG_CREATE_NODE: u8 = 1;
const TAG_MERGE_NODE: u8 = 2;
const TAG_ADD_LABEL: u8 = 3;
const TAG_SET_NODE_PROP: u8 = 4;
const TAG_SET_REL_PROP: u8 = 5;
const TAG_CREATE_REL: u8 = 6;
const TAG_DELETE_REL: u8 = 7;
const TAG_DELETE_NODE: u8 = 8;

fn put_key_value(buf: &mut Vec<u8>, kv: &KeyValue) {
    match kv {
        KeyValue::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        KeyValue::Str(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

fn get_key_value(r: &mut Reader) -> Result<KeyValue, GraphError> {
    match r.u8("key-value tag")? {
        0 => Ok(KeyValue::Int(r.i64("key-value int")?)),
        1 => Ok(KeyValue::Str(r.str("key-value string")?)),
        t => Err(GraphError::Snapshot(format!("unknown key-value tag {t}"))),
    }
}

/// Appends the binary encoding of one op to `buf`.
pub fn encode_op(buf: &mut Vec<u8>, op: &GraphOp) {
    let put_id = |buf: &mut Vec<u8>, id: u64| buf.extend_from_slice(&id.to_le_bytes());
    match op {
        GraphOp::CreateNode { id, labels, props } => {
            buf.push(TAG_CREATE_NODE);
            put_id(buf, id.0);
            buf.extend_from_slice(&(labels.len() as u16).to_le_bytes());
            for l in labels {
                put_str(buf, l);
            }
            put_props(buf, props);
        }
        GraphOp::MergeNode {
            label,
            key,
            key_value,
            props,
            node,
            created,
        } => {
            buf.push(TAG_MERGE_NODE);
            put_str(buf, label);
            put_str(buf, key);
            put_key_value(buf, key_value);
            put_props(buf, props);
            put_id(buf, node.0);
            buf.push(*created as u8);
        }
        GraphOp::AddLabel { node, label } => {
            buf.push(TAG_ADD_LABEL);
            put_id(buf, node.0);
            put_str(buf, label);
        }
        GraphOp::SetNodeProp { node, key, value } => {
            buf.push(TAG_SET_NODE_PROP);
            put_id(buf, node.0);
            put_str(buf, key);
            put_value(buf, value);
        }
        GraphOp::SetRelProp { rel, key, value } => {
            buf.push(TAG_SET_REL_PROP);
            put_id(buf, rel.0);
            put_str(buf, key);
            put_value(buf, value);
        }
        GraphOp::CreateRel {
            id,
            src,
            rel_type,
            dst,
            props,
        } => {
            buf.push(TAG_CREATE_REL);
            put_id(buf, id.0);
            put_id(buf, src.0);
            put_str(buf, rel_type);
            put_id(buf, dst.0);
            put_props(buf, props);
        }
        GraphOp::DeleteRel { rel } => {
            buf.push(TAG_DELETE_REL);
            put_id(buf, rel.0);
        }
        GraphOp::DeleteNode { node } => {
            buf.push(TAG_DELETE_NODE);
            put_id(buf, node.0);
        }
    }
}

/// Decodes one op from `r`, advancing it past the encoding.
pub fn decode_op(r: &mut Reader) -> Result<GraphOp, GraphError> {
    match r.u8("op tag")? {
        TAG_CREATE_NODE => {
            let id = NodeId(r.u64("node id")?);
            let n = r.u16("label count")? as usize;
            let mut labels = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                labels.push(r.str("label")?);
            }
            Ok(GraphOp::CreateNode {
                id,
                labels,
                props: r.props()?,
            })
        }
        TAG_MERGE_NODE => Ok(GraphOp::MergeNode {
            label: r.str("merge label")?,
            key: r.str("merge key")?,
            key_value: get_key_value(r)?,
            props: r.props()?,
            node: NodeId(r.u64("merge node id")?),
            created: r.u8("merge flag")? != 0,
        }),
        TAG_ADD_LABEL => Ok(GraphOp::AddLabel {
            node: NodeId(r.u64("node id")?),
            label: r.str("label")?,
        }),
        TAG_SET_NODE_PROP => Ok(GraphOp::SetNodeProp {
            node: NodeId(r.u64("node id")?),
            key: r.str("property key")?,
            value: r.value()?,
        }),
        TAG_SET_REL_PROP => Ok(GraphOp::SetRelProp {
            rel: RelId(r.u64("rel id")?),
            key: r.str("property key")?,
            value: r.value()?,
        }),
        TAG_CREATE_REL => Ok(GraphOp::CreateRel {
            id: RelId(r.u64("rel id")?),
            src: NodeId(r.u64("src node")?),
            rel_type: r.str("rel type")?,
            dst: NodeId(r.u64("dst node")?),
            props: r.props()?,
        }),
        TAG_DELETE_REL => Ok(GraphOp::DeleteRel {
            rel: RelId(r.u64("rel id")?),
        }),
        TAG_DELETE_NODE => Ok(GraphOp::DeleteNode {
            node: NodeId(r.u64("node id")?),
        }),
        t => Err(GraphError::Snapshot(format!("unknown op tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::props;

    fn sample_ops() -> Vec<GraphOp> {
        vec![
            GraphOp::CreateNode {
                id: NodeId(0),
                labels: vec!["AS".into(), "Tier1".into()],
                props: props([("asn", Value::Int(2497)), ("name", "IIJ".into())]),
            },
            GraphOp::MergeNode {
                label: "Prefix".into(),
                key: "prefix".into(),
                key_value: KeyValue::Str("192.0.2.0/24".into()),
                props: props([("af", Value::Int(4))]),
                node: NodeId(1),
                created: true,
            },
            GraphOp::MergeNode {
                label: "AS".into(),
                key: "asn".into(),
                key_value: KeyValue::Int(2497),
                props: Props::new(),
                node: NodeId(0),
                created: false,
            },
            GraphOp::AddLabel {
                node: NodeId(0),
                label: "Transit".into(),
            },
            GraphOp::SetNodeProp {
                node: NodeId(1),
                key: "tags".into(),
                value: Value::List(vec![Value::Null, Value::Bool(true), Value::Float(0.5)]),
            },
            GraphOp::CreateRel {
                id: RelId(0),
                src: NodeId(0),
                rel_type: "ORIGINATE".into(),
                dst: NodeId(1),
                props: props([("reference_name", "bgpkit.pfx2as".into())]),
            },
            GraphOp::SetRelProp {
                rel: RelId(0),
                key: "weight".into(),
                value: Value::Float(1.25),
            },
            GraphOp::DeleteRel { rel: RelId(0) },
            GraphOp::DeleteNode { node: NodeId(1) },
        ]
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        for op in sample_ops() {
            let mut buf = Vec::new();
            encode_op(&mut buf, &op);
            let mut r = Reader::new(&buf);
            let back = decode_op(&mut r).unwrap();
            assert_eq!(back, op);
            assert_eq!(r.remaining(), 0, "decoder must consume the encoding");
        }
    }

    #[test]
    fn codec_rejects_truncations() {
        for op in sample_ops() {
            let mut full = Vec::new();
            encode_op(&mut full, &op);
            for cut in 0..full.len() {
                assert!(
                    decode_op(&mut Reader::new(&full[..cut])).is_err(),
                    "truncation at {cut} of {} must fail for {}",
                    full.len(),
                    op.name()
                );
            }
        }
    }

    #[test]
    fn codec_rejects_unknown_tag() {
        assert!(decode_op(&mut Reader::new(&[99])).is_err());
    }
}
