//! Corrupt input must make the decoders fail, never panic.
//!
//! Every truncation and every single-bit flip of a small snapshot, and
//! every truncation of an encoded op batch, must decode to `Err` or to
//! a graph that is safe to use.

use iyp_graph::codec::Reader;
use iyp_graph::op::{decode_op, encode_op};
use iyp_graph::{props, snapshot, Direction, Graph, GraphOp, KeyValue, NodeId, RelId, Value};

/// Two nodes and one relationship, with all six value tags.
fn small_graph() -> Graph {
    let mut g = Graph::new();
    let a = g.merge_node("AS", "asn", 2497i64, props([("name", "IIJ".into())]));
    let p = g.merge_node(
        "Prefix",
        "prefix",
        "192.0.2.0/24",
        props([("af", Value::Int(4)), ("note", Value::Null)]),
    );
    g.create_rel(
        a,
        "ORIGINATE",
        p,
        props([
            ("weight", Value::Float(0.5)),
            ("flag", Value::Bool(true)),
            ("tags", Value::List(vec!["x".into(), Value::Int(1)])),
        ]),
    )
    .unwrap();
    g
}

/// Touches everything a loaded graph hands out by id, so a graph that
/// decoded with dangling ids fails here rather than later in a query.
fn exercise(g: &Graph) {
    let symbols = g.symbols();
    for n in g.all_nodes() {
        for l in &n.labels {
            symbols.label_name(*l);
        }
        for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
            for r in g.rels_of(n.id, dir, None) {
                symbols.rel_type_name(r.rel_type);
                g.rels_of(n.id, dir, Some(r.rel_type)).count();
                assert!(g.node(r.other(n.id)).is_some());
            }
        }
    }
    for r in g.all_rels() {
        assert!(g.node(r.src).is_some() && g.node(r.dst).is_some());
    }
}

fn decode_snapshot(bytes: &[u8]) {
    if let Ok(g) = snapshot::from_binary(bytes) {
        exercise(&g);
    }
}

#[test]
fn snapshot_truncations_fail_cleanly() {
    let full: &[u8] = &snapshot::to_binary(&small_graph());
    for cut in 0..full.len() {
        assert!(
            snapshot::from_binary(&full[..cut]).is_err(),
            "truncation at {cut} of {} decoded",
            full.len()
        );
    }
}

#[test]
fn snapshot_bit_flips_never_panic() {
    let full = snapshot::to_binary(&small_graph()).to_vec();
    for byte in 0..full.len() {
        for bit in 0..8 {
            let mut flipped = full.clone();
            flipped[byte] ^= 1 << bit;
            decode_snapshot(&flipped);
        }
    }
}

#[test]
fn corrupt_ids_are_rejected_naming_the_section() {
    let full = snapshot::to_binary(&small_graph()).to_vec();
    // The rel is the last record: tag, u32 type, u64 src, u64 dst,
    // then props. Point its src past the node table.
    let props_len = {
        let mut tail = Vec::new();
        let g = small_graph();
        let rel = g.all_rels().next().unwrap();
        iyp_graph::codec::put_props(&mut tail, &rel.props);
        tail.len()
    };
    let src_at = full.len() - props_len - 16;
    let mut bad = full.clone();
    bad[src_at..src_at + 8].copy_from_slice(&7u64.to_le_bytes());
    let err = snapshot::from_binary(&bad).unwrap_err().to_string();
    assert!(err.contains("rels:"), "{err}");

    let mut bad = full;
    bad[src_at - 4..src_at].copy_from_slice(&9u32.to_le_bytes());
    let err = snapshot::from_binary(&bad).unwrap_err().to_string();
    assert!(err.contains("rels:") && err.contains("type"), "{err}");
}

#[test]
fn json_snapshot_with_dangling_ids_is_rejected() {
    let json = snapshot::to_json(&small_graph()).unwrap();
    let bad = json.replacen("\"src\":0", "\"src\":5", 1);
    assert_ne!(bad, json, "fixture must contain a rel src");
    let err = snapshot::from_json(&bad).unwrap_err().to_string();
    assert!(err.contains("rels:"), "{err}");
}

#[test]
fn op_batch_truncations_never_panic() {
    let ops = vec![
        GraphOp::CreateNode {
            id: NodeId(0),
            labels: vec!["AS".into()],
            props: props([("asn", Value::Int(2497))]),
        },
        GraphOp::MergeNode {
            label: "Prefix".into(),
            key: "prefix".into(),
            key_value: KeyValue::Str("192.0.2.0/24".into()),
            props: props([("tags", Value::List(vec![Value::Null, Value::Float(0.5)]))]),
            node: NodeId(1),
            created: true,
        },
        GraphOp::AddLabel {
            node: NodeId(0),
            label: "Tier1".into(),
        },
        GraphOp::SetNodeProp {
            node: NodeId(0),
            key: "name".into(),
            value: Value::Str("IIJ".into()),
        },
        GraphOp::CreateRel {
            id: RelId(0),
            src: NodeId(0),
            rel_type: "ORIGINATE".into(),
            dst: NodeId(1),
            props: props([("flag", Value::Bool(false))]),
        },
        GraphOp::SetRelProp {
            rel: RelId(0),
            key: "count".into(),
            value: Value::Int(-3),
        },
        GraphOp::DeleteRel { rel: RelId(0) },
        GraphOp::DeleteNode { node: NodeId(1) },
    ];
    let mut batch = Vec::new();
    for op in &ops {
        encode_op(&mut batch, op);
    }
    for cut in 0..=batch.len() {
        let mut r = Reader::new(&batch[..cut]);
        let mut decoded = Vec::new();
        while r.remaining() > 0 {
            match decode_op(&mut r) {
                Ok(op) => decoded.push(op),
                Err(_) => break,
            }
        }
        assert!(ops.starts_with(&decoded), "cut {cut} decoded a wrong op");
        assert_eq!(decoded.len() == ops.len(), cut == batch.len(), "cut {cut}");
    }
}

/// `bytes` with the one encoding of `Value::Str(marker)` replaced by a
/// list nested `levels` deep — far deeper than any graph could build
/// (building or dropping such a `Value` would itself overflow).
fn splice_deep_list(bytes: &[u8], marker: &str, levels: usize) -> Vec<u8> {
    let mut encoded = Vec::new();
    iyp_graph::codec::put_value(&mut encoded, &Value::Str(marker.into()));
    let at = bytes
        .windows(encoded.len())
        .position(|w| w == encoded.as_slice())
        .expect("marker value in the encoding");
    let mut out = bytes[..at].to_vec();
    for _ in 0..levels {
        out.extend_from_slice(&[5, 1, 0, 0, 0]); // a one-element list …
    }
    out.push(0); // … of lists, ending in null
    out.extend_from_slice(&bytes[at + encoded.len()..]);
    out
}

#[test]
fn deeply_nested_snapshot_values_are_rejected() {
    let mut g = small_graph();
    let n = g.all_nodes().next().unwrap().id;
    g.set_node_prop(n, "deep", Value::Str("deep-marker".into()))
        .unwrap();
    let full = snapshot::to_binary(&g);
    let err = snapshot::from_binary(&splice_deep_list(&full, "deep-marker", 1_000_000))
        .unwrap_err()
        .to_string();
    assert!(err.contains("value nesting too deep"), "{err}");
    // The limit itself still loads.
    let ok = splice_deep_list(&full, "deep-marker", iyp_graph::MAX_VALUE_DEPTH);
    assert!(snapshot::from_binary(&ok).is_ok());
}

#[test]
fn deeply_nested_op_values_are_rejected() {
    let op = GraphOp::SetNodeProp {
        node: NodeId(0),
        key: "deep".into(),
        value: Value::Str("deep-marker".into()),
    };
    let mut frame = Vec::new();
    encode_op(&mut frame, &op);
    let deep = splice_deep_list(&frame, "deep-marker", 1_000_000);
    let err = decode_op(&mut Reader::new(&deep)).unwrap_err().to_string();
    assert!(err.contains("value nesting too deep"), "{err}");
    let ok = splice_deep_list(&frame, "deep-marker", iyp_graph::MAX_VALUE_DEPTH);
    let GraphOp::SetNodeProp { value, .. } = decode_op(&mut Reader::new(&ok)).unwrap() else {
        panic!("decoded a different op")
    };
    assert_eq!(value.depth(), iyp_graph::MAX_VALUE_DEPTH);
}
