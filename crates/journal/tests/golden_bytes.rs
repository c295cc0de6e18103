//! Golden bytes for the on-disk formats (snapshot v1 and WAL v1).
//!
//! The roundtrip tests elsewhere cannot see a format change that is
//! symmetric in encoder and decoder; these literals can. They pin the
//! exact encoding of a fixed small graph (`snapshot::to_binary`) and a
//! fixed op batch (`wal::encode_frame`), and check that both still
//! decode. Any byte difference here is a format change, which needs a
//! version bump and a reader for the old version.

use iyp_graph::{props, snapshot, Graph, GraphOp, KeyValue, NodeId, Props, RelId, Value};
use iyp_journal::{encode_frame, replay_into, FsyncPolicy, WalWriter};

/// A graph touching every snapshot feature: multi-label nodes, all six
/// value tags, a deleted node slot and a deleted relationship slot.
fn fixed_graph() -> Graph {
    let mut g = Graph::new();
    let a = g.merge_node("AS", "asn", 2497i64, props([("name", "IIJ".into())]));
    g.add_label(a, "Tier1").unwrap();
    let p = g.merge_node(
        "Prefix",
        "prefix",
        "2001:db8::/32",
        props([
            ("af", Value::Int(6)),
            ("weight", Value::Float(0.25)),
            ("anycast", Value::Bool(false)),
            ("note", Value::Null),
            ("tags", Value::List(vec!["x".into(), Value::Int(-1)])),
        ]),
    );
    let gone = g.create_node(&["Country"], Props::new());
    g.create_rel(
        a,
        "ORIGINATE",
        p,
        props([
            ("reference_name", "bgpkit.pfx2as".into()),
            ("count", Value::Int(12)),
        ]),
    )
    .unwrap();
    let r = g.create_rel(a, "COUNTRY", gone, Props::new()).unwrap();
    g.delete_rel(r).unwrap();
    g.delete_node(gone).unwrap();
    g
}

/// One op of every variant, valid to apply in order to an empty graph.
fn fixed_ops() -> Vec<GraphOp> {
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
            label: "Prefix".into(),
            key: "prefix".into(),
            key_value: KeyValue::Str("192.0.2.0/24".into()),
            props: Props::new(),
            node: NodeId(1),
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
        GraphOp::MergeNode {
            label: "AS".into(),
            key: "asn".into(),
            key_value: KeyValue::Int(3333),
            props: Props::new(),
            node: NodeId(2),
            created: true,
        },
        GraphOp::DeleteNode { node: NodeId(1) },
    ]
}

/// `to_binary(&fixed_graph())`, snapshot format version 1.
const SNAPSHOT_V1: &[u8] = b"\
    IYPS\x01\x04\x00\x00\x00\x02\x00\x00\x00AS\x05\x00\x00\x00Tier1\x06\x00\x00\x00Prefix\
    \x07\x00\x00\x00Country\x02\x00\x00\x00\x09\x00\x00\x00ORIGINATE\x07\x00\x00\x00COUNTRY\
    \x03\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\
    \x00\x03\x00\x00\x00asn\x02\xc1\x09\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00name\x04\x03\
    \x00\x00\x00IIJ\x01\x01\x00\x02\x00\x00\x00\x06\x00\x00\x00\x02\x00\x00\x00af\x02\x06\
    \x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00anycast\x01\x00\x04\x00\x00\x00note\x00\x06\
    \x00\x00\x00prefix\x04\x0d\x00\x00\x002001:db8::/32\x04\x00\x00\x00tags\x05\x02\x00\x00\
    \x00\x04\x01\x00\x00\x00x\x02\xff\xff\xff\xff\xff\xff\xff\xff\x06\x00\x00\x00weight\x03\
    \x00\x00\x00\x00\x00\x00\xd0?\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x05\x00\
    \x00\x00count\x02\x0c\x00\x00\x00\x00\x00\x00\x00\x0e\x00\x00\x00reference_name\x04\x0d\
    \x00\x00\x00bgpkit.pfx2as\x00\
";

/// `encode_frame(&fixed_ops())`: WAL frame header plus one batch.
const WAL_FRAME_V1: &[u8] = b"\
    \x8d\x01\x00\x00`\xb9O\x02\x0a\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\
    \x02\x00\x00\x00AS\x05\x00\x00\x00Tier1\x02\x00\x00\x00\x03\x00\x00\x00asn\x02\xc1\x09\
    \x00\x00\x00\x00\x00\x00\x04\x00\x00\x00name\x04\x03\x00\x00\x00IIJ\x02\x06\x00\x00\x00P\
    refix\x06\x00\x00\x00prefix\x01\x0c\x00\x00\x00192.0.2.0/24\x01\x00\x00\x00\x02\x00\x00\
    \x00af\x02\x04\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x02\x06\
    \x00\x00\x00Prefix\x06\x00\x00\x00prefix\x01\x0c\x00\x00\x00192.0.2.0/24\x00\x00\x00\x00\
    \x01\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\
    Transit\x04\x01\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00tags\x05\x03\x00\x00\x00\x00\
    \x01\x01\x03\x00\x00\x00\x00\x00\x00\xe0?\x06\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
    \x00\x00\x00\x00\x00\x00\x09\x00\x00\x00ORIGINATE\x01\x00\x00\x00\x00\x00\x00\x00\x01\
    \x00\x00\x00\x0e\x00\x00\x00reference_name\x04\x0d\x00\x00\x00bgpkit.pfx2as\x05\x00\x00\
    \x00\x00\x00\x00\x00\x00\x06\x00\x00\x00weight\x03\x00\x00\x00\x00\x00\x00\xf4?\x07\x00\
    \x00\x00\x00\x00\x00\x00\x00\x02\x02\x00\x00\x00AS\x03\x00\x00\x00asn\x00\x05\x0d\x00\
    \x00\x00\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x08\x01\x00\x00\
    \x00\x00\x00\x00\x00\
";

#[test]
fn snapshot_encoding_is_pinned() {
    let snap: &[u8] = &snapshot::to_binary(&fixed_graph());
    assert_eq!(snap, SNAPSHOT_V1);
    let back = snapshot::from_binary(SNAPSHOT_V1).expect("golden snapshot decodes");
    assert_eq!(back.node_count(), 2);
    assert_eq!(back.rel_count(), 1);
    let again: &[u8] = &snapshot::to_binary(&back);
    assert_eq!(again, SNAPSHOT_V1);
}

#[test]
fn wal_frame_encoding_is_pinned() {
    assert_eq!(encode_frame(&fixed_ops()), WAL_FRAME_V1);

    let dir = std::env::temp_dir().join(format!("iyp-golden-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.log");
    let mut w = WalWriter::create(&path, FsyncPolicy::Never).unwrap();
    w.append_batch(&fixed_ops()).unwrap();
    drop(w);
    let file = std::fs::read(&path).unwrap();
    assert_eq!(&file[..8], b"IYPW\x01\x00\x00\x00");
    assert_eq!(&file[8..], WAL_FRAME_V1);

    let mut g = Graph::new();
    let report = replay_into(&mut g, &path, false).expect("golden frame replays");
    assert_eq!((report.batches, report.ops), (1, 10));
    assert_eq!((g.node_count(), g.rel_count()), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
