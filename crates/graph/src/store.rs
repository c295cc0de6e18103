//! The graph store: nodes, relationships, indexes, merge semantics.

use crate::error::GraphError;
use crate::node::{Direction, Node, NodeId, Rel, RelId};
use crate::op::GraphOp;
use crate::symbols::{LabelId, PropKeyId, RelTypeId, SymbolTable};
use crate::value::{KeyValue, Props, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global id source for [`Graph::graph_id`]. Never reused, so
/// two graphs alive in one process (or a graph and its snapshot-reload)
/// can never collide in an epoch-keyed cache.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

fn next_graph_id() -> u64 {
    NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed)
}

/// A labelled property graph with Neo4j-`MERGE`-style node identity.
///
/// The store is append-mostly: IYP construction only ever adds nodes and
/// relationships, but tombstone deletion is supported for completeness
/// (e.g. retracting an erroneous dataset, §6.1).
///
/// # Identity and merging
///
/// Nodes representing network resources are created through
/// [`Graph::merge_node`], keyed by `(label, key property, key value)` —
/// e.g. `(AS, asn, 2497)`. Re-merging the same key returns the existing
/// node, which is how datapoints from independent datasets collapse onto
/// a single entity. Relationships are never deduplicated: each dataset
/// import creates its own parallel link carrying provenance properties.
#[derive(Debug)]
pub struct Graph {
    symbols: SymbolTable,
    nodes: Vec<Option<Node>>,
    rels: Vec<Option<Rel>>,
    /// label -> node ids carrying it (BTreeSet for deterministic scans).
    label_index: HashMap<LabelId, BTreeSet<NodeId>>,
    /// (label, key prop) -> key value -> node id.
    key_index: HashMap<(LabelId, PropKeyId), HashMap<KeyValue, NodeId>>,
    /// Per-node adjacency grouped by relationship type, parallel to
    /// `nodes`. Derived from the rel table (never serialized; rebuilt in
    /// [`Graph::from_parts`]) so typed expansion is O(degree-of-type).
    typed_adj: Vec<TypedAdj>,
    deleted_nodes: u64,
    deleted_rels: u64,
    /// When `Some`, every mutation appends its effect [`GraphOp`] here
    /// (the journaling hook; see [`Graph::begin_recording`]).
    recorder: Option<Vec<GraphOp>>,
    /// Process-unique identity of this store instance (never serialized;
    /// a snapshot reload gets a fresh one). See [`Graph::graph_id`].
    graph_id: u64,
    /// Monotonic mutation counter. Every write — live, replayed, or
    /// cascaded — bumps it, so `(graph_id, epoch)` names one immutable
    /// state of the store. See [`Graph::epoch`].
    epoch: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            symbols: SymbolTable::default(),
            nodes: Vec::new(),
            rels: Vec::new(),
            label_index: HashMap::new(),
            key_index: HashMap::new(),
            typed_adj: Vec::new(),
            deleted_nodes: 0,
            deleted_rels: 0,
            recorder: None,
            graph_id: next_graph_id(),
            epoch: 0,
        }
    }
}

/// Typed adjacency lists for one node: rel ids partitioned by
/// [`RelTypeId`], each list in creation (id) order so iteration matches
/// the order a type filter over `out_rels`/`in_rels` would produce.
#[derive(Debug, Default, Clone)]
struct TypedAdj {
    out: Vec<(RelTypeId, Vec<RelId>)>,
    inc: Vec<(RelTypeId, Vec<RelId>)>,
}

fn typed_push(list: &mut Vec<(RelTypeId, Vec<RelId>)>, t: RelTypeId, id: RelId) {
    match list.binary_search_by_key(&t, |(ty, _)| *ty) {
        Ok(i) => list[i].1.push(id),
        Err(i) => list.insert(i, (t, vec![id])),
    }
}

fn typed_remove(list: &mut Vec<(RelTypeId, Vec<RelId>)>, t: RelTypeId, id: RelId) {
    if let Ok(i) = list.binary_search_by_key(&t, |(ty, _)| *ty) {
        list[i].1.retain(|x| *x != id);
        if list[i].1.is_empty() {
            list.remove(i);
        }
    }
}

fn typed_get(list: &[(RelTypeId, Vec<RelId>)], t: RelTypeId) -> &[RelId] {
    match list.binary_search_by_key(&t, |(ty, _)| *ty) {
        Ok(i) => &list[i].1,
        Err(_) => &[],
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Versioning
    // ------------------------------------------------------------------

    /// Process-unique identity of this store instance. Assigned from a
    /// global counter at construction (including snapshot reload), so
    /// no two graphs alive in one process share an id — which makes
    /// `(graph_id, epoch)` a safe cache key even across instances.
    pub fn graph_id(&self) -> u64 {
        self.graph_id
    }

    /// Monotonic mutation counter: starts at 0 and is bumped by every
    /// mutation, including journal replay (which routes through the
    /// same mutation tails) and cascaded deletes. A cached result keyed
    /// by `(graph_id, epoch, …)` is therefore implicitly invalidated by
    /// any write — the stale key simply never matches again.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Explicitly advances the epoch without mutating data — an
    /// invalidation hook for callers that change query-visible state
    /// through some side channel (none exist in-tree; kept public for
    /// embedders).
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    // ------------------------------------------------------------------
    // Symbols
    // ------------------------------------------------------------------

    /// Read-only access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Interns a label name.
    pub fn label(&mut self, name: &str) -> LabelId {
        self.symbols.label(name)
    }

    /// Interns a relationship-type name.
    pub fn rel_type(&mut self, name: &str) -> RelTypeId {
        self.symbols.rel_type(name)
    }

    // ------------------------------------------------------------------
    // Creation and merging
    // ------------------------------------------------------------------

    /// Creates a new node with the given label names and properties.
    pub fn create_node<S: AsRef<str>>(&mut self, labels: &[S], props: Props) -> NodeId {
        if self.recorder.is_some() {
            let op = GraphOp::CreateNode {
                id: NodeId(self.nodes.len() as u64),
                labels: labels.iter().map(|l| l.as_ref().to_string()).collect(),
                props: props.clone(),
            };
            self.record(|| op);
        }
        let label_ids: Vec<LabelId> = labels
            .iter()
            .map(|l| self.symbols.label(l.as_ref()))
            .collect();
        self.create_node_with_ids(label_ids, props)
    }

    /// Raw node insertion with pre-interned labels (shared by
    /// [`Graph::create_node`] and the merge-create path; never records).
    fn create_node_with_ids(&mut self, label_ids: Vec<LabelId>, props: Props) -> NodeId {
        self.epoch += 1;
        let id = NodeId(self.nodes.len() as u64);
        for l in &label_ids {
            self.label_index.entry(*l).or_default().insert(id);
        }
        self.nodes.push(Some(Node {
            id,
            labels: label_ids,
            props,
            out_rels: Vec::new(),
            in_rels: Vec::new(),
        }));
        self.typed_adj.push(TypedAdj::default());
        id
    }

    /// Gets or creates the node identified by `(label, key, key_value)`,
    /// merging `extra_props` into it (overwriting existing keys). This is
    /// the IYP fusion primitive: callers pass *canonicalised* key values.
    pub fn merge_node(
        &mut self,
        label: &str,
        key: &str,
        key_value: impl Into<KeyValue>,
        extra_props: Props,
    ) -> NodeId {
        let label_id = self.symbols.label(label);
        let key_id = self.symbols.prop_key(key);
        let kv: KeyValue = key_value.into();
        let existing = self
            .key_index
            .get(&(label_id, key_id))
            .and_then(|m| m.get(&kv))
            .copied();
        if self.recorder.is_some() {
            let op = GraphOp::MergeNode {
                label: label.to_string(),
                key: key.to_string(),
                key_value: kv.clone(),
                props: extra_props.clone(),
                node: existing.unwrap_or(NodeId(self.nodes.len() as u64)),
                created: existing.is_none(),
            };
            self.record(|| op);
        }
        self.merge_resolved(label_id, key_id, key, kv, extra_props, existing)
    }

    /// Applies a merge whose resolution is already known: the shared
    /// tail of live merges (resolution = an index probe) and replayed
    /// merges (resolution = what the log recorded).
    fn merge_resolved(
        &mut self,
        label_id: LabelId,
        key_id: PropKeyId,
        key: &str,
        kv: KeyValue,
        extra_props: Props,
        existing: Option<NodeId>,
    ) -> NodeId {
        if let Some(existing) = existing {
            self.epoch += 1; // re-merge mutates props
            let node = self.nodes[existing.0 as usize]
                .as_mut()
                .expect("merge target must be live");
            for (k, v) in extra_props {
                node.props.insert(k, v);
            }
            return existing;
        }
        let mut props = extra_props;
        props.insert(key.to_string(), kv.to_value());
        let id = self.create_node_with_ids(vec![label_id], props);
        self.key_index
            .entry((label_id, key_id))
            .or_default()
            .insert(kv, id);
        id
    }

    /// Looks up a node by its merge key without creating it.
    pub fn lookup(&self, label: &str, key: &str, key_value: impl Into<KeyValue>) -> Option<NodeId> {
        let label_id = self.symbols.get_label(label)?;
        let key_id = self.symbols.get_prop_key(key)?;
        self.key_index
            .get(&(label_id, key_id))?
            .get(&key_value.into())
            .copied()
    }

    /// Adds an extra label to an existing node (e.g. the refinement stage
    /// marking a `Prefix` as also being a `BGPPrefix`).
    pub fn add_label(&mut self, node: NodeId, label: &str) -> Result<(), GraphError> {
        let label_id = self.symbols.label(label);
        let n = self
            .nodes
            .get_mut(node.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(GraphError::NodeNotFound(node))?;
        if !n.labels.contains(&label_id) {
            n.labels.push(label_id);
            self.label_index.entry(label_id).or_default().insert(node);
        }
        self.epoch += 1;
        self.record(|| GraphOp::AddLabel {
            node,
            label: label.to_string(),
        });
        Ok(())
    }

    /// Sets a property on a node.
    pub fn set_node_prop(
        &mut self,
        node: NodeId,
        key: &str,
        value: Value,
    ) -> Result<(), GraphError> {
        if self.node(node).is_none() {
            return Err(GraphError::NodeNotFound(node));
        }
        if self.recorder.is_some() {
            let op = GraphOp::SetNodeProp {
                node,
                key: key.to_string(),
                value: value.clone(),
            };
            self.record(|| op);
        }
        self.epoch += 1;
        self.nodes[node.0 as usize]
            .as_mut()
            .expect("checked above")
            .props
            .insert(key.to_string(), value);
        Ok(())
    }

    /// Creates a relationship of the named type between two nodes.
    pub fn create_rel(
        &mut self,
        src: NodeId,
        rel_type: &str,
        dst: NodeId,
        props: Props,
    ) -> Result<RelId, GraphError> {
        if self.node(src).is_none() {
            return Err(GraphError::NodeNotFound(src));
        }
        if self.node(dst).is_none() {
            return Err(GraphError::NodeNotFound(dst));
        }
        if self.recorder.is_some() {
            let op = GraphOp::CreateRel {
                id: RelId(self.rels.len() as u64),
                src,
                rel_type: rel_type.to_string(),
                dst,
                props: props.clone(),
            };
            self.record(|| op);
        }
        self.epoch += 1;
        let type_id = self.symbols.rel_type(rel_type);
        let id = RelId(self.rels.len() as u64);
        self.rels.push(Some(Rel {
            id,
            rel_type: type_id,
            src,
            dst,
            props,
        }));
        self.nodes[src.0 as usize]
            .as_mut()
            .expect("checked above")
            .out_rels
            .push(id);
        self.nodes[dst.0 as usize]
            .as_mut()
            .expect("checked above")
            .in_rels
            .push(id);
        typed_push(&mut self.typed_adj[src.0 as usize].out, type_id, id);
        typed_push(&mut self.typed_adj[dst.0 as usize].inc, type_id, id);
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Deletes a relationship.
    pub fn delete_rel(&mut self, rel: RelId) -> Result<(), GraphError> {
        if self.rel(rel).is_none() {
            return Err(GraphError::RelNotFound(rel));
        }
        self.record(|| GraphOp::DeleteRel { rel });
        self.epoch += 1;
        let r = self
            .rels
            .get_mut(rel.0 as usize)
            .and_then(Option::take)
            .expect("checked above");
        if let Some(Some(n)) = self.nodes.get_mut(r.src.0 as usize) {
            n.out_rels.retain(|x| *x != rel);
            typed_remove(&mut self.typed_adj[r.src.0 as usize].out, r.rel_type, rel);
        }
        if let Some(Some(n)) = self.nodes.get_mut(r.dst.0 as usize) {
            n.in_rels.retain(|x| *x != rel);
            typed_remove(&mut self.typed_adj[r.dst.0 as usize].inc, r.rel_type, rel);
        }
        self.deleted_rels += 1;
        Ok(())
    }

    /// Detach-deletes a node: removes all its relationships, then the
    /// node itself, and cleans the indexes.
    ///
    /// Records a single [`GraphOp::DeleteNode`]: the relationship
    /// cascade is deterministic, so replay re-derives it.
    pub fn delete_node(&mut self, node: NodeId) -> Result<(), GraphError> {
        if self.node(node).is_none() {
            return Err(GraphError::NodeNotFound(node));
        }
        self.record(|| GraphOp::DeleteNode { node });
        // Suppress recording for the cascade below — the one op covers it.
        let saved = self.recorder.take();
        let result = self.delete_node_detach(node);
        self.recorder = saved;
        result
    }

    fn delete_node_detach(&mut self, node: NodeId) -> Result<(), GraphError> {
        let n = self
            .nodes
            .get(node.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(GraphError::NodeNotFound(node))?;
        let rels: Vec<RelId> = n.out_rels.iter().chain(n.in_rels.iter()).copied().collect();
        for r in rels {
            // A self-loop appears in both lists; the second delete is a no-op.
            let _ = self.delete_rel(r);
        }
        self.epoch += 1;
        let n = self.nodes[node.0 as usize].take().expect("checked above");
        self.typed_adj[node.0 as usize] = TypedAdj::default();
        for l in &n.labels {
            if let Some(set) = self.label_index.get_mut(l) {
                set.remove(&node);
            }
        }
        // Drop any key-index entries pointing at this node.
        for idx in self.key_index.values_mut() {
            idx.retain(|_, v| *v != node);
        }
        self.deleted_nodes += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Op recording and replay
    // ------------------------------------------------------------------

    fn record(&mut self, op: impl FnOnce() -> GraphOp) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(op());
        }
    }

    /// Starts capturing the effect of every subsequent mutation as a
    /// [`GraphOp`]. Ops record *outcomes* (assigned IDs, merge
    /// resolutions), so [`Graph::apply`]ing them to a copy of the
    /// pre-recording graph reproduces identical state.
    ///
    /// Any previously recorded but untaken ops are discarded.
    pub fn begin_recording(&mut self) {
        self.recorder = Some(Vec::new());
    }

    /// Whether a recording started by [`Graph::begin_recording`] is live.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Stops recording and returns the captured ops (empty if recording
    /// was never started).
    pub fn take_recording(&mut self) -> Vec<GraphOp> {
        self.recorder.take().unwrap_or_default()
    }

    /// Applies a recorded [`GraphOp`] — the replay half of the journal.
    ///
    /// Dispatches into the same mutation tails used by live writes, and
    /// verifies that IDs assigned during replay match the IDs the op
    /// recorded; a mismatch means the op stream does not correspond to
    /// this base graph and yields [`GraphError::Replay`].
    pub fn apply(&mut self, op: &GraphOp) -> Result<(), GraphError> {
        // Never re-record a replayed op.
        let saved = self.recorder.take();
        let result = self.apply_inner(op);
        self.recorder = saved;
        result
    }

    fn apply_inner(&mut self, op: &GraphOp) -> Result<(), GraphError> {
        match op {
            GraphOp::CreateNode { id, labels, props } => {
                let next = NodeId(self.nodes.len() as u64);
                if *id != next {
                    return Err(GraphError::Replay(format!(
                        "create_node expected id {} but store would assign {}",
                        id.0, next.0
                    )));
                }
                let label_ids: Vec<LabelId> =
                    labels.iter().map(|l| self.symbols.label(l)).collect();
                self.create_node_with_ids(label_ids, props.clone());
                Ok(())
            }
            GraphOp::MergeNode {
                label,
                key,
                key_value,
                props,
                node,
                created,
            } => {
                let label_id = self.symbols.label(label);
                let key_id = self.symbols.prop_key(key);
                if *created {
                    let next = NodeId(self.nodes.len() as u64);
                    if *node != next {
                        return Err(GraphError::Replay(format!(
                            "merge_node expected id {} but store would assign {}",
                            node.0, next.0
                        )));
                    }
                    self.merge_resolved(
                        label_id,
                        key_id,
                        key,
                        key_value.clone(),
                        props.clone(),
                        None,
                    );
                } else {
                    if self.node(*node).is_none() {
                        return Err(GraphError::Replay(format!(
                            "merge_node resolved to node {} which does not exist",
                            node.0
                        )));
                    }
                    self.merge_resolved(
                        label_id,
                        key_id,
                        key,
                        key_value.clone(),
                        props.clone(),
                        Some(*node),
                    );
                }
                Ok(())
            }
            GraphOp::AddLabel { node, label } => self.add_label(*node, label),
            GraphOp::SetNodeProp { node, key, value } => {
                self.set_node_prop(*node, key, value.clone())
            }
            GraphOp::SetRelProp { rel, key, value } => self.set_rel_prop(*rel, key, value.clone()),
            GraphOp::CreateRel {
                id,
                src,
                rel_type,
                dst,
                props,
            } => {
                let next = RelId(self.rels.len() as u64);
                if *id != next {
                    return Err(GraphError::Replay(format!(
                        "create_rel expected id {} but store would assign {}",
                        id.0, next.0
                    )));
                }
                self.create_rel(*src, rel_type, *dst, props.clone())?;
                Ok(())
            }
            GraphOp::DeleteRel { rel } => self.delete_rel(*rel),
            GraphOp::DeleteNode { node } => self.delete_node(*node),
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Fetches a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Fetches a relationship.
    pub fn rel(&self, id: RelId) -> Option<&Rel> {
        self.rels.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Sets a property on a relationship.
    pub fn set_rel_prop(&mut self, rel: RelId, key: &str, value: Value) -> Result<(), GraphError> {
        if self.rel(rel).is_none() {
            return Err(GraphError::RelNotFound(rel));
        }
        if self.recorder.is_some() {
            let op = GraphOp::SetRelProp {
                rel,
                key: key.to_string(),
                value: value.clone(),
            };
            self.record(|| op);
        }
        self.epoch += 1;
        self.rels[rel.0 as usize]
            .as_mut()
            .expect("checked above")
            .props
            .insert(key.to_string(), value);
        Ok(())
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.deleted_nodes as usize
    }

    /// Number of live relationships.
    pub fn rel_count(&self) -> usize {
        self.rels.len() - self.deleted_rels as usize
    }

    /// Iterates all live nodes.
    pub fn all_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().filter_map(Option::as_ref)
    }

    /// Iterates all live relationships.
    pub fn all_rels(&self) -> impl Iterator<Item = &Rel> {
        self.rels.iter().filter_map(Option::as_ref)
    }

    /// Node ids carrying the given label, in id order. Returns an empty
    /// iterator for unknown labels.
    pub fn nodes_with_label<'a>(&'a self, label: &str) -> Box<dyn Iterator<Item = NodeId> + 'a> {
        match self
            .symbols
            .get_label(label)
            .and_then(|l| self.label_index.get(&l))
        {
            Some(set) => Box::new(set.iter().copied()),
            None => Box::new(std::iter::empty()),
        }
    }

    /// Number of nodes carrying the given label.
    pub fn label_count(&self, label: &str) -> usize {
        self.symbols
            .get_label(label)
            .and_then(|l| self.label_index.get(&l))
            .map_or(0, BTreeSet::len)
    }

    /// Relationships touching `node`, filtered by direction and
    /// (optionally) type.
    ///
    /// With a type filter this reads the per-type adjacency lists, so it
    /// is O(degree-of-type) rather than a scan of the whole adjacency.
    /// Iteration order is identical either way: rel ids in creation
    /// order, outgoing before incoming.
    pub fn rels_of<'a>(
        &'a self,
        node: NodeId,
        dir: Direction,
        rel_type: Option<RelTypeId>,
    ) -> impl Iterator<Item = &'a Rel> + 'a {
        let (all_out, all_inc): (&[RelId], &[RelId]) = match (self.node(node), rel_type) {
            (None, _) => (&[][..], &[][..]),
            (Some(n), None) => (&n.out_rels, &n.in_rels),
            (Some(_), Some(t)) => {
                let adj = &self.typed_adj[node.0 as usize];
                (typed_get(&adj.out, t), typed_get(&adj.inc, t))
            }
        };
        let (out, inc): (&[RelId], &[RelId]) = match dir {
            Direction::Outgoing => (all_out, &[][..]),
            Direction::Incoming => (&[][..], all_inc),
            Direction::Both => (all_out, all_inc),
        };
        // Under Direction::Both a self-loop appears in both lists; skip it
        // on the incoming side so it is yielded exactly once.
        let skip_self_loops_in = dir == Direction::Both;
        out.iter()
            .map(|r| (*r, false))
            .chain(inc.iter().map(|r| (*r, true)))
            .filter_map(move |(r, from_in)| self.rel(r).map(|rel| (rel, from_in)))
            .filter(move |(rel, from_in)| !(skip_self_loops_in && *from_in && rel.src == rel.dst))
            .map(|(rel, _)| rel)
    }

    /// Neighbouring node ids via relationships of the given direction and
    /// optional type. May contain duplicates if parallel edges exist.
    pub fn neighbors<'a>(
        &'a self,
        node: NodeId,
        dir: Direction,
        rel_type: Option<RelTypeId>,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.rels_of(node, dir, rel_type)
            .map(move |r| r.other(node))
    }

    /// Internal: raw access for snapshotting.
    pub(crate) fn parts(&self) -> (&SymbolTable, &[Option<Node>], &[Option<Rel>]) {
        (&self.symbols, &self.nodes, &self.rels)
    }

    /// Internal: reconstructs a graph from snapshot parts, rebuilding all
    /// indexes and adjacency. Both snapshot loaders come through here,
    /// so this is where decoded ids are checked: every node and
    /// relationship must sit at its own id, and every label, type and
    /// endpoint must exist, or the load fails naming the section.
    pub(crate) fn from_parts(
        mut symbols: SymbolTable,
        mut nodes: Vec<Option<Node>>,
        rels: Vec<Option<Rel>>,
    ) -> Result<Self, GraphError> {
        let corrupt = |msg: String| Err(GraphError::Snapshot(msg));
        for (i, n) in nodes.iter().enumerate() {
            let Some(n) = n else { continue };
            if n.id.0 != i as u64 {
                return corrupt(format!("nodes: slot {i} holds node id {}", n.id.0));
            }
            if let Some(l) = n
                .labels
                .iter()
                .find(|l| l.0 as usize >= symbols.label_count())
            {
                return corrupt(format!("nodes: node {i} has unknown label id {}", l.0));
            }
        }
        let live = |id: NodeId| matches!(nodes.get(id.0 as usize), Some(Some(_)));
        for (i, r) in rels.iter().enumerate() {
            let Some(r) = r else { continue };
            if r.id.0 != i as u64 {
                return corrupt(format!("rels: slot {i} holds rel id {}", r.id.0));
            }
            if r.rel_type.0 as usize >= symbols.rel_type_count() {
                return corrupt(format!(
                    "rels: rel {i} has unknown type id {}",
                    r.rel_type.0
                ));
            }
            if !live(r.src) || !live(r.dst) {
                return corrupt(format!(
                    "rels: rel {i} joins missing nodes {} -> {}",
                    r.src.0, r.dst.0
                ));
            }
        }

        symbols.rebuild_after_load();
        // Rebuild adjacency: rels in id order reproduces the list order
        // live writes maintain, in both the untyped and the typed lists.
        let mut typed_adj = vec![TypedAdj::default(); nodes.len()];
        for n in nodes.iter_mut().flatten() {
            n.out_rels.clear();
            n.in_rels.clear();
        }
        for r in rels.iter().flatten() {
            let (src, dst) = (r.src.0 as usize, r.dst.0 as usize);
            nodes[src].as_mut().expect("validated").out_rels.push(r.id);
            nodes[dst].as_mut().expect("validated").in_rels.push(r.id);
            typed_push(&mut typed_adj[src].out, r.rel_type, r.id);
            typed_push(&mut typed_adj[dst].inc, r.rel_type, r.id);
        }
        let mut g = Graph {
            symbols,
            nodes,
            rels,
            label_index: HashMap::new(),
            key_index: HashMap::new(),
            typed_adj,
            deleted_nodes: 0,
            deleted_rels: 0,
            recorder: None,
            // A reload is a different store instance: fresh identity,
            // epoch restarts (the fresh graph_id keeps old keys dead).
            graph_id: next_graph_id(),
            epoch: 0,
        };
        g.deleted_nodes = g.nodes.iter().filter(|n| n.is_none()).count() as u64;
        g.deleted_rels = g.rels.iter().filter(|r| r.is_none()).count() as u64;
        // Rebuild label index.
        for n in g.nodes.iter().filter_map(Option::as_ref) {
            for l in &n.labels {
                g.label_index.entry(*l).or_default().insert(n.id);
            }
        }
        // Rebuild the key index for the conventional identity keys: for
        // every (label, prop) pair where a property is a valid key type,
        // index the *first* node seen (mirrors merge semantics).
        let mut key_index: HashMap<(LabelId, PropKeyId), HashMap<KeyValue, NodeId>> =
            HashMap::new();
        let prop_keys: Vec<(String, PropKeyId)> = {
            let mut v = Vec::new();
            for n in g.nodes.iter().filter_map(Option::as_ref) {
                for k in n.props.keys() {
                    if !v.iter().any(|(name, _)| name == k) {
                        v.push((k.clone(), PropKeyId(0)));
                    }
                }
            }
            v
        };
        let prop_keys: Vec<(String, PropKeyId)> = prop_keys
            .into_iter()
            .map(|(name, _)| {
                let id = g.symbols.prop_key(&name);
                (name, id)
            })
            .collect();
        for n in g.nodes.iter().filter_map(Option::as_ref) {
            for l in &n.labels {
                for (key_name, key_id) in &prop_keys {
                    if let Some(v) = n.props.get(key_name) {
                        if let Some(kv) = KeyValue::from_value(v) {
                            key_index
                                .entry((*l, *key_id))
                                .or_default()
                                .entry(kv)
                                .or_insert(n.id);
                        }
                    }
                }
            }
        }
        g.key_index = key_index;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::props;

    #[test]
    fn merge_deduplicates_nodes() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 2497u32, Props::new());
        let b = g.merge_node("AS", "asn", 2497u32, props([("name", "IIJ".into())]));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
        // Props merged on re-merge.
        assert_eq!(
            g.node(a).unwrap().prop("name").unwrap().as_str(),
            Some("IIJ")
        );
        // Key prop was materialised.
        assert_eq!(g.node(a).unwrap().prop("asn").unwrap().as_int(), Some(2497));
    }

    #[test]
    fn merge_distinguishes_labels_and_keys() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 2497u32, Props::new());
        let b = g.merge_node("AS", "asn", 2500u32, Props::new());
        let c = g.merge_node("Prefix", "prefix", "10.0.0.0/8", Props::new());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn lookup_without_create() {
        let mut g = Graph::new();
        assert!(g.lookup("AS", "asn", 2497u32).is_none());
        let a = g.merge_node("AS", "asn", 2497u32, Props::new());
        assert_eq!(g.lookup("AS", "asn", 2497u32), Some(a));
        assert!(g.lookup("AS", "asn", 9999u32).is_none());
    }

    #[test]
    fn parallel_rels_are_kept() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 1u32, Props::new());
        let p = g.merge_node("Prefix", "prefix", "10.0.0.0/8", Props::new());
        let r1 = g
            .create_rel(
                a,
                "ORIGINATE",
                p,
                props([("reference_name", "bgpkit.pfx2as".into())]),
            )
            .unwrap();
        let r2 = g
            .create_rel(
                a,
                "ORIGINATE",
                p,
                props([("reference_name", "ihr.rov".into())]),
            )
            .unwrap();
        assert_ne!(r1, r2);
        assert_eq!(g.rel_count(), 2);
        let t = g.symbols().get_rel_type("ORIGINATE");
        assert_eq!(g.rels_of(a, Direction::Outgoing, t).count(), 2);
        assert_eq!(g.rels_of(p, Direction::Incoming, t).count(), 2);
    }

    #[test]
    fn direction_filters() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        let b = g.create_node(&["X"], Props::new());
        g.create_rel(a, "R", b, Props::new()).unwrap();
        assert_eq!(g.rels_of(a, Direction::Outgoing, None).count(), 1);
        assert_eq!(g.rels_of(a, Direction::Incoming, None).count(), 0);
        assert_eq!(g.rels_of(a, Direction::Both, None).count(), 1);
        assert_eq!(g.rels_of(b, Direction::Incoming, None).count(), 1);
        assert_eq!(g.neighbors(a, Direction::Both, None).next(), Some(b));
    }

    #[test]
    fn type_filter() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        let b = g.create_node(&["X"], Props::new());
        g.create_rel(a, "R1", b, Props::new()).unwrap();
        g.create_rel(a, "R2", b, Props::new()).unwrap();
        let t1 = g.symbols().get_rel_type("R1");
        assert_eq!(g.rels_of(a, Direction::Both, t1).count(), 1);
        assert_eq!(g.rels_of(a, Direction::Both, None).count(), 2);
    }

    #[test]
    fn label_scan_is_ordered_and_complete() {
        let mut g = Graph::new();
        let mut ids = Vec::new();
        for i in 0..10u32 {
            ids.push(g.merge_node("AS", "asn", i, Props::new()));
        }
        g.merge_node("Prefix", "prefix", "10.0.0.0/8", Props::new());
        let scanned: Vec<NodeId> = g.nodes_with_label("AS").collect();
        assert_eq!(scanned, ids);
        assert_eq!(g.label_count("AS"), 10);
        assert_eq!(g.label_count("Prefix"), 1);
        assert_eq!(g.label_count("Nope"), 0);
    }

    #[test]
    fn delete_rel_updates_adjacency() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        let b = g.create_node(&["X"], Props::new());
        let r = g.create_rel(a, "R", b, Props::new()).unwrap();
        g.delete_rel(r).unwrap();
        assert_eq!(g.rel_count(), 0);
        assert_eq!(g.rels_of(a, Direction::Both, None).count(), 0);
        assert_eq!(g.rels_of(b, Direction::Both, None).count(), 0);
        assert!(g.delete_rel(r).is_err());
    }

    #[test]
    fn detach_delete_node() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 1u32, Props::new());
        let b = g.merge_node("AS", "asn", 2u32, Props::new());
        g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        g.delete_node(a).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.rel_count(), 0);
        assert!(g.node(a).is_none());
        assert!(g.lookup("AS", "asn", 1u32).is_none());
        // b unaffected except adjacency cleaned.
        assert_eq!(g.rels_of(b, Direction::Both, None).count(), 0);
        // Merging the key again creates a fresh node.
        let a2 = g.merge_node("AS", "asn", 1u32, Props::new());
        assert_ne!(a, a2);
    }

    #[test]
    fn add_label_is_idempotent() {
        let mut g = Graph::new();
        let a = g.create_node(&["AS"], Props::new());
        g.add_label(a, "Tier1").unwrap();
        g.add_label(a, "Tier1").unwrap();
        assert_eq!(g.node(a).unwrap().labels.len(), 2);
        assert_eq!(g.nodes_with_label("Tier1").count(), 1);
    }

    #[test]
    fn self_loop_counted_once_in_both() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        g.create_rel(a, "R", a, Props::new()).unwrap();
        assert_eq!(g.rels_of(a, Direction::Both, None).count(), 1);
        assert_eq!(g.rels_of(a, Direction::Outgoing, None).count(), 1);
        assert_eq!(g.rels_of(a, Direction::Incoming, None).count(), 1);
    }

    #[test]
    fn rel_to_missing_node_fails() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        assert!(g.create_rel(a, "R", NodeId(99), Props::new()).is_err());
        assert!(g.create_rel(NodeId(99), "R", a, Props::new()).is_err());
    }

    #[test]
    fn recording_and_replay_reproduce_identical_graph() {
        let mut g = Graph::new();
        g.begin_recording();
        let a = g.merge_node("AS", "asn", 2497u32, Props::new());
        let b = g.merge_node("AS", "asn", 2500u32, props([("name", "X".into())]));
        g.merge_node("AS", "asn", 2497u32, props([("name", "IIJ".into())]));
        let c = g.create_node(&["Tag"], props([("label", "tier1".into())]));
        let r = g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        g.create_rel(a, "CATEGORIZED", c, Props::new()).unwrap();
        g.set_node_prop(a, "af", Value::Int(4)).unwrap();
        g.set_rel_prop(r, "weight", Value::Float(0.5)).unwrap();
        g.add_label(a, "Transit").unwrap();
        g.delete_rel(r).unwrap();
        g.delete_node(b).unwrap();
        let ops = g.take_recording();
        assert!(!g.is_recording());

        let mut replica = Graph::new();
        for op in &ops {
            replica.apply(op).unwrap();
        }
        assert_eq!(
            crate::snapshot::to_binary(&g),
            crate::snapshot::to_binary(&replica)
        );
    }

    #[test]
    fn delete_node_records_single_op() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        let b = g.create_node(&["X"], Props::new());
        g.create_rel(a, "R", b, Props::new()).unwrap();
        g.begin_recording();
        g.delete_node(a).unwrap();
        let ops = g.take_recording();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], GraphOp::DeleteNode { node } if node == a));
    }

    #[test]
    fn apply_rejects_id_mismatch() {
        let mut g = Graph::new();
        g.create_node(&["X"], Props::new());
        let op = GraphOp::CreateNode {
            id: NodeId(0), // store would assign 1
            labels: vec!["X".into()],
            props: Props::new(),
        };
        assert!(matches!(g.apply(&op), Err(GraphError::Replay(_))));
    }

    #[test]
    fn typed_adjacency_matches_filtered_scan() {
        // The typed lists must agree with a brute-force type filter over
        // the untyped adjacency — same rels, same order — through
        // creation, deletion, and self-loops.
        let mut g = Graph::new();
        let hub = g.create_node(&["Hub"], Props::new());
        let mut spokes = Vec::new();
        for i in 0..8u32 {
            spokes.push(g.merge_node("Spoke", "n", i, Props::new()));
        }
        let mut created = Vec::new();
        for (i, s) in spokes.iter().enumerate() {
            let t = ["R1", "R2", "R3"][i % 3];
            created.push(g.create_rel(hub, t, *s, Props::new()).unwrap());
            created.push(g.create_rel(*s, t, hub, Props::new()).unwrap());
        }
        g.create_rel(hub, "R1", hub, Props::new()).unwrap();
        g.delete_rel(created[2]).unwrap();
        g.delete_rel(created[5]).unwrap();
        for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
            for t in ["R1", "R2", "R3"] {
                let tid = g.symbols().get_rel_type(t).unwrap();
                let typed: Vec<RelId> = g.rels_of(hub, dir, Some(tid)).map(|r| r.id).collect();
                let filtered: Vec<RelId> = g
                    .rels_of(hub, dir, None)
                    .filter(|r| r.rel_type == tid)
                    .map(|r| r.id)
                    .collect();
                assert_eq!(typed, filtered, "{dir:?} {t}");
            }
        }
        // Unknown type: empty, not a scan fallback.
        assert!(g.rels_of(hub, Direction::Both, None).count() > 0);
        let mut g2 = Graph::new();
        g2.rel_type("Ghost");
        assert_eq!(g2.rels_of(hub, Direction::Both, None).count(), 0);
    }

    #[test]
    fn typed_adjacency_survives_snapshot_reload() {
        let mut g = Graph::new();
        let a = g.merge_node("AS", "asn", 1u32, Props::new());
        let b = g.merge_node("AS", "asn", 2u32, Props::new());
        g.create_rel(a, "PEERS_WITH", b, Props::new()).unwrap();
        g.create_rel(a, "DEPENDS_ON", b, Props::new()).unwrap();
        g.create_rel(b, "PEERS_WITH", a, Props::new()).unwrap();
        let bytes = crate::snapshot::to_binary(&g);
        let g2 = crate::snapshot::from_binary(&bytes).unwrap();
        let t = g2.symbols().get_rel_type("PEERS_WITH").unwrap();
        let ids: Vec<RelId> = g2
            .rels_of(a, Direction::Both, Some(t))
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![RelId(0), RelId(2)]);
        assert_eq!(g2.rels_of(a, Direction::Outgoing, Some(t)).count(), 1);
    }

    #[test]
    fn every_mutation_bumps_the_epoch() {
        let mut g = Graph::new();
        assert_eq!(g.epoch(), 0);
        let mut last = g.epoch();
        let mut expect_bump = |g: &Graph, what: &str| {
            assert!(g.epoch() > last, "{what} did not bump the epoch");
            last = g.epoch();
        };
        let a = g.create_node(&["X"], Props::new());
        expect_bump(&g, "create_node");
        let b = g.merge_node("AS", "asn", 1u32, Props::new());
        expect_bump(&g, "merge_node (create)");
        g.merge_node("AS", "asn", 1u32, props([("name", "IIJ".into())]));
        expect_bump(&g, "merge_node (re-merge)");
        g.add_label(a, "Tag").unwrap();
        expect_bump(&g, "add_label");
        g.set_node_prop(a, "k", Value::Int(1)).unwrap();
        expect_bump(&g, "set_node_prop");
        let r = g.create_rel(a, "R", b, Props::new()).unwrap();
        expect_bump(&g, "create_rel");
        g.set_rel_prop(r, "w", Value::Int(2)).unwrap();
        expect_bump(&g, "set_rel_prop");
        g.delete_rel(r).unwrap();
        expect_bump(&g, "delete_rel");
        g.delete_node(a).unwrap();
        expect_bump(&g, "delete_node");
        g.bump_epoch();
        expect_bump(&g, "bump_epoch");
        // Reads leave it alone.
        let before = g.epoch();
        let _ = g.node_count();
        let _ = g.lookup("AS", "asn", 1u32);
        assert_eq!(g.epoch(), before);
    }

    #[test]
    fn replay_bumps_the_epoch_too() {
        let mut g = Graph::new();
        g.begin_recording();
        let a = g.merge_node("AS", "asn", 1u32, Props::new());
        g.set_node_prop(a, "k", Value::Int(1)).unwrap();
        let ops = g.take_recording();

        let mut replica = Graph::new();
        assert_eq!(replica.epoch(), 0);
        for op in &ops {
            let before = replica.epoch();
            replica.apply(op).unwrap();
            assert!(replica.epoch() > before, "replayed {op:?} did not bump");
        }
    }

    #[test]
    fn graph_ids_are_process_unique() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        assert_ne!(g1.graph_id(), g2.graph_id());
        // A snapshot reload is a new instance with a new identity.
        let bytes = crate::snapshot::to_binary(&g1);
        let g3 = crate::snapshot::from_binary(&bytes).unwrap();
        assert_ne!(g3.graph_id(), g1.graph_id());
        assert_eq!(g3.epoch(), 0);
    }

    #[test]
    fn set_props() {
        let mut g = Graph::new();
        let a = g.create_node(&["X"], Props::new());
        let b = g.create_node(&["X"], Props::new());
        let r = g.create_rel(a, "R", b, Props::new()).unwrap();
        g.set_node_prop(a, "af", Value::Int(4)).unwrap();
        g.set_rel_prop(r, "weight", Value::Float(0.5)).unwrap();
        assert_eq!(g.node(a).unwrap().prop("af").unwrap().as_int(), Some(4));
        assert_eq!(
            g.rel(r).unwrap().prop("weight").unwrap().as_float(),
            Some(0.5)
        );
    }
}
