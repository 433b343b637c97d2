//! Form instances (Def. 3.1): rooted node-labelled trees that admit a
//! homomorphism into their schema.
//!
//! Prop. 3.3 shows the homomorphism is *unique*, so instead of checking it
//! we maintain it: every instance node stores the schema node it maps to
//! (`n̂` in the paper's notation), and the only mutations offered are the
//! Sec. 3.4 updates — adding a fresh leaf along a schema edge and removing
//! an existing leaf. "Being an instance of the schema" is therefore an
//! invariant of the representation, not a runtime property.

use crate::error::{CoreError, Result};
use crate::schema::{Schema, SchemaNodeId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an instance node. Id `0` is always the root.
///
/// Ids are stable across clones and across deletions of *other* nodes
/// (deleted slots are tomb-stoned, not reused until [`Instance::compact`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstNodeId(pub u32);

impl InstNodeId {
    /// The root node id.
    pub const ROOT: InstNodeId = InstNodeId(0);

    /// This id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct InstNode {
    /// The image of this node under the (unique) homomorphism to the schema.
    schema_node: SchemaNodeId,
    parent: Option<InstNodeId>,
    children: Vec<InstNodeId>,
    alive: bool,
}

/// An instance of a [`Schema`]: a rooted node-labelled tree together with
/// its homomorphism into the schema (Def. 3.1 / Prop. 3.3).
///
/// ```
/// # use idar_core::{Instance, Schema};
/// # use std::sync::Arc;
/// let schema = Arc::new(Schema::parse("a(n, p(b, e)), s").unwrap());
/// let mut i = Instance::empty(schema.clone());
/// let a = i.add_child_by_label(idar_core::InstNodeId::ROOT, "a").unwrap();
/// let p = i.add_child_by_label(a, "p").unwrap();
/// i.add_child_by_label(p, "b").unwrap();
/// assert_eq!(i.live_count(), 4); // r, a, p, b
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    nodes: Vec<InstNode>,
    live: usize,
}

impl Instance {
    /// The instance consisting of only the root — the typical initial
    /// instance ("we start with an empty form", Ex. 3.12).
    pub fn empty(schema: Arc<Schema>) -> Instance {
        Instance {
            schema,
            nodes: vec![InstNode {
                schema_node: SchemaNodeId::ROOT,
                parent: None,
                children: Vec::new(),
                alive: true,
            }],
            live: 1,
        }
    }

    /// The schema this instance instantiates.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of live nodes (including the root).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Number of arena slots, live or dead. Node ids are `< slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate heap footprint of this instance in bytes (node arena
    /// plus per-node child vectors; the shared schema `Arc` is excluded).
    /// Byte-denominated retention budgets are accounted in these units.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Instance>()
            + self.nodes.capacity() * std::mem::size_of::<InstNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<InstNodeId>())
                .sum::<usize>()
    }

    /// Is `id` a live node of this instance?
    pub fn is_live(&self, id: InstNodeId) -> bool {
        id.index() < self.nodes.len() && self.nodes[id.index()].alive
    }

    fn check(&self, id: InstNodeId) -> Result<()> {
        if self.is_live(id) {
            Ok(())
        } else {
            Err(CoreError::NoSuchInstanceNode)
        }
    }

    /// The schema node (`n̂`) of an instance node.
    pub fn schema_node(&self, id: InstNodeId) -> SchemaNodeId {
        debug_assert!(self.is_live(id));
        self.nodes[id.index()].schema_node
    }

    /// The label of an instance node (= the label of its schema node).
    pub fn label(&self, id: InstNodeId) -> &str {
        self.schema.label(self.schema_node(id))
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, id: InstNodeId) -> Option<InstNodeId> {
        debug_assert!(self.is_live(id));
        self.nodes[id.index()].parent
    }

    /// The live children of a node.
    pub fn children(&self, id: InstNodeId) -> &[InstNodeId] {
        debug_assert!(self.is_live(id));
        &self.nodes[id.index()].children
    }

    /// Is `id` a leaf (no live children)?
    pub fn is_leaf(&self, id: InstNodeId) -> bool {
        self.children(id).is_empty()
    }

    /// Iterate over all live node ids (root first; parents before children).
    pub fn live_nodes(&self) -> impl Iterator<Item = InstNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.alive)
            .map(|(i, _)| InstNodeId(i as u32))
    }

    /// Live children of `parent` mapped to the given schema node.
    pub fn children_at(
        &self,
        parent: InstNodeId,
        schema_child: SchemaNodeId,
    ) -> impl Iterator<Item = InstNodeId> + '_ {
        self.children(parent)
            .iter()
            .copied()
            .filter(move |&c| self.nodes[c.index()].schema_node == schema_child)
    }

    /// Live children of `parent` whose label is `label`.
    pub fn children_with_label<'a>(
        &'a self,
        parent: InstNodeId,
        label: &str,
    ) -> impl Iterator<Item = InstNodeId> + 'a {
        let sn = self.schema.child_by_label(self.schema_node(parent), label);
        self.children(parent)
            .iter()
            .copied()
            .filter(move |&c| Some(self.nodes[c.index()].schema_node) == sn)
    }

    /// Add a fresh leaf under `parent` along the schema edge ending in
    /// `schema_child` (the Sec. 3.4 *addition* update). Returns the new
    /// node's id.
    pub fn add_child(
        &mut self,
        parent: InstNodeId,
        schema_child: SchemaNodeId,
    ) -> Result<InstNodeId> {
        self.check(parent)?;
        if schema_child.index() >= self.schema.node_count() {
            return Err(CoreError::NoSuchSchemaNode);
        }
        let psn = self.nodes[parent.index()].schema_node;
        if self.schema.parent(schema_child) != Some(psn) {
            return Err(CoreError::SchemaMismatch {
                parent_label: self.schema.label(psn).to_string(),
                child_label: self.schema.label(schema_child).to_string(),
            });
        }
        let id = InstNodeId(self.nodes.len() as u32);
        self.nodes.push(InstNode {
            schema_node: schema_child,
            parent: Some(parent),
            children: Vec::new(),
            alive: true,
        });
        self.nodes[parent.index()].children.push(id);
        self.live += 1;
        Ok(id)
    }

    /// Add a fresh leaf under `parent` with the given label (resolved
    /// through the schema).
    pub fn add_child_by_label(&mut self, parent: InstNodeId, label: &str) -> Result<InstNodeId> {
        self.check(parent)?;
        let psn = self.nodes[parent.index()].schema_node;
        let sc =
            self.schema
                .child_by_label(psn, label)
                .ok_or_else(|| CoreError::SchemaMismatch {
                    parent_label: self.schema.label(psn).to_string(),
                    child_label: label.to_string(),
                })?;
        self.add_child(parent, sc)
    }

    /// Remove a leaf node (the Sec. 3.4 *deletion* update).
    ///
    /// Fails on the root and on internal nodes: "the only updates … are the
    /// additions and deletions of edges that add and remove leaf nodes".
    pub fn remove_leaf(&mut self, id: InstNodeId) -> Result<()> {
        self.check(id)?;
        if id == InstNodeId::ROOT {
            return Err(CoreError::CannotDeleteRoot);
        }
        if !self.nodes[id.index()].children.is_empty() {
            return Err(CoreError::NotALeaf);
        }
        let parent = self.nodes[id.index()].parent.expect("non-root has parent");
        let kids = &mut self.nodes[parent.index()].children;
        let pos = kids
            .iter()
            .position(|&c| c == id)
            .expect("child listed under parent");
        kids.remove(pos);
        self.nodes[id.index()].alive = false;
        self.live -= 1;
        Ok(())
    }

    /// Rebuild the arena without tombstones. Node ids are *not* preserved;
    /// only use when no outside ids are held. Returns the compacted instance.
    pub fn compact(&self) -> Instance {
        let mut out = Instance::empty(self.schema.clone());
        let mut map: HashMap<InstNodeId, InstNodeId> = HashMap::new();
        map.insert(InstNodeId::ROOT, InstNodeId::ROOT);
        // live_nodes is parent-before-child, so parents are mapped first.
        for id in self.live_nodes() {
            if id == InstNodeId::ROOT {
                continue;
            }
            let p = self.parent(id).expect("non-root");
            let np = map[&p];
            let nid = out
                .add_child(np, self.schema_node(id))
                .expect("schema edge preserved");
            map.insert(id, nid);
        }
        out
    }

    /// Build an instance from a compact text notation (same syntax as
    /// [`Schema::parse`], but duplicate sibling labels are allowed):
    /// `"a(n, d, p(b, e), p(b)), s"` is Fig. 2(a).
    pub fn parse(schema: Arc<Schema>, text: &str) -> Result<Instance> {
        let mut inst = Instance::empty(schema);
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        if pos < bytes.len() {
            parse_children(bytes, &mut pos, InstNodeId::ROOT, 0, &mut inst)?;
        }
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(CoreError::Parse {
                pos,
                msg: "trailing input after instance".into(),
            });
        }
        Ok(inst)
    }

    /// Render this instance in the compact [`Instance::parse`] notation,
    /// children in child order (not sorted — contrast
    /// [`Instance::iso_code`]). Inverse of `parse`:
    /// `Instance::parse(schema, &i.to_text())` rebuilds an isomorphic
    /// instance.
    pub fn to_text(&self) -> String {
        self.text_of(InstNodeId::ROOT)
    }

    fn text_of(&self, node: InstNodeId) -> String {
        let kids: Vec<String> = self
            .children(node)
            .iter()
            .map(|&c| {
                let sub = self.text_of(c);
                if sub.is_empty() {
                    self.label(c).to_string()
                } else {
                    format!("{}({})", self.label(c), sub)
                }
            })
            .collect();
        kids.join(", ")
    }

    /// Grow a pseudo-random instance of `schema` with at most `budget`
    /// added nodes, drawing every decision from `chooser` — the
    /// *arbitrary-instance hook* for external generators (`idar-gen`, the
    /// proptest shim): `chooser(n)` must return a value `< n`.
    ///
    /// Each step picks a live node uniformly via the hook; if its schema
    /// node has children, one schema edge is picked the same way and a
    /// fresh leaf added. The construction is total (never fails) and
    /// deterministic in the chooser's choices.
    pub fn arbitrary_with(
        schema: Arc<Schema>,
        budget: usize,
        chooser: &mut dyn FnMut(usize) -> usize,
    ) -> Instance {
        let mut inst = Instance::empty(schema.clone());
        let mut live: Vec<InstNodeId> = vec![InstNodeId::ROOT];
        for _ in 0..budget {
            let p = live[chooser(live.len()).min(live.len() - 1)];
            let sp = inst.schema_node(p);
            let kids = schema.children(sp);
            if kids.is_empty() {
                continue;
            }
            let edge = kids[chooser(kids.len()).min(kids.len() - 1)];
            let c = inst.add_child(p, edge).expect("edge below parent's image");
            live.push(c);
        }
        inst
    }

    /// Render this instance in the [`Instance::parse`] notation, children
    /// sorted canonically so that isomorphic instances render identically.
    ///
    /// This string is the instance's *isomorphism code* (an AHU-style
    /// canonical form of an unordered labelled tree): two instances of the
    /// same schema are isomorphic iff their codes are equal. Multiplicity
    /// of equal siblings is preserved — contrast with
    /// [`crate::bisim::bisim_code`], which quotients by formula equivalence
    /// (Def. 3.7) first.
    pub fn iso_code(&self) -> String {
        self.iso_code_of(InstNodeId::ROOT)
    }

    /// The isomorphism code of the subtree rooted at `node` (the node's own
    /// label is *not* included for the root, matching `parse`).
    fn iso_code_of(&self, node: InstNodeId) -> String {
        let mut kids: Vec<String> = self
            .children(node)
            .iter()
            .map(|&c| {
                let sub = self.iso_code_of(c);
                if sub.is_empty() {
                    self.label(c).to_string()
                } else {
                    format!("{}({})", self.label(c), sub)
                }
            })
            .collect();
        kids.sort_unstable();
        kids.join(",")
    }

    /// Render as an ASCII tree, mirroring Fig. 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(InstNodeId::ROOT, "", true, &mut out);
        out
    }

    fn render_node(&self, id: InstNodeId, prefix: &str, last: bool, out: &mut String) {
        use std::fmt::Write;
        if id == InstNodeId::ROOT {
            let _ = writeln!(out, "{}", self.label(id));
        } else {
            let branch = if last { "`-- " } else { "|-- " };
            let _ = writeln!(out, "{prefix}{branch}{}", self.label(id));
        }
        let kids = self.children(id);
        for (i, &k) in kids.iter().enumerate() {
            let child_prefix = if id == InstNodeId::ROOT {
                String::new()
            } else {
                format!("{prefix}{}", if last { "    " } else { "|   " })
            };
            self.render_node(k, &child_prefix, i + 1 == kids.len(), out);
        }
    }

    /// Check that `self` and `other` are isomorphic (same schema pointer not
    /// required; labels and shape must agree).
    pub fn isomorphic(&self, other: &Instance) -> bool {
        self.iso_code() == other.iso_code()
    }

    /// Verify an arbitrary labelled tree (as `(label, parent)` pairs, root
    /// first with parent `usize::MAX`) is an instance of `schema`, i.e. a
    /// homomorphism exists (Def. 3.1). Returns the instance on success.
    ///
    /// This is the *checking* counterpart to the by-construction invariant;
    /// it exists so external trees (e.g. parsed from user input against a
    /// different schema) can be validated.
    pub fn from_labelled_tree(schema: Arc<Schema>, nodes: &[(String, usize)]) -> Result<Instance> {
        let mut inst = Instance::empty(schema);
        let mut map: Vec<InstNodeId> = Vec::with_capacity(nodes.len());
        for (i, (label, parent)) in nodes.iter().enumerate() {
            if i == 0 {
                if label != inst.label(InstNodeId::ROOT) {
                    return Err(CoreError::SchemaMismatch {
                        parent_label: "-".into(),
                        child_label: label.clone(),
                    });
                }
                map.push(InstNodeId::ROOT);
                continue;
            }
            if *parent >= i {
                return Err(CoreError::NoSuchInstanceNode);
            }
            let p = map[*parent];
            let id = inst.add_child_by_label(p, label)?;
            map.push(id);
        }
        Ok(inst)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

/// Parse a child list below `parent`, which sits `depth` levels below
/// the root; lists nested past [`MAX_NESTING`](crate::MAX_NESTING) are an
/// error.
fn parse_children(
    bytes: &[u8],
    pos: &mut usize,
    parent: InstNodeId,
    depth: usize,
    inst: &mut Instance,
) -> Result<()> {
    if depth >= crate::MAX_NESTING {
        return Err(crate::error::too_deep(*pos));
    }
    loop {
        skip_ws(bytes, pos);
        let start = *pos;
        while *pos < bytes.len() && crate::schema::is_label_byte(bytes[*pos]) {
            *pos += 1;
        }
        if *pos == start {
            return Err(CoreError::Parse {
                pos: *pos,
                msg: "expected a label".into(),
            });
        }
        let label = std::str::from_utf8(&bytes[start..*pos])
            .expect("ascii")
            .to_string();
        let id = inst.add_child_by_label(parent, &label)?;
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == b'(' {
            *pos += 1;
            parse_children(bytes, pos, id, depth + 1, inst)?;
            skip_ws(bytes, pos);
            if *pos < bytes.len() && bytes[*pos] == b')' {
                *pos += 1;
            } else {
                return Err(CoreError::Parse {
                    pos: *pos,
                    msg: "expected `)`".into(),
                });
            }
            skip_ws(bytes, pos);
        }
        if *pos < bytes.len() && bytes[*pos] == b',' {
            *pos += 1;
            continue;
        }
        return Ok(());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leave_schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    #[test]
    fn empty_instance() {
        let i = Instance::empty(leave_schema());
        assert_eq!(i.live_count(), 1);
        assert!(i.is_leaf(InstNodeId::ROOT));
        assert_eq!(i.label(InstNodeId::ROOT), "r");
        assert_eq!(i.iso_code(), "");
    }

    #[test]
    fn deep_nesting_is_rejected() {
        // A schema chain deeper than any parseable instance, built
        // without the text parser.
        let mut b = crate::schema::SchemaBuilder::new();
        let mut node = SchemaNodeId::ROOT;
        for _ in 0..2 * crate::MAX_NESTING {
            node = b.child(node, "a").unwrap();
        }
        let schema = Arc::new(b.build());
        let text = |k: usize| format!("{}a{}", "a(".repeat(k), ")".repeat(k));
        let ok = Instance::parse(schema.clone(), &text(crate::MAX_NESTING - 1)).unwrap();
        assert_eq!(ok.live_count(), crate::MAX_NESTING + 1);
        let err = Instance::parse(schema, &text(2 * crate::MAX_NESTING - 1)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn figure2a_parses() {
        // Fig. 2(a): a submitted application with two periods.
        let i = Instance::parse(leave_schema(), "a(n, d, p(b, e), p(b, e)), s").unwrap();
        assert_eq!(i.live_count(), 11);
        assert_eq!(i.iso_code(), "a(d,n,p(b,e),p(b,e)),s");
    }

    #[test]
    fn figure2b_parses() {
        // Fig. 2(b): a rejected application for a single period.
        let i = Instance::parse(leave_schema(), "a(n, d, p(b, e)), s, d(r), f").unwrap();
        assert_eq!(i.live_count(), 11);
        assert!(i.iso_code().contains("d(r)"));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut i = Instance::empty(leave_schema());
        assert!(i.add_child_by_label(InstNodeId::ROOT, "n").is_err());
        let a = i.add_child_by_label(InstNodeId::ROOT, "a").unwrap();
        assert!(i.add_child_by_label(a, "s").is_err());
        assert!(i.add_child_by_label(a, "n").is_ok());
    }

    #[test]
    fn duplicate_siblings_allowed_in_instances() {
        // Unlike schemas, instances may repeat sibling labels (Ex. 3.2:
        // "fields in a form can contain zero or more elements").
        let mut i = Instance::empty(leave_schema());
        let a = i.add_child_by_label(InstNodeId::ROOT, "a").unwrap();
        let p1 = i.add_child_by_label(a, "p").unwrap();
        let p2 = i.add_child_by_label(a, "p").unwrap();
        assert_ne!(p1, p2);
        assert_eq!(i.children_with_label(a, "p").count(), 2);
    }

    #[test]
    fn leaf_deletion_only() {
        let mut i = Instance::parse(leave_schema(), "a(n)").unwrap();
        let a = i.children_with_label(InstNodeId::ROOT, "a").next().unwrap();
        let n = i.children_with_label(a, "n").next().unwrap();
        assert!(matches!(i.remove_leaf(a), Err(CoreError::NotALeaf)));
        i.remove_leaf(n).unwrap();
        assert!(i.is_leaf(a));
        i.remove_leaf(a).unwrap();
        assert_eq!(i.live_count(), 1);
        assert!(matches!(
            i.remove_leaf(InstNodeId::ROOT),
            Err(CoreError::CannotDeleteRoot)
        ));
    }

    #[test]
    fn ids_stable_across_deletion() {
        let mut i = Instance::empty(leave_schema());
        let a = i.add_child_by_label(InstNodeId::ROOT, "a").unwrap();
        let s = i.add_child_by_label(InstNodeId::ROOT, "s").unwrap();
        i.remove_leaf(a).unwrap();
        assert!(!i.is_live(a));
        assert!(i.is_live(s));
        assert_eq!(i.label(s), "s");
    }

    #[test]
    fn compact_preserves_iso() {
        let mut i = Instance::parse(leave_schema(), "a(n, p(b), p(e)), s").unwrap();
        let a = i.children_with_label(InstNodeId::ROOT, "a").next().unwrap();
        let n = i.children_with_label(a, "n").next().unwrap();
        i.remove_leaf(n).unwrap();
        let c = i.compact();
        assert_eq!(c.live_count(), c.slot_count());
        assert_eq!(c.iso_code(), i.iso_code());
    }

    #[test]
    fn iso_code_ignores_sibling_order() {
        let s = leave_schema();
        let i1 = Instance::parse(s.clone(), "a(p(b), p(e))").unwrap();
        let i2 = Instance::parse(s, "a(p(e), p(b))").unwrap();
        assert!(i1.isomorphic(&i2));
    }

    #[test]
    fn iso_code_sees_multiplicity() {
        let s = leave_schema();
        let i1 = Instance::parse(s.clone(), "a(p, p)").unwrap();
        let i2 = Instance::parse(s, "a(p)").unwrap();
        assert!(!i1.isomorphic(&i2));
    }

    #[test]
    fn from_labelled_tree_checks_homomorphism() {
        let s = leave_schema();
        let ok = Instance::from_labelled_tree(
            s.clone(),
            &[
                ("r".into(), usize::MAX),
                ("a".into(), 0),
                ("p".into(), 1),
                ("b".into(), 2),
            ],
        );
        assert!(ok.is_ok());
        let bad = Instance::from_labelled_tree(s, &[("r".into(), usize::MAX), ("b".into(), 0)]);
        assert!(bad.is_err());
    }

    #[test]
    fn render_shows_tree() {
        let i = Instance::parse(leave_schema(), "a(n, p(b, e)), s").unwrap();
        let r = i.render();
        assert!(r.starts_with("r\n"));
        assert!(r.contains("|-- a") || r.contains("`-- a"));
    }
}
