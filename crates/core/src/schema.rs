//! Form schemas (Def. 3.1): rooted node-labelled trees in which no two
//! siblings share a label and the root is labelled `r`.
//!
//! Schema **edges** are identified by their end node, exactly as the paper
//! identifies them "by the paths to their end nodes" (Ex. 3.12): every
//! non-root [`SchemaNodeId`] denotes both a node and the edge from its
//! parent.

use crate::error::{CoreError, Result};
use crate::ROOT_LABEL;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a schema node. Id `0` is always the root. Every non-root
/// id simultaneously identifies the schema *edge* ending in that node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemaNodeId(pub u32);

impl SchemaNodeId {
    /// The root node id.
    pub const ROOT: SchemaNodeId = SchemaNodeId(0);

    /// Index into the schema's node arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SchemaNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct SchemaNode {
    label: String,
    parent: Option<SchemaNodeId>,
    children: Vec<SchemaNodeId>,
    /// Label -> child id. Well-defined because sibling labels are unique.
    by_label: HashMap<String, SchemaNodeId>,
    /// Distance from the root (root = 0). A schema of "depth d" in the
    /// paper's sense has max node depth d.
    depth: u32,
}

/// A form schema: a rooted node-labelled tree with unique sibling labels
/// and root label `r` (Def. 3.1).
///
/// Immutable once built; construct via [`SchemaBuilder`] or [`Schema::parse`].
#[derive(Debug, Clone)]
pub struct Schema {
    nodes: Vec<SchemaNode>,
}

impl Schema {
    /// The number of nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The number of edges, i.e. non-root nodes.
    pub fn edge_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The depth of the schema: the maximum distance of any node from the
    /// root. A single-root schema has depth 0; the fragments of Sec. 3.5
    /// restrict this quantity (`d ∈ {1, k, ∞}`).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// The label of a node.
    pub fn label(&self, id: SchemaNodeId) -> &str {
        &self.nodes[id.index()].label
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, id: SchemaNodeId) -> Option<SchemaNodeId> {
        self.nodes[id.index()].parent
    }

    /// The children of a node, in insertion order.
    pub fn children(&self, id: SchemaNodeId) -> &[SchemaNodeId] {
        &self.nodes[id.index()].children
    }

    /// Distance of `id` from the root.
    pub fn node_depth(&self, id: SchemaNodeId) -> u32 {
        self.nodes[id.index()].depth
    }

    /// Resolve a child of `parent` by label, if present.
    pub fn child_by_label(&self, parent: SchemaNodeId, label: &str) -> Option<SchemaNodeId> {
        self.nodes[parent.index()].by_label.get(label).copied()
    }

    /// All node ids in a stable order (root first, then in creation order,
    /// which is a topological order: parents precede children).
    pub fn node_ids(&self) -> impl Iterator<Item = SchemaNodeId> + '_ {
        (0..self.nodes.len() as u32).map(SchemaNodeId)
    }

    /// All edge ids (non-root nodes), parents before children.
    pub fn edge_ids(&self) -> impl Iterator<Item = SchemaNodeId> + '_ {
        (1..self.nodes.len() as u32).map(SchemaNodeId)
    }

    /// Resolve a `/`-separated label path from the root, e.g. `"a/p/b"`.
    /// The empty string resolves to the root.
    ///
    /// This is how Ex. 3.12 names schema edges (`A(add, a/p/b) = …`).
    pub fn resolve(&self, path: &str) -> Result<SchemaNodeId> {
        let mut cur = SchemaNodeId::ROOT;
        if path.is_empty() {
            return Ok(cur);
        }
        for step in path.split('/') {
            cur = self
                .child_by_label(cur, step)
                .ok_or_else(|| CoreError::NoSuchSchemaPath(path.to_string()))?;
        }
        Ok(cur)
    }

    /// The `/`-separated label path of a node from the root (empty for the
    /// root itself). Inverse of [`Schema::resolve`].
    pub fn path_of(&self, id: SchemaNodeId) -> String {
        let mut labels = Vec::new();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            labels.push(self.label(cur));
            cur = p;
        }
        labels.reverse();
        labels.join("/")
    }

    /// Parse a schema from a compact text notation.
    ///
    /// The notation lists the root's children; each node is a label
    /// optionally followed by its children in parentheses:
    ///
    /// ```
    /// # use idar_core::Schema;
    /// let s = Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap();
    /// assert_eq!(s.depth(), 3);
    /// assert_eq!(s.resolve("a/p/b").is_ok(), true);
    /// ```
    pub fn parse(text: &str) -> Result<Schema> {
        let mut b = SchemaBuilder::new();
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        parse_children(bytes, &mut pos, SchemaNodeId::ROOT, 0, &mut b)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(CoreError::Parse {
                pos,
                msg: "trailing input after schema".into(),
            });
        }
        Ok(b.build())
    }

    /// Render the schema in the compact [`Schema::parse`] notation
    /// (children in creation order). Inverse of `parse`:
    /// `Schema::parse(&s.to_text())` rebuilds an identical schema.
    pub fn to_text(&self) -> String {
        self.text_of(SchemaNodeId::ROOT)
    }

    fn text_of(&self, id: SchemaNodeId) -> String {
        let kids: Vec<String> = self
            .children(id)
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

    /// Render the schema as an ASCII tree (root first), mirroring Fig. 1.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(SchemaNodeId::ROOT, "", true, &mut out);
        out
    }

    fn render_node(&self, id: SchemaNodeId, prefix: &str, last: bool, out: &mut String) {
        use std::fmt::Write;
        if id == SchemaNodeId::ROOT {
            let _ = writeln!(out, "{}", self.label(id));
        } else {
            let branch = if last { "`-- " } else { "|-- " };
            let _ = writeln!(out, "{prefix}{branch}{}", self.label(id));
        }
        let kids = self.children(id);
        for (i, &k) in kids.iter().enumerate() {
            let child_prefix = if id == SchemaNodeId::ROOT {
                String::new()
            } else {
                format!("{prefix}{}", if last { "    " } else { "|   " })
            };
            self.render_node(k, &child_prefix, i + 1 == kids.len(), out);
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_label(bytes: &[u8], pos: &mut usize) -> Result<String> {
    skip_ws(bytes, pos);
    let start = *pos;
    while *pos < bytes.len() && is_label_byte(bytes[*pos]) {
        *pos += 1;
    }
    if *pos == start {
        return Err(CoreError::Parse {
            pos: *pos,
            msg: "expected a label".into(),
        });
    }
    Ok(std::str::from_utf8(&bytes[start..*pos])
        .expect("label bytes are ASCII")
        .to_string())
}

pub(crate) fn is_label_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'\'' || b == b'-' || b == b'+'
}

/// Parse a child list below `parent`, which sits `depth` levels below
/// the root; lists nested past [`MAX_NESTING`](crate::MAX_NESTING) are an
/// error.
fn parse_children(
    bytes: &[u8],
    pos: &mut usize,
    parent: SchemaNodeId,
    depth: usize,
    b: &mut SchemaBuilder,
) -> Result<()> {
    if depth >= crate::MAX_NESTING {
        return Err(crate::error::too_deep(*pos));
    }
    loop {
        let label = parse_label(bytes, pos)?;
        let id = b.child(parent, &label)?;
        skip_ws(bytes, pos);
        if *pos < bytes.len() && bytes[*pos] == b'(' {
            *pos += 1;
            parse_children(bytes, pos, id, depth + 1, b)?;
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

/// Incremental construction of a [`Schema`].
///
/// ```
/// # use idar_core::{SchemaBuilder, SchemaNodeId};
/// let mut b = SchemaBuilder::new();
/// let a = b.child(SchemaNodeId::ROOT, "a").unwrap();
/// let _n = b.child(a, "n").unwrap();
/// let schema = b.build();
/// assert_eq!(schema.depth(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    nodes: Vec<SchemaNode>,
}

impl SchemaBuilder {
    /// A builder holding just the root (labelled `r`).
    pub fn new() -> Self {
        SchemaBuilder {
            nodes: vec![SchemaNode {
                label: ROOT_LABEL.to_string(),
                parent: None,
                children: Vec::new(),
                by_label: HashMap::new(),
                depth: 0,
            }],
        }
    }

    /// Add a child labelled `label` under `parent`.
    ///
    /// Fails if the parent already has a child with this label (Def. 3.1)
    /// or the label is lexically invalid. The label `r` *is* allowed on
    /// non-root nodes — the paper's own Fig. 1 uses `r` (reject) twice.
    pub fn child(&mut self, parent: SchemaNodeId, label: &str) -> Result<SchemaNodeId> {
        if parent.index() >= self.nodes.len() {
            return Err(CoreError::NoSuchSchemaNode);
        }
        if label.is_empty() || !label.bytes().all(is_label_byte) {
            return Err(CoreError::InvalidLabel(label.to_string()));
        }
        if self.nodes[parent.index()].by_label.contains_key(label) {
            return Err(CoreError::DuplicateSiblingLabel {
                parent: self.nodes[parent.index()].label.clone(),
                label: label.to_string(),
            });
        }
        let id = SchemaNodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        self.nodes.push(SchemaNode {
            label: label.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            by_label: HashMap::new(),
            depth,
        });
        let p = &mut self.nodes[parent.index()];
        p.children.push(id);
        p.by_label.insert(label.to_string(), id);
        Ok(id)
    }

    /// Add a whole `/`-separated path below the root, creating missing
    /// intermediate nodes, and return the final node. Existing prefixes are
    /// reused, so `path("a/p/b")` then `path("a/p/e")` shares `a/p`.
    pub fn path(&mut self, path: &str) -> Result<SchemaNodeId> {
        let mut cur = SchemaNodeId::ROOT;
        for step in path.split('/') {
            cur = match self.nodes[cur.index()].by_label.get(step) {
                Some(&id) => id,
                None => self.child(cur, step)?,
            };
        }
        Ok(cur)
    }

    /// Finish building.
    pub fn build(self) -> Schema {
        Schema { nodes: self.nodes }
    }
}

impl Default for SchemaBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_labelled_r() {
        let s = SchemaBuilder::new().build();
        assert_eq!(s.label(SchemaNodeId::ROOT), "r");
        assert_eq!(s.depth(), 0);
        assert_eq!(s.node_count(), 1);
        assert_eq!(s.edge_count(), 0);
    }

    #[test]
    fn duplicate_sibling_rejected() {
        let mut b = SchemaBuilder::new();
        b.child(SchemaNodeId::ROOT, "a").unwrap();
        let err = b.child(SchemaNodeId::ROOT, "a").unwrap_err();
        assert!(matches!(err, CoreError::DuplicateSiblingLabel { .. }));
    }

    #[test]
    fn same_label_at_different_levels_allowed() {
        // Fig. 1 uses the label `r` for `d/r` and `d/r/r`.
        let s = Schema::parse("d(a, r(r))").unwrap();
        assert_eq!(s.resolve("d/r/r").map(|i| s.node_depth(i)), Ok(3));
    }

    #[test]
    fn parse_leave_schema() {
        let s = Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap();
        assert_eq!(s.depth(), 3);
        assert_eq!(s.node_count(), 13);
        let p = s.resolve("a/p").unwrap();
        assert_eq!(s.label(p), "p");
        assert_eq!(s.path_of(p), "a/p");
        assert_eq!(s.children(p).len(), 2);
        assert!(s.resolve("a/x").is_err());
    }

    #[test]
    fn resolve_empty_is_root() {
        let s = Schema::parse("a").unwrap();
        assert_eq!(s.resolve("").unwrap(), SchemaNodeId::ROOT);
        assert_eq!(s.path_of(SchemaNodeId::ROOT), "");
    }

    #[test]
    fn builder_path_dedups_prefixes() {
        let mut b = SchemaBuilder::new();
        let b1 = b.path("a/p/b").unwrap();
        let e1 = b.path("a/p/e").unwrap();
        let s = b.build();
        assert_ne!(b1, e1);
        assert_eq!(s.node_count(), 5); // r, a, p, b, e
        assert_eq!(s.parent(b1), s.parent(e1));
    }

    #[test]
    fn depth_and_order() {
        let s = Schema::parse("a(b(c(d)))").unwrap();
        assert_eq!(s.depth(), 4);
        // creation order is topological
        let ids: Vec<_> = s.node_ids().collect();
        for &id in &ids {
            if let Some(p) = s.parent(id) {
                assert!(p < id);
            }
        }
    }

    #[test]
    fn invalid_labels_rejected() {
        let mut b = SchemaBuilder::new();
        assert!(b.child(SchemaNodeId::ROOT, "").is_err());
        assert!(b.child(SchemaNodeId::ROOT, "a b").is_err());
        assert!(b.child(SchemaNodeId::ROOT, "ok_label'2").is_ok());
    }

    #[test]
    fn render_contains_all_labels() {
        let s = Schema::parse("a(n, p(b, e)), s").unwrap();
        let r = s.render();
        for l in ["a", "n", "p", "b", "e", "s"] {
            assert!(r.contains(l), "missing {l} in\n{r}");
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Schema::parse("a(").is_err());
        assert!(Schema::parse("a)").is_err());
        assert!(Schema::parse("a,,b").is_err());
        assert!(Schema::parse("a, a").is_err());
    }

    /// A chain `a(a(…))` of `k` nested child lists.
    fn nested_text(k: usize) -> String {
        format!("{}a{}", "a(".repeat(k), ")".repeat(k))
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let s = Schema::parse(&nested_text(crate::MAX_NESTING - 1)).unwrap();
        assert_eq!(s.depth() as usize, crate::MAX_NESTING);
        let err = Schema::parse(&nested_text(10_000)).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}
