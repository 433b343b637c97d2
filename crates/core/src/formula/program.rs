//! Guard programs: formulas compiled once against the schema node they
//! are evaluated at.
//!
//! Prop. 3.3 gives every instance node exactly one schema node, and a
//! guard on edge `e` is only ever evaluated at instance nodes whose schema
//! node is `parent(e)` (the completion formula: at the root). So every
//! path step of Def. 3.5 resolves statically:
//!
//! * a label step becomes a [`SchemaNodeId`] compare, and a label with no
//!   matching schema child becomes `false`;
//! * `..` becomes a parent step, which always succeeds below the root,
//!   and `false` at the root;
//! * a filter is compiled at its step's end node.
//!
//! Constants that result are folded. The n-ary `∧`/`∨` nodes and step
//! lists of [`Formula`] map one to one onto programs. Recursion follows
//! only `¬`, groups and filters, which the parser caps at
//! [`MAX_NESTING`](crate::MAX_NESTING); path evaluation keeps its own
//! stack.
//!
//! A bare child step at the evaluation node is a presence test
//! ([`Program::HasChild`]). An [`Evaluator`] answers it from a
//! child-presence table when one is loaded for that node, and by scanning
//! the node's children otherwise. Every program gives exactly the answer
//! of [`holds`](super::holds) at every node of its schema node.

use super::{junction, Chain, Formula, PathExpr, PathStep};
use crate::instance::{InstNodeId, Instance};
use crate::schema::{Schema, SchemaNodeId};

/// A formula compiled against one schema node.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Program {
    /// A constant.
    Const(bool),
    /// A bare child step at the evaluation node: does it have a child
    /// mapped to this schema node?
    HasChild(SchemaNodeId),
    /// Any other path: does some end node exist?
    Path(Vec<Step>),
    /// Negation.
    Not(Box<Program>),
    /// n-ary conjunction of at least two operands.
    And(Vec<Program>),
    /// n-ary disjunction of at least two operands.
    Or(Vec<Program>),
}

/// One step of a compiled path.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// `..` below the root: always exactly one target.
    Up,
    /// A label step, resolved to its schema node.
    Down(SchemaNodeId),
    /// A filter on the current node, compiled at its schema node.
    Filter(Program),
}

/// Compile `f` for evaluation at instance nodes mapped to `at`.
pub(crate) fn compile(schema: &Schema, at: SchemaNodeId, f: &Formula) -> Program {
    formula(schema, at, f, true)
}

/// `top` is true while `f` is evaluated at the program's evaluation node
/// itself, i.e. outside every filter: only there is a bare child step a
/// [`Program::HasChild`].
fn formula(schema: &Schema, at: SchemaNodeId, f: &Formula, top: bool) -> Program {
    match f {
        Formula::True => Program::Const(true),
        Formula::False => Program::Const(false),
        Formula::Not(g) => match formula(schema, at, g, top) {
            Program::Const(b) => Program::Const(!b),
            Program::Not(p) => *p,
            p => Program::Not(Box::new(p)),
        },
        Formula::And(fs) => connective(schema, at, fs, top, true),
        Formula::Or(fs) => connective(schema, at, fs, top, false),
        Formula::Path(p) => path(schema, at, p, top),
    }
}

/// Compile an `∧` (`and`) or `∨` chain into one n-ary node, folding
/// constant operands.
fn connective(schema: &Schema, at: SchemaNodeId, fs: &[Formula], top: bool, and: bool) -> Program {
    let mut ops = Vec::new();
    for g in fs {
        match formula(schema, at, g, top) {
            // The identity drops out; the absorbing constant decides.
            Program::Const(b) if b == and => {}
            Program::Const(b) => return Program::Const(b),
            p => ops.push(p),
        }
    }
    // An operand can be a chain of the same kind (`¬¬` removed around
    // it); `junction` splices its operands in.
    junction(ops, and)
}

impl Chain for Program {
    fn chain(ops: Vec<Program>, and: bool) -> Program {
        match (ops.is_empty(), and) {
            (true, _) => Program::Const(and),
            (false, true) => Program::And(ops),
            (false, false) => Program::Or(ops),
        }
    }

    fn operands(self, and: bool) -> Result<Vec<Program>, Program> {
        match (self, and) {
            (Program::And(ops), true) | (Program::Or(ops), false) => Ok(ops),
            (p, _) => Err(p),
        }
    }
}

/// Compile `p`'s steps, resolving each from `at`.
fn path(schema: &Schema, at: SchemaNodeId, p: &PathExpr, top: bool) -> Program {
    // The common bare label, without building a step list.
    if let ([PathStep::Label(l)], true) = (p.steps(), top) {
        let child = schema.child_by_label(at, l);
        return child.map_or(Program::Const(false), Program::HasChild);
    }
    let mut steps = Vec::new();
    let mut cur = at;
    for step in p.steps() {
        let resolved = match step {
            PathStep::Parent => schema.parent(cur).map(|up| {
                cur = up;
                Step::Up
            }),
            PathStep::Label(l) => schema.child_by_label(cur, l).map(|down| {
                cur = down;
                Step::Down(down)
            }),
            PathStep::Filter(f) => match formula(schema, cur, f, false) {
                Program::Const(true) => continue,
                Program::Const(false) => None,
                g => Some(Step::Filter(g)),
            },
        };
        match resolved {
            Some(step) => steps.push(step),
            None => return Program::Const(false),
        }
    }
    match steps.as_slice() {
        [Step::Down(s)] if top => Program::HasChild(*s),
        // Parent steps below the root always succeed.
        s if s.iter().all(|s| *s == Step::Up) => Program::Const(true),
        _ => Program::Path(steps),
    }
}

/// Runs programs on one instance. It owns the depth-first stack that
/// path steps with several matching children push onto, and an optional
/// child-presence table for one node.
pub(crate) struct Evaluator<'a> {
    inst: &'a Instance,
    /// `(node, index of the next step)` pairs still to try, shared by
    /// nested path evaluations: each pops only above its own base.
    stack: Vec<(InstNodeId, usize)>,
    /// `present[s]`: does the loaded node have a child mapped to `s`?
    present: Vec<bool>,
    loaded: Option<InstNodeId>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over `inst` with no presence table loaded.
    pub(crate) fn new(inst: &'a Instance) -> Evaluator<'a> {
        Evaluator {
            inst,
            stack: Vec::new(),
            present: Vec::new(),
            loaded: None,
        }
    }

    /// Fill the presence table from `n`'s children, replacing any loaded
    /// node's: [`Program::HasChild`] at `n` becomes a table lookup.
    pub(crate) fn load(&mut self, n: InstNodeId) {
        self.unload();
        if self.present.is_empty() {
            self.present = vec![false; self.inst.schema().node_count()];
        }
        for &c in self.inst.children(n) {
            self.present[self.inst.schema_node(c).index()] = true;
        }
        self.loaded = Some(n);
    }

    /// Clear the presence table.
    fn unload(&mut self) {
        if let Some(n) = self.loaded.take() {
            for &c in self.inst.children(n) {
                self.present[self.inst.schema_node(c).index()] = false;
            }
        }
    }

    /// Does `p` hold at `n`? `p` must be compiled at `n`'s schema node.
    #[inline]
    pub(crate) fn holds(&mut self, p: &Program, n: InstNodeId) -> bool {
        match p {
            Program::Const(b) => *b,
            Program::HasChild(s) => {
                if self.loaded == Some(n) {
                    self.present[s.index()]
                } else {
                    self.inst.children_at(n, *s).next().is_some()
                }
            }
            _ => self.holds_compound(p, n),
        }
    }

    /// [`holds`](Evaluator::holds) for the programs with operands. Split
    /// off so that `holds` stays small enough to inline the leaf cases
    /// into the operand loops below (about 15 % fewer nanoseconds per
    /// approval-chain state than one recursive function).
    fn holds_compound(&mut self, p: &Program, n: InstNodeId) -> bool {
        match p {
            Program::Const(_) | Program::HasChild(_) => self.holds(p, n),
            Program::Path(steps) => self.path(steps, n),
            Program::Not(q) => !self.holds(q, n),
            Program::And(qs) => qs.iter().all(|q| self.holds(q, n)),
            Program::Or(qs) => qs.iter().any(|q| self.holds(q, n)),
        }
    }

    /// Is some end node reachable from `n` along `steps`? A depth-first
    /// search: parent steps and filters advance in place, and a label step
    /// pushes every matching child unless it is the last step.
    fn path(&mut self, steps: &[Step], n: InstNodeId) -> bool {
        let inst = self.inst;
        let base = self.stack.len();
        self.stack.push((n, 0));
        while self.stack.len() > base {
            let (mut m, mut i) = self.stack.pop().expect("above base");
            loop {
                match steps.get(i) {
                    None => {
                        self.stack.truncate(base);
                        return true;
                    }
                    Some(Step::Up) => {
                        m = inst.parent(m).expect("compiled below the root");
                        i += 1;
                    }
                    Some(Step::Filter(q)) => {
                        if !self.holds(q, m) {
                            break;
                        }
                        i += 1;
                    }
                    Some(Step::Down(s)) => {
                        if i + 1 == steps.len() {
                            if inst.children_at(m, *s).next().is_some() {
                                self.stack.truncate(base);
                                return true;
                            }
                        } else {
                            self.stack
                                .extend(inst.children_at(m, *s).map(|c| (c, i + 1)));
                        }
                        break;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::holds;
    use crate::leave;
    use std::sync::Arc;

    fn leave_schema() -> Arc<Schema> {
        Arc::new(Schema::parse("a(n, d, p(b, e)), s, d(a, r(r)), f").unwrap())
    }

    fn at(schema: &Schema, path: &str, f: &str) -> Program {
        let f = Formula::parse(f).unwrap();
        compile(schema, schema.resolve(path).unwrap(), &f)
    }

    /// `f` compiled at each node's schema node agrees with `holds` at
    /// every live node of `inst`, with and without the node's presence
    /// table loaded.
    fn agrees(inst: &Instance, f: &str) {
        let f = Formula::parse(f).unwrap();
        let mut ev = Evaluator::new(inst);
        for n in inst.live_nodes() {
            let p = compile(inst.schema(), inst.schema_node(n), &f);
            let want = holds(inst, n, &f);
            assert_eq!(ev.holds(&p, n), want, "`{f}` at {n} of {}", inst.to_text());
            ev.load(n);
            assert_eq!(ev.holds(&p, n), want, "`{f}` at {n}, table loaded");
            ev.unload();
        }
    }

    fn instances() -> Vec<Instance> {
        let s = leave_schema();
        [
            "",
            "a(n), s",
            "a(n, d, p(b, e), p(b)), s, d(a), f",
            "a(p(b), p(e), p(b, e)), d(r(r)), d(a, r)",
            "s, s, f, d, d(a)",
        ]
        .iter()
        .map(|t| Instance::parse(s.clone(), t).unwrap())
        .collect()
    }

    fn all_agree(f: &str) {
        for inst in instances() {
            agrees(&inst, f);
        }
    }

    #[test]
    fn unresolvable_labels_are_false() {
        let s = leave_schema();
        assert_eq!(at(&s, "", "zz"), Program::Const(false));
        assert_eq!(at(&s, "", "!zz"), Program::Const(true));
        // `n` is a child of `a`, not of the root.
        assert_eq!(at(&s, "", "n"), Program::Const(false));
        assert_eq!(at(&s, "a", "!n & zz"), Program::Const(false));
        all_agree("zz");
        all_agree("!zz");
        all_agree("!zz & a | zz");
    }

    #[test]
    fn parent_steps() {
        let s = leave_schema();
        assert_eq!(at(&s, "", ".."), Program::Const(false));
        assert_eq!(at(&s, "", "!.."), Program::Const(true));
        // Below the root a parent always exists.
        assert_eq!(at(&s, "a/p", "../.."), Program::Const(true));
        assert_eq!(at(&s, "a/p", "../../.."), Program::Const(false));
        let sn = s.resolve("s").unwrap();
        assert_eq!(
            at(&s, "a/p", "../../s"),
            Program::Path(vec![Step::Up, Step::Up, Step::Down(sn)])
        );
        for f in [
            "..",
            "../..",
            "../../s",
            "!../s",
            "../../x",
            "..[s]/a",
            "../p[b]/..",
        ] {
            all_agree(f);
        }
    }

    #[test]
    fn bare_child_steps_are_presence_tests_only_at_top() {
        let s = leave_schema();
        let a = s.resolve("a").unwrap();
        let n = s.resolve("a/n").unwrap();
        assert_eq!(
            at(&s, "", "!a"),
            Program::Not(Box::new(Program::HasChild(a)))
        );
        assert_eq!(
            at(&s, "", "a[n]"),
            Program::Path(vec![
                Step::Down(a),
                Step::Filter(Program::Path(vec![Step::Down(n)]))
            ])
        );
        all_agree("a[n] & !s");
    }

    #[test]
    fn filters_on_unresolvable_steps() {
        let s = leave_schema();
        assert_eq!(at(&s, "", "zz[a]"), Program::Const(false));
        assert_eq!(at(&s, "", "a[zz]"), Program::Const(false));
        assert_eq!(at(&s, "", "a[!zz]"), at(&s, "", "a"));
        assert_eq!(at(&s, "", "!a/p[zz | !zz]/b"), at(&s, "", "!a/p/b"));
        for f in ["zz[a]", "a[zz]", "a[!zz]", "!d[zz]/a"] {
            all_agree(f);
        }
    }

    #[test]
    fn nested_filters_and_constants() {
        let s = leave_schema();
        assert_eq!(at(&s, "", "true & false"), Program::Const(false));
        assert_eq!(at(&s, "", "a | true"), Program::Const(true));
        assert_eq!(at(&s, "", "a[true]"), at(&s, "", "a"));
        assert_eq!(at(&s, "", "a[false] | !!f"), at(&s, "", "f"));
        for f in [
            "true",
            "false",
            "a[p[b & !e] & n]",
            "a[p[b[..[e]]]]",
            "d[r[r[../../a | ..[a]]]]",
            "(a/p)[b]/e",
            "a/p[b][e]",
            "!(a & !(s | f)) | d/r/r",
        ] {
            all_agree(f);
        }
    }

    #[test]
    fn example_3_6_formulas() {
        for f in [
            "!a/p[!b | !e]",
            "!f | d[a | r]",
            "d[!(a & r)]",
            "a[n & d & p]",
            "!s & a[n & d & p] & !a/p[!b | !e]",
        ] {
            all_agree(f);
        }
    }

    #[test]
    fn chains_flatten_into_one_node() {
        let s = leave_schema();
        let Program::And(ops) = at(&s, "", "a & (s & f) & (d & a/n)") else {
            panic!("expected one conjunction");
        };
        assert_eq!(ops.len(), 5);
        let Program::Or(ops) = at(&s, "", "a | (s | (f | zz)) | true & d") else {
            panic!("expected one disjunction");
        };
        assert_eq!(ops.len(), 4);
        let Program::Path(steps) = at(&s, "", "a/p/b/../e") else {
            panic!("expected a path");
        };
        assert_eq!(steps.len(), 5);
    }

    #[test]
    fn is_complete_matches_holds_at_root() {
        let g = leave::example_3_12();
        let runs = [
            "",
            "a(n, d, p(b, e)), s",
            "a(n, d, p(b, e)), s, d(a), f",
            "a(n, d, p(b, e), p(b)), s, d(a), f",
            "a(n, d, p(b, e)), s, d, f",
        ];
        for text in runs {
            let inst = Instance::parse(g.schema().clone(), text).unwrap();
            assert_eq!(
                g.is_complete(&inst),
                crate::formula::holds_at_root(&inst, g.completion()),
                "{text}"
            );
        }
    }
}
