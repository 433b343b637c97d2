//! The path-formula language of Def. 3.4, a fragment of XPath's abbreviated
//! syntax:
//!
//! ```text
//! F ::= P | ¬F | (F ∧ F) | (F ∨ F)
//! P ::= .. | L | (P/P) | P[F]
//! ```
//!
//! Semantics (Def. 3.5): `n ⊨ p` iff some node is reachable from `n` along
//! `p`; `..` steps to the parent, `l` to a child labelled `l`, `p/q`
//! composes, and `p[F]` filters the end node by `F`.
//!
//! The grammar and the printed syntax are the paper's, but the AST uses
//! that `∧`, `∨` and `/` are associative: a chain of `∧` (or `∨`) is one
//! n-ary node, and a path is one flat list of steps ([`PathStep`]: `..`,
//! a label, or a filter on the node reached so far). So a walker recurses
//! only through `¬`, groups, filters and path steps, all of which the
//! parser caps at [`MAX_NESTING`](crate::MAX_NESTING), never once per
//! operator of a chain.
//!
//! Two pragmatic extensions, both documented deviations from the paper's
//! grammar:
//!
//! * Constants [`Formula::True`] / [`Formula::False`]. The paper uses
//!   meta-level "always true" access rules (e.g. Thm 5.3: "The access rules
//!   for addition and deletion of y¹…yⁿ are always true"); the constants
//!   make those rules first-class. Both are *positive* (negation-free).
//! * `↔` (iff) is **parser sugar** that immediately expands to
//!   `(a ∧ b) ∨ (¬a ∧ ¬b)`; it never appears in the AST. The Thm 5.3
//!   construction uses it heavily (`yᵢⱼ ↔ r/yᵏⱼ`).

mod eval;
mod normal;
mod parser;
mod program;
mod simplify;

pub use eval::{holds, holds_at_root};
pub use normal::StepFormula;
pub(crate) use program::{compile, Evaluator, Program};

use std::fmt;

/// A node formula `F` of Def. 3.4 (plus the two documented extensions).
///
/// `∧` and `∨` chains are stored n-ary. The builders and the parser keep
/// them flat: no `And` has an `And` operand, no `Or` an `Or` operand, and
/// each has at least two operands. A chain built directly with fewer
/// stands for the identity (no operand) or its one operand, and prints
/// and sizes as that.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Always true (extension; see module docs).
    True,
    /// Always false (extension; see module docs).
    False,
    /// A path expression `P`: true iff some end node is reachable.
    Path(PathExpr),
    /// Negation `¬F`.
    Not(Box<Formula>),
    /// Conjunction `F ∧ … ∧ F`.
    And(Vec<Formula>),
    /// Disjunction `F ∨ … ∨ F`.
    Or(Vec<Formula>),
}

/// A path expression `P` of Def. 3.4, stored as its list of steps. `p/q`
/// concatenates the lists, so `(p/q)/r` and `p/(q/r)` are one value, and
/// so are `(p/q)[f]` and `p/q[f]`. The list is never empty and starts
/// with a move (`..` or a label).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathExpr(Vec<PathStep>);

/// One step of a [`PathExpr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// `..` — step to the parent node.
    Parent,
    /// `l` — step to a child labelled `l`.
    Label(String),
    /// `[F]` — keep the node reached so far only if it satisfies `F`.
    Filter(Box<Formula>),
}

impl Formula {
    /// Parse the concrete syntax; see [`mod@crate::formula`] docs and the
    /// parser module for the grammar.
    ///
    /// ```
    /// # use idar_core::Formula;
    /// let f = Formula::parse("!s & a[n & d & p] & !a/p[!b | !e]").unwrap();
    /// assert!(!f.is_positive());
    /// ```
    pub fn parse(text: &str) -> crate::error::Result<Formula> {
        parser::parse(text)
    }

    /// The atomic path formula `l` for a single label.
    pub fn label(l: &str) -> Formula {
        Formula::Path(PathExpr::label(l))
    }

    /// The path formula for a `/`-separated label path, e.g. `"a/p/b"`.
    /// Leading `..` steps are supported: `"../../s"`.
    pub fn path(path: &str) -> Formula {
        let step = |s: &str| match s {
            ".." => PathStep::Parent,
            l => PathStep::Label(l.to_string()),
        };
        Formula::Path(PathExpr::from_steps(path.split('/').map(step).collect()))
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::conj([self, rhs])
    }

    /// `self ∨ rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::disj([self, rhs])
    }

    /// `self ↔ rhs`, expanded to `(self ∧ rhs) ∨ (¬self ∧ ¬rhs)`.
    pub fn iff(self, rhs: Formula) -> Formula {
        let a = self.clone();
        let b = rhs.clone();
        (self.and(rhs)).or(a.not().and(b.not()))
    }

    /// Conjunction of an iterator (`True` if empty).
    pub fn conj<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        junction(items, true)
    }

    /// Disjunction of an iterator (`False` if empty).
    pub fn disj<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        junction(items, false)
    }

    /// Is this formula *positive* (negation-free)? The `A+` / `φ+`
    /// fragments of Sec. 3.5 require positivity; a positive formula is
    /// monotone under edge additions, which Thm 5.5 exploits.
    ///
    /// Negations anywhere — including inside path filters — count.
    pub fn is_positive(&self) -> bool {
        match self {
            Formula::True | Formula::False => true,
            Formula::Path(p) => p.is_positive(),
            Formula::Not(_) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_positive),
        }
    }

    /// Number of AST nodes of the binary grammar of Def. 3.4 (formula and
    /// path constructors both count): a chain of `k` operands counts its
    /// `k − 1` connectives, a path its `/` joins. Used for the witness
    /// bounds of Lemma 4.4 / Thm 5.2.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Path(p) => 1 + p.size(),
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => {
                let ops: usize = fs.iter().map(Formula::size).sum();
                // The empty chain is its identity constant.
                (ops + fs.len().saturating_sub(1)).max(1)
            }
        }
    }

    /// All labels mentioned anywhere in the formula (sorted, deduplicated).
    pub fn labels(&self) -> Vec<&str> {
        let mut out = self.label_occurrences();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Every label occurrence (one entry per path step, duplicates kept).
    /// The Thm 5.2 witness bound counts these: each occurrence can demand
    /// at most one fresh sibling.
    pub fn label_occurrences(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Path(p) => {
                for step in p.steps() {
                    match step {
                        PathStep::Parent => {}
                        PathStep::Label(l) => out.push(l),
                        PathStep::Filter(f) => f.collect_labels(out),
                    }
                }
            }
            Formula::Not(f) => f.collect_labels(out),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| f.collect_labels(out)),
        }
    }

    /// Rewrite `self` so that it is evaluated at the *parent* of the node it
    /// was written for, i.e. produce `ψ` with `n ⊨ ψ ⇔ parent(n) ⊨ self`.
    ///
    /// This is `..[self]` — used when moving a rule's evaluation point one
    /// level up (the Cor. 4.2 deletion-elimination construction needs it:
    /// `A(del, e)` is evaluated at the edge's parent, but the replacing
    /// `deleted`-marker addition is evaluated at the edge's end node).
    pub fn at_parent(self) -> Formula {
        Formula::Path(PathExpr::parent().filtered(self))
    }

    /// Substitute every occurrence of label `from` (as a path step) with the
    /// path expression `to`. Used by reduction constructions that re-home a
    /// propositional variable to a path (e.g. Thm 5.3's ψ′).
    pub fn substitute_label(&self, from: &str, to: &PathExpr) -> Formula {
        self.map_paths(&mut |step, out| match step {
            PathStep::Label(l) if l == from => out.extend(to.steps().iter().cloned()),
            step => out.push(step.clone()),
        })
    }

    /// Rebuild `self` with every path step (filters' formulas mapped
    /// first) replaced by the steps `step` emits for it.
    pub fn map_paths(&self, step: &mut dyn FnMut(&PathStep, &mut Vec<PathStep>)) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Path(p) => {
                let mut steps = Vec::with_capacity(p.steps().len());
                for s in p.steps() {
                    match s {
                        PathStep::Filter(f) => {
                            let f = f.map_paths(step);
                            step(&PathStep::Filter(Box::new(f)), &mut steps)
                        }
                        s => step(s, &mut steps),
                    }
                }
                Formula::Path(PathExpr::from_steps(steps))
            }
            Formula::Not(f) => f.map_paths(step).not(),
            Formula::And(fs) => Formula::conj(fs.iter().map(|f| f.map_paths(step))),
            Formula::Or(fs) => Formula::disj(fs.iter().map(|f| f.map_paths(step))),
        }
    }
}

/// An AST with n-ary `∧`/`∨` chains. [`junction`] is the one builder
/// of such chains in this crate.
pub(crate) trait Chain: Sized {
    /// The `∧` (`and`) or `∨` chain of `ops`, which are none (the
    /// identity constant) or at least two.
    fn chain(ops: Vec<Self>, and: bool) -> Self;
    /// The operands of `self` if it is an `∧` (`and`) or `∨` chain, else
    /// `self` back.
    fn operands(self, and: bool) -> std::result::Result<Vec<Self>, Self>;
}

/// The flat `∧` (`and`) or `∨` of `items`: an operand that is a chain of
/// the same kind contributes its operands, no operands give the identity
/// and one operand is returned as is.
pub(crate) fn junction<T: Chain>(items: impl IntoIterator<Item = T>, and: bool) -> T {
    let items = items.into_iter();
    let mut ops: Vec<T> = Vec::with_capacity(items.size_hint().0);
    for f in items {
        match f.operands(and) {
            Ok(fs) if ops.is_empty() => ops = fs,
            Ok(fs) => ops.extend(fs),
            Err(f) => ops.push(f),
        }
    }
    match ops.len() {
        1 => ops.pop().expect("one operand"),
        _ => T::chain(ops, and),
    }
}

impl Chain for Formula {
    fn chain(ops: Vec<Formula>, and: bool) -> Formula {
        match (ops.is_empty(), and) {
            (true, true) => Formula::True,
            (true, false) => Formula::False,
            (false, true) => Formula::And(ops),
            (false, false) => Formula::Or(ops),
        }
    }

    fn operands(self, and: bool) -> std::result::Result<Vec<Formula>, Formula> {
        match (self, and) {
            (Formula::And(fs), true) | (Formula::Or(fs), false) => Ok(fs),
            (f, _) => Err(f),
        }
    }
}

impl PathStep {
    /// Is this step `..` or a label (not a filter)?
    pub fn is_move(&self) -> bool {
        !matches!(self, PathStep::Filter(_))
    }
}

impl PathExpr {
    /// `l` — one child step.
    pub fn label(l: &str) -> PathExpr {
        PathExpr(vec![PathStep::Label(l.to_string())])
    }

    /// `..` — one parent step.
    pub fn parent() -> PathExpr {
        PathExpr(vec![PathStep::Parent])
    }

    /// The path with these steps.
    ///
    /// # Panics
    /// If `steps` does not start with a move.
    pub fn from_steps(steps: Vec<PathStep>) -> PathExpr {
        assert!(
            steps.first().is_some_and(PathStep::is_move),
            "a path starts with `..` or a label"
        );
        PathExpr(steps)
    }

    /// The steps, in order; the first is a move.
    pub fn steps(&self) -> &[PathStep] {
        &self.0
    }

    /// `self/rhs`.
    pub fn then(mut self, mut rhs: PathExpr) -> PathExpr {
        self.0.append(&mut rhs.0);
        self
    }

    /// `self[f]`.
    pub fn filtered(mut self, f: Formula) -> PathExpr {
        self.0.push(PathStep::Filter(Box::new(f)));
        self
    }

    /// A chain of `k` parent steps followed by a label step — the
    /// `../…/../l` shape used throughout Thm 5.3.
    pub fn ancestors_then(k: usize, label: &str) -> PathExpr {
        let mut steps = vec![PathStep::Parent; k];
        steps.push(PathStep::Label(label.to_string()));
        PathExpr::from_steps(steps)
    }

    fn is_positive(&self) -> bool {
        self.steps().iter().all(|s| match s {
            PathStep::Filter(f) => f.is_positive(),
            _ => true,
        })
    }

    /// Size in the binary grammar: one per move and per `/` joining two
    /// moves, one per filter plus its formula's size.
    fn size(&self) -> usize {
        let moves = self.steps().iter().filter(|s| s.is_move()).count();
        let filters: usize = self
            .steps()
            .iter()
            .map(|s| match s {
                PathStep::Filter(f) => 1 + f.size(),
                _ => 0,
            })
            .sum();
        2 * moves - 1 + filters
    }
}

// ---------------------------------------------------------------------------
// Display: minimal-parenthesis pretty printing, re-parseable.
// Precedence: Or(1) < And(2) < Not(3) < atoms. Paths print as step chains.
// ---------------------------------------------------------------------------

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl Formula {
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        let (ops, sep, own) = match self {
            Formula::True => return write!(f, "true"),
            Formula::False => return write!(f, "false"),
            Formula::Path(p) => return write!(f, "{p}"),
            Formula::Not(inner) => {
                write!(f, "!")?;
                return inner.fmt_prec(f, 3);
            }
            Formula::And(ops) if ops.is_empty() => return write!(f, "true"),
            Formula::Or(ops) if ops.is_empty() => return write!(f, "false"),
            Formula::And(ops) | Formula::Or(ops) if ops.len() == 1 => {
                return ops[0].fmt_prec(f, prec)
            }
            Formula::And(ops) => (ops, " & ", 2),
            Formula::Or(ops) => (ops, " | ", 1),
        };
        let need = prec > own;
        if need {
            write!(f, "(")?;
        }
        for (i, op) in ops.iter().enumerate() {
            if i > 0 {
                write!(f, "{sep}")?;
            }
            // An operand of its own kind (never built by the builders)
            // keeps its parentheses, so printing round-trips.
            op.fmt_prec(f, own + 1)?;
        }
        if need {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps().iter().enumerate() {
            match step {
                PathStep::Parent | PathStep::Label(_) if i > 0 => write!(f, "/")?,
                _ => {}
            }
            match step {
                PathStep::Parent => write!(f, "..")?,
                PathStep::Label(l) => write!(f, "{l}")?,
                PathStep::Filter(inner) => write!(f, "[{inner}]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let f = Formula::label("a").and(Formula::label("b").not());
        assert_eq!(f.to_string(), "a & !b");
        assert!(!f.is_positive());
        assert!(Formula::label("a").or(Formula::label("b")).is_positive());
    }

    #[test]
    fn path_builder() {
        let f = Formula::path("a/p/b");
        assert_eq!(f.to_string(), "a/p/b");
        let g = Formula::path("../../s");
        assert_eq!(g.to_string(), "../../s");
    }

    #[test]
    fn conj_disj_empty() {
        assert_eq!(Formula::conj(std::iter::empty()), Formula::True);
        assert_eq!(Formula::disj(std::iter::empty()), Formula::False);
    }

    #[test]
    fn short_chains_print_and_size_as_what_they_stand_for() {
        let a_or_b = Formula::parse("a | b").unwrap();
        for (f, text) in [
            (Formula::And(vec![]), "true"),
            (Formula::Or(vec![]), "false"),
            (Formula::And(vec![a_or_b.clone()]), "a | b"),
            (Formula::Or(vec![a_or_b.clone()]).not(), "!(a | b)"),
        ] {
            assert_eq!(f.to_string(), text);
            assert_eq!(f.size(), Formula::parse(text).unwrap().size(), "{text}");
        }
    }

    #[test]
    fn iff_expands() {
        let f = Formula::label("a").iff(Formula::label("b"));
        assert_eq!(f.to_string(), "a & b | !a & !b");
    }

    #[test]
    fn size_counts_paths() {
        // a/p[b] = Path( Seq(a, Filter(p, b)) ):
        // Path=1 + Seq=1 + Label a=1 + Filter=1 + Label p=1 + (Path b=1+1)
        let f = Formula::parse("a/p[b]").unwrap();
        assert_eq!(f.size(), 7);
    }

    #[test]
    fn labels_collected_sorted_dedup() {
        let f = Formula::parse("b & a[b] | !c/a").unwrap();
        assert_eq!(f.labels(), vec!["a", "b", "c"]);
    }

    #[test]
    fn ancestors_then_shapes() {
        assert_eq!(PathExpr::ancestors_then(0, "x").to_string(), "x");
        assert_eq!(PathExpr::ancestors_then(2, "x").to_string(), "../../x");
    }

    #[test]
    fn substitute_label_rewrites_steps() {
        let f = Formula::parse("x & a[x]").unwrap();
        let to = PathExpr::ancestors_then(1, "y");
        let g = f.substitute_label("x", &to);
        assert_eq!(g.to_string(), "../y & a[../y]");
    }

    #[test]
    fn positivity_looks_inside_filters() {
        assert!(Formula::parse("a[b[c]]").unwrap().is_positive());
        assert!(!Formula::parse("a[!b]").unwrap().is_positive());
        assert!(Formula::parse("true & a").unwrap().is_positive());
    }

    #[test]
    fn display_parens_minimal() {
        let f = Formula::parse("(a | b) & c").unwrap();
        assert_eq!(f.to_string(), "(a | b) & c");
        let g = Formula::parse("a | b & c").unwrap();
        assert_eq!(g.to_string(), "a | b & c");
        let h = Formula::parse("!(a & b)").unwrap();
        assert_eq!(h.to_string(), "!(a & b)");
    }

    #[test]
    fn display_roundtrip() {
        for s in [
            "a & b | !c",
            "a/p[b & !e]/..",
            "!a/p[!b | !e]",
            "..[s]/a",
            "true | false",
            "d[!(a & r)]",
        ] {
            let f = Formula::parse(s).unwrap();
            let g = Formula::parse(&f.to_string()).unwrap();
            assert_eq!(f, g, "roundtrip failed for {s}");
        }
    }

    /// Chains of 20,000 operands and a path with 20,000 filters are
    /// printed, parsed, cloned, compared, hashed, evaluated, simplified,
    /// normalised and dropped on a 256 KiB stack: no walker recurses once
    /// per operator.
    #[test]
    fn long_chains_are_walked_on_a_small_stack() {
        use crate::formula::holds_at_root;
        use crate::{InstNodeId, Instance, Schema};
        use std::hash::{DefaultHasher, Hash, Hasher};
        use std::sync::Arc;
        const OPERANDS: usize = 20_000;
        let small = std::thread::Builder::new().stack_size(256 << 10);
        small
            .spawn(|| {
                let schema = Arc::new(Schema::parse("a(b), c").unwrap());
                let inst = Instance::parse(schema, "a(b), a, c").unwrap();
                let atoms = ["a", "c", "!zz", "a[b]"].map(|t| Formula::parse(t).unwrap());
                let atom = |i: usize| atoms[i % atoms.len()].clone();
                let hash = |f: &Formula| {
                    let mut h = DefaultHasher::new();
                    f.hash(&mut h);
                    h.finish()
                };
                let filters = format!("a{}", "[b | c]".repeat(OPERANDS));
                let chains = [
                    Formula::conj((0..OPERANDS).map(atom)),
                    Formula::disj((0..OPERANDS).map(atom)),
                    Formula::parse(&filters).unwrap(),
                ];
                for f in &chains {
                    let g = Formula::parse(&f.to_string()).unwrap();
                    assert_eq!(&g, f);
                    assert_eq!(hash(&g.clone()), hash(f));
                    assert!(f.size() > OPERANDS);
                    assert_eq!(f.is_positive(), *f == chains[2]);
                    let holds = holds_at_root(&inst, f);
                    assert_eq!(holds_at_root(&inst, &f.simplified()), holds);
                    let step = StepFormula::from_formula(f).nnf();
                    assert_eq!(step.holds(&inst, InstNodeId::ROOT), holds);
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
