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

pub use eval::{holds, holds_at_root, path_targets};
pub use normal::StepFormula;
pub(crate) use program::{Compiler, Evaluator, Program};

use std::fmt;

/// A node formula `F` of Def. 3.4 (plus the two documented extensions).
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
    /// Conjunction `F ∧ F`.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction `F ∨ F`.
    Or(Box<Formula>, Box<Formula>),
}

/// A path expression `P` of Def. 3.4.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathExpr {
    /// `..` — step to the parent node.
    Parent,
    /// `l` — step to a child labelled `l`.
    Label(String),
    /// `p/q` — composition.
    Seq(Box<PathExpr>, Box<PathExpr>),
    /// `p[F]` — filter the end node of `p` by `F`.
    Filter(Box<PathExpr>, Box<Formula>),
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
        Formula::Path(PathExpr::Label(l.to_string()))
    }

    /// The path formula for a `/`-separated label path, e.g. `"a/p/b"`.
    /// Leading `..` steps are supported: `"../../s"`.
    pub fn path(path: &str) -> Formula {
        let mut steps = path.split('/');
        let first = steps.next().expect("non-empty path");
        let mut p = PathExpr::step(first);
        for s in steps {
            p = PathExpr::Seq(Box::new(p), Box::new(PathExpr::step(s)));
        }
        Formula::Path(p)
    }

    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// `self ∨ rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// `self ↔ rhs`, expanded to `(self ∧ rhs) ∨ (¬self ∧ ¬rhs)`.
    pub fn iff(self, rhs: Formula) -> Formula {
        let a = self.clone();
        let b = rhs.clone();
        (self.and(rhs)).or(a.not().and(b.not()))
    }

    /// Conjunction of an iterator (`True` if empty).
    pub fn conj<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut it = items.into_iter();
        match it.next() {
            None => Formula::True,
            Some(first) => it.fold(first, Formula::and),
        }
    }

    /// Disjunction of an iterator (`False` if empty).
    pub fn disj<I: IntoIterator<Item = Formula>>(items: I) -> Formula {
        let mut it = items.into_iter();
        match it.next() {
            None => Formula::False,
            Some(first) => it.fold(first, Formula::or),
        }
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
            Formula::And(a, b) | Formula::Or(a, b) => a.is_positive() && b.is_positive(),
        }
    }

    /// Number of AST nodes (formula and path constructors both count).
    /// Used for the witness bounds of Lemma 4.4 / Thm 5.2.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False => 1,
            Formula::Path(p) => 1 + p.size(),
            Formula::Not(f) => 1 + f.size(),
            Formula::And(a, b) | Formula::Or(a, b) => 1 + a.size() + b.size(),
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
            Formula::Path(p) => p.collect_labels(out),
            Formula::Not(f) => f.collect_labels(out),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
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
        Formula::Path(PathExpr::Filter(Box::new(PathExpr::Parent), Box::new(self)))
    }

    /// Substitute every occurrence of label `from` (as a path step) with the
    /// path expression `to`. Used by reduction constructions that re-home a
    /// propositional variable to a path (e.g. Thm 5.3's ψ′).
    pub fn substitute_label(&self, from: &str, to: &PathExpr) -> Formula {
        match self {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            Formula::Path(p) => Formula::Path(p.substitute_label(from, to)),
            Formula::Not(f) => Formula::Not(Box::new(f.substitute_label(from, to))),
            Formula::And(a, b) => Formula::And(
                Box::new(a.substitute_label(from, to)),
                Box::new(b.substitute_label(from, to)),
            ),
            Formula::Or(a, b) => Formula::Or(
                Box::new(a.substitute_label(from, to)),
                Box::new(b.substitute_label(from, to)),
            ),
        }
    }
}

impl PathExpr {
    /// A single step: `".."` or a label.
    pub fn step(s: &str) -> PathExpr {
        if s == ".." {
            PathExpr::Parent
        } else {
            PathExpr::Label(s.to_string())
        }
    }

    /// `self/rhs`.
    pub fn then(self, rhs: PathExpr) -> PathExpr {
        PathExpr::Seq(Box::new(self), Box::new(rhs))
    }

    /// `self[f]`.
    pub fn filtered(self, f: Formula) -> PathExpr {
        PathExpr::Filter(Box::new(self), Box::new(f))
    }

    /// A chain of `k` parent steps followed by a label step — the
    /// `../…/../l` shape used throughout Thm 5.3.
    pub fn ancestors_then(k: usize, label: &str) -> PathExpr {
        let mut p = None;
        for _ in 0..k {
            p = Some(match p {
                None => PathExpr::Parent,
                Some(q) => PathExpr::Seq(Box::new(q), Box::new(PathExpr::Parent)),
            });
        }
        match p {
            None => PathExpr::Label(label.to_string()),
            Some(q) => PathExpr::Seq(Box::new(q), Box::new(PathExpr::Label(label.to_string()))),
        }
    }

    fn is_positive(&self) -> bool {
        match self {
            PathExpr::Parent | PathExpr::Label(_) => true,
            PathExpr::Seq(p, q) => p.is_positive() && q.is_positive(),
            PathExpr::Filter(p, f) => p.is_positive() && f.is_positive(),
        }
    }

    fn size(&self) -> usize {
        match self {
            PathExpr::Parent | PathExpr::Label(_) => 1,
            PathExpr::Seq(p, q) => 1 + p.size() + q.size(),
            PathExpr::Filter(p, f) => 1 + p.size() + f.size(),
        }
    }

    fn collect_labels<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PathExpr::Parent => {}
            PathExpr::Label(l) => out.push(l),
            PathExpr::Seq(p, q) => {
                p.collect_labels(out);
                q.collect_labels(out);
            }
            PathExpr::Filter(p, f) => {
                p.collect_labels(out);
                f.collect_labels(out);
            }
        }
    }

    fn substitute_label(&self, from: &str, to: &PathExpr) -> PathExpr {
        match self {
            PathExpr::Parent => PathExpr::Parent,
            PathExpr::Label(l) if l == from => to.clone(),
            PathExpr::Label(l) => PathExpr::Label(l.clone()),
            PathExpr::Seq(p, q) => PathExpr::Seq(
                Box::new(p.substitute_label(from, to)),
                Box::new(q.substitute_label(from, to)),
            ),
            PathExpr::Filter(p, f) => PathExpr::Filter(
                Box::new(p.substitute_label(from, to)),
                Box::new(f.substitute_label(from, to)),
            ),
        }
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
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Path(p) => write!(f, "{p}"),
            Formula::Not(inner) => {
                write!(f, "!")?;
                inner.fmt_prec(f, 3)
            }
            Formula::And(a, b) => {
                let need = prec > 2;
                if need {
                    write!(f, "(")?;
                }
                // The parser is left-associative, so right-nested `And`
                // needs parentheses to round-trip structurally.
                a.fmt_prec(f, 2)?;
                write!(f, " & ")?;
                b.fmt_prec(f, 3)?;
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Formula::Or(a, b) => {
                let need = prec > 1;
                if need {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, 1)?;
                write!(f, " | ")?;
                b.fmt_prec(f, 2)?;
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathExpr::Parent => write!(f, ".."),
            PathExpr::Label(l) => write!(f, "{l}"),
            PathExpr::Seq(p, q) => write!(f, "{p}/{q}"),
            PathExpr::Filter(p, inner) => match **p {
                // Filters on non-atomic paths need parentheses to reparse:
                // `(a/b)[f]` vs `a/b[f]`.
                PathExpr::Parent | PathExpr::Label(_) | PathExpr::Filter(..) => {
                    write!(f, "{p}[{inner}]")
                }
                PathExpr::Seq(..) => write!(f, "({p})[{inner}]"),
            },
        }
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
}
