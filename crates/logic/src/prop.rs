//! Propositional formulas, assignments, and CNF.

use std::collections::BTreeSet;
use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit {
    pub var: Var,
    pub positive: bool,
}

impl Lit {
    pub fn pos(v: u32) -> Lit {
        Lit {
            var: Var(v),
            positive: true,
        }
    }

    pub fn neg(v: u32) -> Lit {
        Lit {
            var: Var(v),
            positive: false,
        }
    }

    /// The complementary literal.
    pub fn negated(self) -> Lit {
        Lit {
            var: self.var,
            positive: !self.positive,
        }
    }

    /// Truth value under an assignment.
    pub fn eval(self, a: &Assignment) -> bool {
        a.get(self.var) == self.positive
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.var)
        } else {
            write!(f, "!{}", self.var)
        }
    }
}

/// A total assignment over variables `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    bits: Vec<bool>,
}

impl Assignment {
    /// The all-false assignment over `n` variables.
    pub fn all_false(n: usize) -> Assignment {
        Assignment {
            bits: vec![false; n],
        }
    }

    /// Build from a bit vector.
    pub fn from_bits(bits: Vec<bool>) -> Assignment {
        Assignment { bits }
    }

    pub fn len(&self) -> usize {
        self.bits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    pub fn get(&self, v: Var) -> bool {
        self.bits[v.index()]
    }

    pub fn set(&mut self, v: Var, value: bool) {
        self.bits[v.index()] = value;
    }
}

/// A clause: a disjunction of literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause(pub Vec<Lit>);

impl Clause {
    pub fn eval(&self, a: &Assignment) -> bool {
        self.0.iter().any(|l| l.eval(a))
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

/// The largest variable count [`Cnf::brute_force`] accepts — callers
/// guarding a brute-force consultation share this constant instead of
/// re-hardcoding it.
pub const BRUTE_FORCE_MAX_VARS: usize = 24;

/// A CNF formula: a conjunction of clauses over variables `0..vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    pub vars: usize,
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// Build from literal lists; `vars` is inferred as max var + 1.
    pub fn new(clauses: Vec<Vec<Lit>>) -> Cnf {
        let vars = clauses
            .iter()
            .flatten()
            .map(|l| l.var.index() + 1)
            .max()
            .unwrap_or(0);
        Cnf {
            vars,
            clauses: clauses.into_iter().map(Clause).collect(),
        }
    }

    /// Fix the variable count explicitly (for formulas with unused vars).
    pub fn with_vars(mut self, vars: usize) -> Cnf {
        assert!(vars >= self.vars, "cannot shrink below used variables");
        self.vars = vars;
        self
    }

    pub fn eval(&self, a: &Assignment) -> bool {
        self.clauses.iter().all(|c| c.eval(a))
    }

    /// Brute-force satisfiability (for cross-checking the search engines
    /// in tests; only usable for small `vars`, see
    /// [`BRUTE_FORCE_MAX_VARS`]).
    pub fn brute_force(&self) -> Option<Assignment> {
        assert!(
            self.vars <= BRUTE_FORCE_MAX_VARS,
            "brute force limited to {BRUTE_FORCE_MAX_VARS} variables"
        );
        for bits in 0u64..(1 << self.vars) {
            let a = Assignment::from_bits((0..self.vars).map(|i| bits >> i & 1 == 1).collect());
            if self.eval(&a) {
                return Some(a);
            }
        }
        None
    }

    /// The set of variables that actually occur.
    pub fn used_vars(&self) -> BTreeSet<Var> {
        self.clauses
            .iter()
            .flat_map(|c| c.0.iter().map(|l| l.var))
            .collect()
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "true");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A general propositional formula (used as QBF matrix; the guarded-form
/// reductions need non-CNF shapes too). The builders keep `∧`/`∨` chains
/// n-ary and flat: no `And` has an `And` operand, no `Or` an `Or`
/// operand, and each has at least two operands. A chain built directly
/// with fewer stands for the identity (no operand) or its one operand,
/// and prints as that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropFormula {
    Const(bool),
    Var(Var),
    Not(Box<PropFormula>),
    And(Vec<PropFormula>),
    Or(Vec<PropFormula>),
}

impl PropFormula {
    pub fn var(v: u32) -> PropFormula {
        PropFormula::Var(Var(v))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> PropFormula {
        PropFormula::Not(Box::new(self))
    }

    pub fn and(self, rhs: PropFormula) -> PropFormula {
        PropFormula::conj([self, rhs])
    }

    pub fn or(self, rhs: PropFormula) -> PropFormula {
        PropFormula::disj([self, rhs])
    }

    /// Conjunction of an iterator (`true` if empty).
    pub fn conj<I: IntoIterator<Item = PropFormula>>(items: I) -> PropFormula {
        junction(items, true)
    }

    /// Disjunction of an iterator (`false` if empty).
    pub fn disj<I: IntoIterator<Item = PropFormula>>(items: I) -> PropFormula {
        junction(items, false)
    }

    pub fn eval(&self, a: &Assignment) -> bool {
        match self {
            PropFormula::Const(c) => *c,
            PropFormula::Var(v) => a.get(*v),
            PropFormula::Not(f) => !f.eval(a),
            PropFormula::And(fs) => fs.iter().all(|f| f.eval(a)),
            PropFormula::Or(fs) => fs.iter().any(|f| f.eval(a)),
        }
    }

    /// All variables occurring in the formula.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            PropFormula::Const(_) => {}
            PropFormula::Var(v) => {
                out.insert(*v);
            }
            PropFormula::Not(f) => f.collect_vars(out),
            PropFormula::And(fs) | PropFormula::Or(fs) => {
                fs.iter().for_each(|f| f.collect_vars(out))
            }
        }
    }

    /// Substitute a truth value for a variable, folding constants as the
    /// result is rebuilt (the workhorse of quantifier expansion in
    /// [`crate::qbf`]).
    pub fn substitute(&self, v: Var, value: bool) -> PropFormula {
        self.fold(&mut |w| (w == v).then_some(value))
    }

    /// Eliminate every `Const` node (unless the whole formula is constant,
    /// in which case that constant is returned).
    pub fn const_fold(&self) -> PropFormula {
        self.fold(&mut |_| None)
    }

    /// Rebuild with the variables `value` maps to a constant replaced by
    /// it, and every constant folded away.
    fn fold(&self, value: &mut dyn FnMut(Var) -> Option<bool>) -> PropFormula {
        match self {
            PropFormula::Const(c) => PropFormula::Const(*c),
            PropFormula::Var(w) => value(*w).map_or(PropFormula::Var(*w), PropFormula::Const),
            PropFormula::Not(f) => match f.fold(value) {
                PropFormula::Const(c) => PropFormula::Const(!c),
                g => g.not(),
            },
            PropFormula::And(fs) | PropFormula::Or(fs) => {
                let and = matches!(self, PropFormula::And(_));
                let mut ops = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.fold(value) {
                        // The identity drops out; the absorbing constant
                        // decides.
                        PropFormula::Const(c) if c == and => {}
                        PropFormula::Const(c) => return PropFormula::Const(c),
                        g => ops.push(g),
                    }
                }
                junction(ops, and)
            }
        }
    }

    /// Tseitin transformation: an **equisatisfiable** CNF whose variables
    /// `0..min_vars` (and any formula variables beyond) keep their meaning
    /// while gate variables are allocated above them. Any model of the
    /// result, restricted to the original variables, satisfies `self`, and
    /// every model of `self` extends to a model of the result — the
    /// encoding uses full (two-sided) gate clauses, one k-ary gate per
    /// `∧`/`∨` node.
    pub fn to_cnf_tseitin(&self, min_vars: usize) -> Cnf {
        let folded = self.const_fold();
        let base = self
            .vars()
            .iter()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
            .max(min_vars);
        match folded {
            PropFormula::Const(true) => Cnf::new(vec![]).with_vars(base),
            PropFormula::Const(false) => Cnf::new(vec![vec![]]).with_vars(base),
            f => {
                let mut enc = Tseitin {
                    next: base as u32,
                    clauses: Vec::new(),
                };
                let root = enc.lit(&f);
                enc.clauses.push(vec![root]);
                Cnf::new(enc.clauses).with_vars(enc.next as usize)
            }
        }
    }

    /// View a CNF as a `PropFormula`.
    pub fn from_cnf(cnf: &Cnf) -> PropFormula {
        PropFormula::conj(cnf.clauses.iter().map(|c| {
            PropFormula::disj(c.0.iter().map(|l| {
                let v = PropFormula::Var(l.var);
                if l.positive {
                    v
                } else {
                    v.not()
                }
            }))
        }))
    }
}

/// The flattened `∧` (`and`) or `∨` of `items`; the identity when empty.
fn junction<I: IntoIterator<Item = PropFormula>>(items: I, and: bool) -> PropFormula {
    let mut ops: Vec<PropFormula> = Vec::new();
    for f in items {
        match (f, and) {
            (PropFormula::And(fs), true) | (PropFormula::Or(fs), false) if ops.is_empty() => {
                ops = fs
            }
            (PropFormula::And(fs), true) | (PropFormula::Or(fs), false) => ops.extend(fs),
            (f, _) => ops.push(f),
        }
    }
    match ops.len() {
        0 => PropFormula::Const(and),
        1 => ops.pop().expect("one operand"),
        _ if and => PropFormula::And(ops),
        _ => PropFormula::Or(ops),
    }
}

/// Recursive Tseitin encoder over a constant-free formula.
struct Tseitin {
    next: u32,
    clauses: Vec<Vec<Lit>>,
}

impl Tseitin {
    /// The literal equivalent to `f`, emitting gate clauses as needed.
    fn lit(&mut self, f: &PropFormula) -> Lit {
        match f {
            PropFormula::Const(_) => unreachable!("const_fold ran first"),
            PropFormula::Var(v) => Lit::pos(v.0),
            PropFormula::Not(g) => self.lit(g).negated(),
            PropFormula::And(fs) => {
                let ops: Vec<Lit> = fs.iter().map(|g| self.lit(g)).collect();
                let g = self.fresh();
                // g ↔ a₁ ∧ … ∧ aₖ
                for &a in &ops {
                    self.clauses.push(vec![g.negated(), a]);
                }
                let mut all = vec![g];
                all.extend(ops.iter().map(|a| a.negated()));
                self.clauses.push(all);
                g
            }
            PropFormula::Or(fs) => {
                let ops: Vec<Lit> = fs.iter().map(|g| self.lit(g)).collect();
                let g = self.fresh();
                // g ↔ a₁ ∨ … ∨ aₖ
                let mut any = vec![g.negated()];
                any.extend(&ops);
                self.clauses.push(any);
                for &a in &ops {
                    self.clauses.push(vec![g, a.negated()]);
                }
                g
            }
        }
    }

    fn fresh(&mut self) -> Lit {
        let v = self.next;
        self.next += 1;
        Lit::pos(v)
    }
}

impl fmt::Display for PropFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (fs, sep) = match self {
            PropFormula::Const(c) => return write!(f, "{c}"),
            PropFormula::Var(v) => return write!(f, "{v}"),
            PropFormula::Not(g) => return write!(f, "!({g})"),
            PropFormula::And(fs) if fs.is_empty() => return write!(f, "true"),
            PropFormula::Or(fs) if fs.is_empty() => return write!(f, "false"),
            PropFormula::And(fs) | PropFormula::Or(fs) if fs.len() == 1 => {
                return write!(f, "{}", fs[0])
            }
            PropFormula::And(fs) => (fs, " & "),
            PropFormula::Or(fs) => (fs, " | "),
        };
        write!(f, "(")?;
        for (i, g) in fs.iter().enumerate() {
            if i > 0 {
                write!(f, "{sep}")?;
            }
            write!(f, "{g}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_eval() {
        let mut a = Assignment::all_false(2);
        a.set(Var(1), true);
        assert!(!Lit::pos(0).eval(&a));
        assert!(Lit::neg(0).eval(&a));
        assert!(Lit::pos(1).eval(&a));
        assert_eq!(Lit::pos(0).negated(), Lit::neg(0));
    }

    #[test]
    fn cnf_eval() {
        // (x0 | !x1) & (x1 | x2)
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(1), Lit::pos(2)],
        ]);
        assert_eq!(cnf.vars, 3);
        let mut a = Assignment::all_false(3);
        assert!(!cnf.eval(&a)); // second clause fails
        a.set(Var(2), true);
        assert!(cnf.eval(&a));
    }

    #[test]
    fn empty_cnf_is_true() {
        let cnf = Cnf::new(vec![]);
        assert!(cnf.eval(&Assignment::all_false(0)));
        assert!(cnf.brute_force().is_some());
    }

    #[test]
    fn empty_clause_is_false() {
        let cnf = Cnf::new(vec![vec![]]);
        assert!(cnf.brute_force().is_none());
    }

    #[test]
    fn brute_force_finds_model() {
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0)],
            vec![Lit::neg(0), Lit::pos(1)],
            vec![Lit::neg(1), Lit::pos(2)],
        ]);
        let a = cnf.brute_force().unwrap();
        assert!(cnf.eval(&a));
        assert!(a.get(Var(0)) && a.get(Var(1)) && a.get(Var(2)));
    }

    #[test]
    fn prop_formula_matches_cnf() {
        let cnf = Cnf::new(vec![
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(1), Lit::pos(2)],
        ]);
        let pf = PropFormula::from_cnf(&cnf);
        for bits in 0u64..8 {
            let a = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1).collect());
            assert_eq!(cnf.eval(&a), pf.eval(&a));
        }
    }

    #[test]
    fn substitute_folds_constants() {
        // (x0 ∧ x1) ∨ ¬x0, x0 := true  →  x1.
        let f = PropFormula::var(0)
            .and(PropFormula::var(1))
            .or(PropFormula::var(0).not());
        assert_eq!(f.substitute(Var(0), true), PropFormula::var(1));
        assert_eq!(f.substitute(Var(0), false), PropFormula::Const(true));
    }

    #[test]
    fn tseitin_is_equisatisfiable() {
        // Every assignment of the original variables: the formula holds
        // iff the Tseitin CNF with those values clamped is satisfiable.
        for seed in 0..30u64 {
            let f = crate::gen::random_prop(seed, 4, 7);
            let cnf = f.to_cnf_tseitin(4);
            assert!(cnf.vars >= 4);
            for bits in 0u8..16 {
                let a = Assignment::from_bits((0..4).map(|i| bits >> i & 1 == 1).collect());
                let mut clamped = cnf.clone();
                for i in 0..4u32 {
                    clamped.clauses.push(Clause(vec![if a.get(Var(i)) {
                        Lit::pos(i)
                    } else {
                        Lit::neg(i)
                    }]));
                }
                assert_eq!(
                    clamped.brute_force().is_some(),
                    f.eval(&a),
                    "seed {seed} bits {bits:04b}: {f}"
                );
            }
        }
    }

    #[test]
    fn tseitin_constants() {
        assert!(PropFormula::Const(true)
            .to_cnf_tseitin(2)
            .brute_force()
            .is_some());
        assert!(PropFormula::Const(false)
            .to_cnf_tseitin(2)
            .brute_force()
            .is_none());
        // A formula that folds to a constant.
        let f = PropFormula::var(0).or(PropFormula::var(0).not().or(PropFormula::var(1)));
        // Not constant-foldable syntactically (x0 ∨ (¬x0 ∨ x1)), but sat.
        assert!(f.to_cnf_tseitin(0).brute_force().is_some());
    }

    #[test]
    fn display_roundtrips_visually() {
        let cnf = Cnf::new(vec![vec![Lit::pos(0), Lit::neg(1)]]);
        assert_eq!(cnf.to_string(), "(x0 | !x1)");
        // Chains built with fewer than two operands print as what they
        // stand for.
        let x0 = PropFormula::var(0);
        assert_eq!(PropFormula::And(vec![]).to_string(), "true");
        assert_eq!(PropFormula::Or(vec![]).to_string(), "false");
        assert_eq!(PropFormula::Or(vec![x0.clone()]).to_string(), "x0");
        assert_eq!(
            PropFormula::And(vec![x0.clone(), x0]).to_string(),
            "(x0 & x0)"
        );
    }
}
