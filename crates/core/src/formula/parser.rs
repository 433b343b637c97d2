//! Recursive-descent parser for the concrete formula syntax.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! formula  := iff
//! iff      := or ( ("<->" | "↔" | "iff") or )*          -- sugar, expanded
//! or       := and ( ("|" | "||" | "or" | "∨") and )*
//! and      := unary ( ("&" | "&&" | "and" | "∧") unary )*
//! unary    := ("!" | "not" | "¬") unary | atom
//! atom     := "true" | "false" | path | "(" formula ")" [pathtail]
//! path     := step ( "/" step )*
//! step     := (".." | ident) ( "[" formula "]" )*
//! pathtail := ( "[" formula "]" | "/" step )*           -- resumes a path
//! ```
//!
//! A parenthesised group followed by `[` or `/` is re-interpreted as a
//! parenthesised *path* (the group must then be a pure path expression),
//! so `(a/b)[c]` and `(a/b)/c` parse as the paper's `P[F]` / `P/P`.
//!
//! Chains come out flat: `a & b & c`, `(a & b) & c` and `a & (b & c)`
//! are one n-ary [`Formula::And`], and `(a/b)/c`, `a/(b/c)` and `a/b/c`
//! one step list, as are `(a/b)[c]` and `a/b[c]`.
//!
//! Two bounds keep every walker of the result cheap:
//!
//! * Nesting is bounded by [`MAX_NESTING`](crate::MAX_NESTING). It counts
//!   negations, parenthesised groups and filters, and each move of a path
//!   after its first, as the step normal form nests one level per move
//!   (`l/p ≡ l[p]`, Lemma 4.4). So no input can overflow the stack of the
//!   recursive descent or of any walker of the AST.
//! * `↔` is sugar that copies both operands, so nested `↔` grow the AST
//!   exponentially. The copies may total at most
//!   [`MAX_EXPANSION`](crate::MAX_EXPANSION) AST nodes per input byte.
//!
//! Identifiers may contain ASCII alphanumerics and `_ ' - +` (primes and
//! signs appear in the paper's own labels, e.g. `d'` and `init(q,0,+)`
//! which we render as `init_q_0_+`).

use super::{junction, Formula, PathExpr, PathStep};
use crate::error::{too_deep, CoreError, Result};
use crate::{MAX_EXPANSION, MAX_NESTING};

pub fn parse(text: &str) -> Result<Formula> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
        copied: 0,
    };
    let f = p.formula()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(f)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current nesting depth: `formula` and `!` add one level each, and
    /// so does each move of a path after its first. Bounded by
    /// [`MAX_NESTING`].
    depth: usize,
    /// AST nodes copied by `↔` expansions so far. Bounded by
    /// [`MAX_EXPANSION`] per input byte.
    copied: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> CoreError {
        CoreError::Parse {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Consume `tok` if present at the cursor (after whitespace).
    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(tok.as_bytes()) {
            // Word tokens must not run into an identifier: `or` vs `order`.
            let is_word = tok.bytes().all(|b| b.is_ascii_alphabetic());
            if is_word {
                let after = self.pos + tok.len();
                if after < self.bytes.len() && crate::schema::is_label_byte(self.bytes[after]) {
                    return false;
                }
            }
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn eat_any(&mut self, toks: &[&str]) -> bool {
        toks.iter().any(|t| self.eat(t))
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_NESTING {
            return Err(too_deep(self.pos));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn formula(&mut self) -> Result<Formula> {
        self.nested(|p| {
            let lhs = p.or_expr()?;
            if p.eat_any(&["<->", "\u{2194}", "iff"]) {
                let rhs = p.or_expr()?;
                // The expansion copies both operands.
                p.copied += lhs.size() + rhs.size();
                if p.copied > MAX_EXPANSION * p.bytes.len() {
                    return Err(p.err(&format!(
                        "`<->` expands to more than {MAX_EXPANSION} nodes per input byte"
                    )));
                }
                return Ok(lhs.iff(rhs));
            }
            Ok(lhs)
        })
    }

    fn or_expr(&mut self) -> Result<Formula> {
        self.chain(&["||", "|", "or", "\u{2228}"], false, Self::and_expr)
    }

    fn and_expr(&mut self) -> Result<Formula> {
        self.chain(&["&&", "&", "and", "\u{2227}"], true, Self::unary)
    }

    /// One operand, or a flat `∧` (`and`) or `∨` chain of operands
    /// separated by one of `ops`.
    fn chain(
        &mut self,
        ops: &[&str],
        and: bool,
        operand: impl Fn(&mut Self) -> Result<Formula>,
    ) -> Result<Formula> {
        let first = operand(self)?;
        if !self.eat_any(ops) {
            return Ok(first);
        }
        let mut fs = vec![first];
        loop {
            fs.push(operand(self)?);
            if !self.eat_any(ops) {
                return Ok(junction(fs, and));
            }
        }
    }

    fn unary(&mut self) -> Result<Formula> {
        if self.eat_any(&["!", "not", "\u{00ac}"]) {
            return Ok(self.nested(Self::unary)?.not());
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Formula> {
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let inner = self.formula()?;
                if !self.eat(")") {
                    return Err(self.err("expected `)`"));
                }
                // `(p)[f]` / `(p)/q`: resume as a path expression.
                if matches!(self.peek(), Some(b'[') | Some(b'/')) {
                    let Formula::Path(p) = inner else {
                        return Err(self.err(
                            "parenthesised group continued as a path, \
                             but it is not a path expression",
                        ));
                    };
                    let moves = p.steps().iter().filter(|s| s.is_move()).count();
                    return Ok(Formula::Path(self.path_tail(p.0, moves)?));
                }
                Ok(inner)
            }
            Some(_) => {
                if self.eat("true") {
                    return Ok(Formula::True);
                }
                if self.eat("false") {
                    return Ok(Formula::False);
                }
                let first = if self.eat("..") {
                    PathStep::Parent
                } else {
                    PathStep::Label(self.ident()?)
                };
                Ok(Formula::Path(self.path_tail(vec![first], 1)?))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Continue a path of `moves` moves with any number of filters and
    /// `/step` extensions. In the step normal form each move after the
    /// first nests one level deeper (`l/p ≡ l[p]`, Lemma 4.4), so until
    /// the path ends each one counts toward [`MAX_NESTING`].
    fn path_tail(&mut self, steps: Vec<PathStep>, moves: usize) -> Result<PathExpr> {
        let base = self.depth;
        let out = self.path_steps(steps, moves, base);
        self.depth = base;
        out
    }

    fn path_steps(
        &mut self,
        mut steps: Vec<PathStep>,
        mut moves: usize,
        base: usize,
    ) -> Result<PathExpr> {
        loop {
            self.depth = base + moves - 1;
            if self.depth > MAX_NESTING {
                return Err(too_deep(self.pos));
            }
            while self.peek() == Some(b'[') {
                self.pos += 1;
                let f = self.formula()?;
                if !self.eat("]") {
                    return Err(self.err("expected `]`"));
                }
                steps.push(PathStep::Filter(Box::new(f)));
            }
            if self.peek() != Some(b'/') {
                return Ok(PathExpr::from_steps(steps));
            }
            self.pos += 1;
            moves += self.step(&mut steps)?;
        }
    }

    /// Append one move, or a parenthesised path's steps, to `steps`;
    /// returns the number of moves appended.
    fn step(&mut self, steps: &mut Vec<PathStep>) -> Result<usize> {
        self.skip_ws();
        if self.eat("..") {
            steps.push(PathStep::Parent);
            return Ok(1);
        }
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let inner = self.formula()?;
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            let Formula::Path(mut p) = inner else {
                return Err(self.err("expected a path expression inside `(…)` step"));
            };
            let moves = p.steps().iter().filter(|s| s.is_move()).count();
            steps.append(&mut p.0);
            return Ok(moves);
        }
        steps.push(PathStep::Label(self.ident()?));
        Ok(1)
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && crate::schema::is_label_byte(self.bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an identifier"));
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("idents are ascii")
            .to_string();
        // Reserved words cannot be labels in the concrete syntax.
        if matches!(s.as_str(), "true" | "false" | "and" | "or" | "not" | "iff") {
            return Err(self.err("reserved word used as label"));
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Formula, PathExpr};

    fn p(s: &str) -> Formula {
        Formula::parse(s).unwrap_or_else(|e| panic!("parse `{s}`: {e}"))
    }

    #[test]
    fn atoms() {
        assert_eq!(p("a"), Formula::label("a"));
        assert_eq!(p("true"), Formula::True);
        assert_eq!(p("false"), Formula::False);
        assert_eq!(p(".."), Formula::Path(PathExpr::parent()));
    }

    #[test]
    fn precedence() {
        // ¬ binds tighter than ∧ binds tighter than ∨.
        assert_eq!(p("!a & b | c"), p("((!a) & b) | c"));
        assert_eq!(p("a | b & c"), p("a | (b & c)"));
    }

    #[test]
    fn operator_spellings() {
        assert_eq!(p("a & b"), p("a and b"));
        assert_eq!(p("a & b"), p("a && b"));
        assert_eq!(p("a & b"), p("a ∧ b"));
        assert_eq!(p("a | b"), p("a or b"));
        assert_eq!(p("a | b"), p("a ∨ b"));
        assert_eq!(p("!a"), p("not a"));
        assert_eq!(p("!a"), p("¬a"));
    }

    #[test]
    fn word_ops_do_not_eat_idents() {
        // `order` is a label, not `or` + `der`.
        assert_eq!(p("order"), Formula::label("order"));
        assert_eq!(p("nota"), Formula::label("nota"));
        assert!(Formula::parse("a or").is_err());
    }

    #[test]
    fn paths() {
        assert_eq!(p("a/p/b").to_string(), "a/p/b");
        assert_eq!(p("../s").to_string(), "../s");
        assert_eq!(p("../../s").to_string(), "../../s");
        assert_eq!(p("a[n]/p").to_string(), "a[n]/p");
    }

    #[test]
    fn filters() {
        let f = p("a/p[!b | !e]");
        assert_eq!(f.to_string(), "a/p[!b | !e]");
        let g = p("d[!(a & r)]");
        assert_eq!(g.to_string(), "d[!(a & r)]");
        // Stacked filters on one step.
        let h = p("a[b][c]");
        assert_eq!(h.to_string(), "a[b][c]");
    }

    #[test]
    fn parenthesised_paths() {
        // A filter applies to the node reached so far: `(a/b)[c]` is
        // `a/b[c]`.
        let f = p("(a/b)[c]");
        assert_eq!(f, p("a/b[c]"));
        assert_eq!(f.to_string(), "a/b[c]");
        let g = p("(a/b)/c");
        assert_eq!(g, p("a/b/c"));
        assert_eq!(g, p("a/(b/c)"));
        // A parenthesised non-path cannot continue as a path.
        assert!(Formula::parse("(a & b)/c").is_err());
    }

    #[test]
    fn iff_sugar() {
        assert_eq!(p("a <-> b"), Formula::label("a").iff(Formula::label("b")));
        assert_eq!(p("a iff b"), p("a <-> b"));
        // The paper's η_ij shape (Thm 5.3).
        let f = p("y1 <-> ../yk");
        assert_eq!(f.to_string(), "y1 & ../yk | !y1 & !../yk");
    }

    #[test]
    fn example_3_6_formulas() {
        // The three example formulas from Ex. 3.6 parse.
        p("!a/p[!b | !e]");
        p("!f | d[a | r]");
        p("d[!(a & r)]");
    }

    #[test]
    fn example_3_12_rules_parse() {
        for s in [
            "!a",
            "!../s & !n",
            "!../s",
            "!../../s & !b",
            "!s & a[n & d & p] & !a/p[!b | !e]",
            "s & !d",
            "!(a | r)",
            "!../f",
            "!r",
            "!../../f",
            "d[a | r] & !f",
        ] {
            p(s);
        }
    }

    #[test]
    fn errors() {
        for s in [
            "", "&", "a &", "(a", "a[", "a]", "..[", "a b", "not", "(a|b)[c]",
        ] {
            assert!(Formula::parse(s).is_err(), "should fail: {s}");
        }
    }

    /// Nesting past `MAX_NESTING` is an error, not a stack overflow —
    /// for negations, groups and filters alike.
    #[test]
    fn deep_nesting_is_rejected() {
        let n = crate::MAX_NESTING;
        let nots = |k: usize| format!("{}a", "!".repeat(k));
        assert!(Formula::parse(&nots(n - 1)).is_ok());
        assert!(Formula::parse(&nots(10_000)).is_err());
        let groups = |k: usize| format!("{}a{}", "(".repeat(k), ")".repeat(k));
        assert!(Formula::parse(&groups(n - 1)).is_ok());
        assert!(Formula::parse(&groups(n)).is_err());
        let filters = format!("{}b{}", "a[".repeat(10_000), "]".repeat(10_000));
        assert!(Formula::parse(&filters).is_err());
    }

    #[test]
    fn chains_parse_flat() {
        let f = p("a & (b & c) & (d & (e & f))");
        assert_eq!(f, p("((a & b) & c) & d & e & f"));
        let Formula::And(ops) = &f else {
            panic!("expected one conjunction")
        };
        assert_eq!(ops.len(), 6);
        let Formula::Or(ops) = p("a | (b | c & d) | (e | f)") else {
            panic!("expected one disjunction")
        };
        assert_eq!(ops.len(), 5);
        let Formula::Path(path) = p("a/(p/b)/../(e/(f/g))") else {
            panic!("expected a path")
        };
        assert_eq!(path.steps().len(), 7);
        // Flattening keeps the size of the binary grammar.
        assert_eq!(p("a & b & c").size(), 2 + 3 * 2);
        assert_eq!(p("a/b/c").size(), 1 + 3 + 2);
    }

    /// Each move of a path after its first counts one nesting level, also
    /// when it comes from a parenthesised path, and the count ends with
    /// the path.
    #[test]
    fn long_paths_count_toward_the_nesting_limit() {
        let n = crate::MAX_NESTING;
        let path = |k: usize| vec!["a"; k].join("/");
        assert!(Formula::parse(&path(n)).is_ok());
        assert!(Formula::parse(&path(n + 1)).is_err());
        assert!(Formula::parse(&path(200_000)).is_err());
        let groups = |k: usize| vec!["(a/a)"; k].join("/");
        assert!(Formula::parse(&groups(n / 2)).is_ok());
        assert!(Formula::parse(&groups(n / 2 + 1)).is_err());
        // Sequenced paths each get the whole budget.
        let many = vec![path(n); 8].join(" & ");
        assert!(Formula::parse(&many).is_ok());
        // Stacked filters on one move do not nest.
        let filters = format!("a{}", "[b]".repeat(10_000));
        assert!(Formula::parse(&filters).is_ok());
    }

    /// `↔` nested `d` deep copies `2ᵈ` operands; past `MAX_EXPANSION`
    /// nodes per byte that is a parse error, before the AST is built.
    #[test]
    fn iff_expansion_is_bounded() {
        let nest = |d: usize| {
            let mut f = "a".to_string();
            for _ in 0..d {
                f = format!("({f} <-> b)");
            }
            f
        };
        assert!(Formula::parse(&nest(3)).is_ok());
        let err = Formula::parse(&nest(40)).unwrap_err().to_string();
        assert!(err.contains("expands"), "{err}");
        // Many small `↔` side by side copy little per byte.
        let wide = vec!["(x <-> ../y)"; 5_000].join(" & ");
        assert!(Formula::parse(&wide).is_ok());
    }

    #[test]
    fn primes_in_labels() {
        assert_eq!(p("d'"), Formula::label("d'"));
        assert_eq!(p("c1[!d & !d']").to_string(), "c1[!d & !d']");
    }
}
