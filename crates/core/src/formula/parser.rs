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
//! Nesting (negations, parenthesised groups, filters) is bounded by
//! [`MAX_NESTING`](crate::MAX_NESTING), so no input can overflow the
//! stack of the recursive descent.
//!
//! Identifiers may contain ASCII alphanumerics and `_ ' - +` (primes and
//! signs appear in the paper's own labels, e.g. `d'` and `init(q,0,+)`
//! which we render as `init_q_0_+`).

use super::{Formula, PathExpr};
use crate::error::{too_deep, CoreError, Result};
use crate::MAX_NESTING;

pub fn parse(text: &str) -> Result<Formula> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
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
    /// Current recursion depth of `formula` and `!` — bounded by
    /// [`MAX_NESTING`].
    depth: usize,
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
        if self.depth == MAX_NESTING {
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
                return Ok(lhs.iff(rhs));
            }
            Ok(lhs)
        })
    }

    fn or_expr(&mut self) -> Result<Formula> {
        let mut f = self.and_expr()?;
        while self.eat_any(&["||", "|", "or", "\u{2228}"]) {
            let rhs = self.and_expr()?;
            f = f.or(rhs);
        }
        Ok(f)
    }

    fn and_expr(&mut self) -> Result<Formula> {
        let mut f = self.unary()?;
        while self.eat_any(&["&&", "&", "and", "\u{2227}"]) {
            let rhs = self.unary()?;
            f = f.and(rhs);
        }
        Ok(f)
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
                    let p = self.path_tail(p)?;
                    return Ok(Formula::Path(p));
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
                let p = self.path()?;
                Ok(Formula::Path(p))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn path(&mut self) -> Result<PathExpr> {
        let first = self.step()?;
        self.path_tail(first)
    }

    /// Continue a path: apply any number of `/step` extensions.
    fn path_tail(&mut self, mut p: PathExpr) -> Result<PathExpr> {
        loop {
            // Filters directly on a parenthesised path land here too.
            while self.peek() == Some(b'[') {
                self.pos += 1;
                let f = self.formula()?;
                if !self.eat("]") {
                    return Err(self.err("expected `]`"));
                }
                p = PathExpr::Filter(Box::new(p), Box::new(f));
            }
            if self.peek() == Some(b'/') {
                self.pos += 1;
                let s = self.step()?;
                p = PathExpr::Seq(Box::new(p), Box::new(s));
            } else {
                return Ok(p);
            }
        }
    }

    fn step(&mut self) -> Result<PathExpr> {
        self.skip_ws();
        let mut base = if self.eat("..") {
            PathExpr::Parent
        } else if self.peek() == Some(b'(') {
            self.pos += 1;
            let inner = self.formula()?;
            if !self.eat(")") {
                return Err(self.err("expected `)`"));
            }
            let Formula::Path(p) = inner else {
                return Err(self.err("expected a path expression inside `(…)` step"));
            };
            p
        } else {
            let label = self.ident()?;
            PathExpr::Label(label)
        };
        while self.peek() == Some(b'[') {
            self.pos += 1;
            let f = self.formula()?;
            if !self.eat("]") {
                return Err(self.err("expected `]`"));
            }
            base = PathExpr::Filter(Box::new(base), Box::new(f));
        }
        Ok(base)
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
        assert_eq!(p(".."), Formula::Path(PathExpr::Parent));
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
        let f = p("(a/b)[c]");
        assert_eq!(f.to_string(), "(a/b)[c]");
        let g = p("(a/b)/c");
        assert_eq!(g, p("a/b/c"));
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
    fn primes_in_labels() {
        assert_eq!(p("d'"), Formula::label("d'"));
        assert_eq!(p("c1[!d & !d']").to_string(), "c1[!d & !d']");
    }
}
