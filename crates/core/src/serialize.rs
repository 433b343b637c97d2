//! Canonical text serialization of guarded forms.
//!
//! A [`GuardedForm`] is four parseable pieces — schema, access rules,
//! initial instance, completion formula — and each already has a compact
//! concrete syntax ([`Schema::parse`], [`Formula::parse`],
//! [`Instance::parse`]). This module glues them into one RON-style record
//! so that *generated* forms (the `idar-gen` crate, the differential fuzz
//! harness) can be written to disk as self-contained, human-readable,
//! replayable repro cases:
//!
//! ```text
//! (
//!   schema: "a(n, p(b, e)), s",
//!   default: "false",
//!   rules: [
//!     (add, "a", "true"),
//!     (del, "a", "!s"),
//!   ],
//!   initial: "a(n)",
//!   completion: "a & s",
//! )
//! ```
//!
//! The encoding is **canonical**: rules are listed only where the guard
//! differs from the default, sorted by schema-edge path then right, and
//! formulas are printed via their `Display` round-trip. Two calls to
//! [`to_ron`] on the same form produce byte-identical output, and
//! `to_ron(&from_ron(s)?)` is a fixpoint for any `s` produced by `to_ron`.

use crate::error::{CoreError, Result};
use crate::formula::Formula;
use crate::guarded::{AccessRules, GuardedForm, Right};
use crate::instance::Instance;
use crate::schema::Schema;
use std::fmt::Write as _;
use std::sync::Arc;

/// Serialize a guarded form to the canonical RON-style text format.
pub fn to_ron(form: &GuardedForm) -> String {
    let schema = form.schema();
    let mut out = String::from("(\n");
    let _ = writeln!(out, "  schema: \"{}\",", schema.to_text());
    let _ = writeln!(out, "  default: \"{}\",", form.rules().default_guard());
    out.push_str("  rules: [\n");
    let mut rules: Vec<(String, Right, String)> = Vec::new();
    for e in schema.edge_ids() {
        for right in [Right::Add, Right::Del] {
            let guard = form.rules().get(right, e);
            if guard != form.rules().default_guard() {
                rules.push((schema.path_of(e), right, guard.to_string()));
            }
        }
    }
    rules.sort();
    for (path, right, guard) in rules {
        let _ = writeln!(out, "    ({right}, \"{path}\", \"{guard}\"),");
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  initial: \"{}\",", form.initial().to_text());
    let _ = writeln!(out, "  completion: \"{}\",", form.completion());
    out.push_str(")\n");
    out
}

/// Parse a guarded form from the [`to_ron`] text format.
///
/// The parser is whitespace- and comment-tolerant (lines starting with
/// `//` are skipped), so repro files may carry a provenance header.
pub fn from_ron(text: &str) -> Result<GuardedForm> {
    let mut schema_text: Option<String> = None;
    let mut default_text = "false".to_string();
    let mut rule_lines: Vec<(Right, String, String)> = Vec::new();
    let mut initial_text = String::new();
    let mut completion_text = "true".to_string();

    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") || line == "(" || line == ")" {
            continue;
        }
        if let Some(rest) = line.strip_prefix("schema:") {
            schema_text = Some(unquote(rest)?);
        } else if let Some(rest) = line.strip_prefix("default:") {
            default_text = unquote(rest)?;
        } else if let Some(rest) = line.strip_prefix("initial:") {
            initial_text = unquote(rest)?;
        } else if let Some(rest) = line.strip_prefix("completion:") {
            completion_text = unquote(rest)?;
        } else if line.starts_with("rules:") || line == "]," || line == "]" {
            // Section markers carry no data.
        } else if line.starts_with('(') {
            rule_lines.push(parse_rule_line(line)?);
        } else {
            return Err(CoreError::Parse {
                pos: 0,
                msg: format!("unrecognised line in form record: `{line}`"),
            });
        }
    }

    let schema_text = schema_text.ok_or_else(|| CoreError::Parse {
        pos: 0,
        msg: "form record missing `schema:`".into(),
    })?;
    let schema = Arc::new(if schema_text.trim().is_empty() {
        crate::schema::SchemaBuilder::new().build()
    } else {
        Schema::parse(&schema_text)?
    });
    let mut rules = AccessRules::with_default(&schema, Formula::parse(&default_text)?);
    for (right, path, guard) in rule_lines {
        let edge = schema.resolve(&path)?;
        rules.set(right, edge, Formula::parse(&guard)?);
    }
    let initial = if initial_text.trim().is_empty() {
        Instance::empty(schema.clone())
    } else {
        Instance::parse(schema.clone(), &initial_text)?
    };
    let completion = Formula::parse(&completion_text)?;
    Ok(GuardedForm::new(schema, rules, initial, completion))
}

/// Extract the contents of the first double-quoted string in `s`.
fn unquote(s: &str) -> Result<String> {
    let start = s.find('"').ok_or_else(|| CoreError::Parse {
        pos: 0,
        msg: format!("expected a quoted value in `{s}`"),
    })?;
    let rest = &s[start + 1..];
    let end = rest.find('"').ok_or_else(|| CoreError::Parse {
        pos: start,
        msg: format!("unterminated quoted value in `{s}`"),
    })?;
    Ok(rest[..end].to_string())
}

/// Parse one `(add, "path", "guard"),` rule line.
fn parse_rule_line(line: &str) -> Result<(Right, String, String)> {
    let body = line
        .trim_start_matches('(')
        .trim_end_matches(',')
        .trim_end_matches(')');
    let (right_text, rest) = body.split_once(',').ok_or_else(|| CoreError::Parse {
        pos: 0,
        msg: format!("malformed rule line `{line}`"),
    })?;
    let right = match right_text.trim() {
        "add" => Right::Add,
        "del" => Right::Del,
        other => {
            return Err(CoreError::Parse {
                pos: 0,
                msg: format!("unknown access right `{other}`"),
            })
        }
    };
    let path = unquote(rest)?;
    // The guard is the second quoted string: skip past the first pair.
    let after_path = {
        let first = rest.find('"').expect("unquote succeeded");
        let rest2 = &rest[first + 1..];
        let second = rest2.find('"').expect("unquote succeeded");
        &rest2[second + 1..]
    };
    let guard = unquote(after_path)?;
    Ok((right, path, guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leave;

    #[test]
    fn roundtrip_leave_form() {
        let g = leave::example_3_12();
        let text = to_ron(&g);
        let g2 = from_ron(&text).unwrap();
        assert_eq!(g.schema().to_text(), g2.schema().to_text());
        assert_eq!(g.completion(), g2.completion());
        assert!(g.initial().isomorphic(g2.initial()));
        for e in g.schema().edge_ids() {
            for right in [Right::Add, Right::Del] {
                assert_eq!(
                    g.rules().get(right, e),
                    g2.rules().get(right, e),
                    "guard mismatch on ({right}, {})",
                    g.schema().path_of(e)
                );
            }
        }
    }

    #[test]
    fn to_ron_is_a_fixpoint() {
        let g = leave::example_3_12();
        let once = to_ron(&g);
        let twice = to_ron(&from_ron(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let g = leave::example_3_12();
        let text = format!("// repro: seed 42, case 7\n\n{}", to_ron(&g));
        assert!(from_ron(&text).is_ok());
    }

    #[test]
    fn trivial_form_roundtrips() {
        let schema = Arc::new(crate::schema::SchemaBuilder::new().build());
        let rules = AccessRules::new(&schema);
        let g = GuardedForm::new(
            schema.clone(),
            rules,
            Instance::empty(schema),
            Formula::True,
        );
        let g2 = from_ron(&to_ron(&g)).unwrap();
        assert_eq!(g2.schema().node_count(), 1);
        assert_eq!(g2.completion(), &Formula::True);
    }

    /// A completion of 10,000 nested `!` is a parse error, not a stack
    /// overflow that aborts the process, on the 2 MiB stack that
    /// spawned threads (server workers among them) get by default.
    #[test]
    fn deeply_nested_formula_is_an_error() {
        let text = to_ron(&leave::example_3_12());
        let start = text.find("  completion: ").unwrap();
        let deep = format!(
            "{}  completion: \"{}a\",\n)\n",
            &text[..start],
            "!".repeat(10_000)
        );
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || from_ron(&deep).map(|_| ()))
            .unwrap()
            .join()
            .expect("parser thread must not crash");
        assert!(parsed.is_err());
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(from_ron("nonsense").is_err());
        assert!(from_ron("(\n  completion: \"a\",\n)").is_err()); // no schema
        assert!(
            from_ron("(\n  schema: \"a\",\n  rules: [\n    (mul, \"a\", \"x\"),\n  ],\n)").is_err()
        );
    }
}
