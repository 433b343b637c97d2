//! # idar-core
//!
//! The formalism of *Calders, Dekeyser, Hidders, Paredaens — "Analyzing
//! Workflows implied by Instance-Dependent Access Rules" (PODS 2006)*.
//!
//! A **guarded form** ([`GuardedForm`]) couples
//!
//! * a tree-shaped [`Schema`] (a nested-relation schema, Def. 3.1),
//! * an initial [`Instance`] of that schema,
//! * an access-rule table ([`AccessRules`]) mapping each access right
//!   (`add`/`del`) and schema edge to a guard [`Formula`] in an
//!   XPath-abbreviated path logic (Def. 3.4), and
//! * a *completion formula* that defines when the form is complete.
//!
//! The access rules implicitly define a workflow: the only updates are
//! additions and deletions of leaf edges, and an update is allowed exactly
//! when its guard holds at the parent node of the touched edge (Sec. 3.4).
//!
//! This crate contains the formalism itself: schemas, instances (which carry
//! their — unique, Prop. 3.3 — homomorphism into the schema), formulas with
//! parser/evaluator/normal forms, formula equivalence and canonical
//! instances (bisimulation with bidirectional edges, Defs. 3.7–3.8), guarded
//! forms and runs, the fragment lattice `F(A±, φ±, d)` of Sec. 3.5, and the
//! paper's running example (the leave application, Fig. 1 / Ex. 3.12).
//!
//! Decision procedures for completability and semi-soundness live in
//! `idar-solver`; the paper's hardness reductions live in `idar-reductions`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisim;
pub mod canon;
pub mod delta;
pub mod deps;
pub mod error;
pub mod formula;
pub mod fragment;
pub mod guarded;
pub mod instance;
pub mod intern;
pub mod leave;
pub mod schema;
pub mod serialize;

pub use canon::Canonicalized;
pub use deps::{guard_deps, RuleId};
pub use error::CoreError;
pub use formula::{Formula, PathExpr, PathStep};
pub use fragment::{DepthClass, Fragment, Polarity};
pub use guarded::{AccessRules, GuardedForm, Right, Run, Update};
pub use instance::{InstNodeId, Instance};
pub use intern::{CanonKey, KeyLayout};
pub use schema::{Schema, SchemaBuilder, SchemaNodeId};

/// The reserved label of every schema (and instance) root, Def. 3.1.
pub const ROOT_LABEL: &str = "r";

/// The deepest nesting [`Formula::parse`], [`Schema::parse`] and
/// [`Instance::parse`] accept: negations, parenthesised groups, path
/// filters and the moves of a path after its first in a formula, child
/// lists in a schema or instance. Deeper
/// input is a [`CoreError::Parse`], never a stack overflow in the
/// recursive descent. Every form the repository generates nests far
/// less deeply.
pub const MAX_NESTING: usize = 256;

/// How many AST nodes [`Formula::parse`] lets `↔` expansions copy per
/// input byte. `a ↔ b` is sugar for `(a ∧ b) ∨ (¬a ∧ ¬b)`, which copies
/// both operands, so `↔` nested `d` deep grows the AST like `2ᵈ`. An
/// input that copies more is a [`CoreError::Parse`]; without the bound a
/// few hundred bytes could expand to billions of nodes. Every formula
/// text in the repository copies less than one node per byte.
pub const MAX_EXPANSION: usize = 16;
