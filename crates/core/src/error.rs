//! Error types shared across the core formalism.

use std::fmt;

/// Errors raised by schema/instance construction, formula parsing and
/// guarded-form manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A schema node would get two children with the same label,
    /// violating Def. 3.1 ("no two siblings have the same label").
    DuplicateSiblingLabel {
        /// Label of the parent schema node.
        parent: String,
        /// The duplicated child label.
        label: String,
    },
    /// A label failed lexical validation (empty, or contains characters the
    /// concrete syntax cannot express).
    InvalidLabel(String),
    /// The reserved root label `r` was used for a non-root node.
    ReservedRootLabel,
    /// A path did not resolve to a schema node.
    NoSuchSchemaPath(String),
    /// A schema node id was out of range or did not belong to this schema.
    NoSuchSchemaNode,
    /// An instance node id was out of range, deleted, or belonged to a
    /// different instance.
    NoSuchInstanceNode,
    /// An update touched a non-leaf node; Sec. 3.4 restricts updates to
    /// additions and deletions of edges that add/remove leaf nodes.
    NotALeaf,
    /// The root of an instance can never be deleted.
    CannotDeleteRoot,
    /// An edge addition did not correspond to a schema edge below the
    /// parent's schema node (it would break the homomorphism of Def. 3.1).
    SchemaMismatch {
        /// Label of the would-be parent node.
        parent_label: String,
        /// Label of the rejected child.
        child_label: String,
    },
    /// Formula parse error with position and message.
    Parse {
        /// Byte offset of the error in the input.
        pos: usize,
        /// Human-readable description.
        msg: String,
    },
    /// An update was attempted that the access rules forbid.
    UpdateNotAllowed(String),
    /// A run validation failed at the given step.
    InvalidRun {
        /// Zero-based index of the offending update.
        step: usize,
        /// Why the step was rejected.
        msg: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DuplicateSiblingLabel { parent, label } => write!(
                f,
                "schema node `{parent}` already has a child labelled `{label}` \
                 (siblings must have distinct labels, Def. 3.1)"
            ),
            CoreError::InvalidLabel(l) => write!(f, "invalid label `{l}`"),
            CoreError::ReservedRootLabel => {
                write!(f, "label `r` is reserved for the root (Def. 3.1)")
            }
            CoreError::NoSuchSchemaPath(p) => write!(f, "no schema node at path `{p}`"),
            CoreError::NoSuchSchemaNode => write!(f, "schema node id out of range"),
            CoreError::NoSuchInstanceNode => write!(f, "instance node id invalid or deleted"),
            CoreError::NotALeaf => write!(
                f,
                "only leaf edges may be added or deleted (Sec. 3.4 update model)"
            ),
            CoreError::CannotDeleteRoot => write!(f, "the root cannot be deleted"),
            CoreError::SchemaMismatch {
                parent_label,
                child_label,
            } => write!(f, "schema has no edge `{parent_label}` -> `{child_label}`"),
            CoreError::Parse { pos, msg } => write!(f, "parse error at byte {pos}: {msg}"),
            CoreError::UpdateNotAllowed(u) => write!(f, "update not allowed: {u}"),
            CoreError::InvalidRun { step, msg } => {
                write!(f, "invalid run at step {step}: {msg}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// The parse error for input nested deeper than [`crate::MAX_NESTING`].
pub(crate) fn too_deep(pos: usize) -> CoreError {
    CoreError::Parse {
        pos,
        msg: format!("nesting deeper than {} levels", crate::MAX_NESTING),
    }
}

/// Convenient result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
