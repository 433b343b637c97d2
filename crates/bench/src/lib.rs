//! # idar-bench
//!
//! Benchmark workloads and the experiment harness that regenerates every
//! table and figure of the paper (the `reproduce` binary; the README
//! lists its sections).
//!
//! The paper is a theory paper: its single table (Table 1) is a complexity
//! matrix and its three figures are worked examples. Reproduction
//! therefore means (a) *verdict agreement* between the guarded-form
//! solvers and independent baselines on reduction-generated families, and
//! (b) *scaling shapes* consistent with each cell's complexity class —
//! which is exactly what [`workloads`] generates, the `reproduce` binary
//! asserts and the Criterion benches time.

#![forbid(unsafe_code)]

pub mod load;
pub mod workloads;

use idar_core::GuardedForm;

/// A named, sized benchmark workload: a guarded form plus the verdict the
/// baseline solver expects (when one exists).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload family and parameters, e.g. `np_sat/v6c18/seed3`.
    pub name: String,
    /// The compiled guarded form.
    pub form: GuardedForm,
    /// The baseline answer for the property under test, if known:
    /// completability or semi-soundness depending on the family.
    pub expected: Option<bool>,
}
