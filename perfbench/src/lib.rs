//! The idar benchmark: three workloads over the analysis stack, one
//! JSON result line per run.
//!
//! * [`explore`] — full state-space enumerations through `Explorer`
//!   (flat store, tree-shaped guard-bound chain, spilling store), plus a
//!   replica BFS that times each per-transition layer.
//! * [`corpus`] — cold completability and semi-soundness analyses of a
//!   seeded scenario corpus, checked against the naive [`reference`](mod@reference)
//!   explorer, plus a stage-by-stage replay of the request pipeline.
//! * [`service`] — `idar-server` on loopback under a seeded closed loop
//!   of stateless analyses and form-filling sessions.
//!
//! Every run executes all three stages, so every run reports every
//! metric; the `--workload` flag picks the stage that gets the largest
//! share of the run's measuring time. See `perfbench/README.md` for the
//! workloads, metrics and predictions.

// The counting allocator is the one sanctioned `unsafe` item.
#![deny(unsafe_code)]

pub mod alloc;
pub mod calib;
pub mod corpus;
pub mod explore;
pub mod metrics;
pub mod reference;
pub mod service;
pub mod trace;
pub mod util;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
