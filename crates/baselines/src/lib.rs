//! # eov-baselines
//!
//! The comparison systems of the paper's evaluation, all implementing one common
//! [`api::ConcurrencyControl`] trait so the simulator and the benchmark harness can swap them
//! freely:
//!
//! * `fabric` — vanilla Hyperledger Fabric v1.3 (FIFO ordering, MVCC validation at peers).
//! * `fabricpp` — Fabric++ (early abort of cross-block reads + within-block reordering).
//! * `focc_s` — Focc-s: standard serializable OCC (concurrent-ww / dangerous-structure
//!   aborts at arrival).
//! * `focc_l` — Focc-l: sort-based greedy batch reordering at block formation.
//! * `sharp` — the trait implementation for FabricSharp (`fabricsharp-core`).
//! * [`chain`] — `SimpleChain`, the one node that runs the EOV step (execute, order, validate,
//!   append, optionally persisted) on the caller's thread; examples, tests and the simulator
//!   all drive it.

pub mod api;
pub mod chain;
mod fabric;
mod fabricpp;
mod focc_l;
mod focc_s;
mod sharp;

pub use api::{apply_without_validation, mvcc_validate_and_apply, ConcurrencyControl, SystemKind};
pub use chain::{BlockReport, SimpleChain};
