//! # fabricsharp-core
//!
//! The paper's primary contribution: FabricSharp's fine-grained, orderer-side concurrency
//! control for execute-order-validate blockchains.
//!
//! * [`endorser`] — Algorithm 1: snapshot-consistent contract simulation (the execute phase).
//! * `keys` — Section 4.3's committed (CW/CR) and pending (PW/PR) indices as one key-major
//!   table: one lookup per key, record ids kept with each pending transaction, per-block id
//!   logs for pruning.
//! * `dependency` — Section 4.3: dependency resolution of an incoming transaction against
//!   that table.
//! * `arrival` — Algorithm 2: the reorderability test; unserializable transactions are
//!   dropped before ordering (Theorem 2).
//! * `formation` — Algorithm 3 + Algorithm 5: abort-free reordering at block formation and
//!   restoration of the deliberately-ignored pending c-ww dependencies.
//! * `orderer_cc` — [`FabricSharpCC`], the controller that ties the above
//!   together and is plugged into the ordering service (Figure 8).
//! * [`commit`] — the committer: MVCC validation and block application in strict block order,
//!   shared by every chain facade and the simulator.
//! * [`theory`] — executable forms of the paper's definitions and the Figure 2a / Figure 3a
//!   fixtures shared by tests, examples and the Table 1 harness.
//! * [`serializability`] — an independent offline oracle (multi-version serialization graph)
//!   used to verify end-to-end that everything FabricSharp commits is serializable.
//! * `stats` — the hop and abort counts reported in Figures 13 and 14.
//!
//! Each layer runs on its caller's thread: execute, order and validate are plain calls in
//! sequence over one store, one CW/CR/PW/PR key table and one dependency graph, as in
//! the paper's Sections 4.2–4.4.

#![forbid(unsafe_code)]

mod arrival;
pub mod commit;
mod dependency;
pub mod endorser;
mod formation;
mod keys;
mod orderer_cc;
pub mod recovery;
pub mod serializability;
mod stats;
pub mod theory;
mod untracked;

pub use endorser::{SimulationContext, SnapshotEndorser};
pub use orderer_cc::FabricSharpCC;
pub use recovery::{
    recover_from_disk, recover_from_ledger, ColdRecovery, RecoveryError, RecoveryReport,
};
pub use serializability::{is_serializable, is_strongly_serializable};
