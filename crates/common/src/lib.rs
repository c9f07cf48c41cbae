//! # eov-common
//!
//! Shared vocabulary types for the FabricSharp reproduction of
//! *"A Transactional Perspective on Execute-Order-Validate Blockchains"* (SIGMOD 2020).
//!
//! This crate defines the data model every other crate builds on:
//!
//! * [`SeqNo`] — the paper's two-component sequence numbers `(block, seq)` used both for
//!   record versions and transaction timestamps (Definitions 3 and 4).
//! * [`rwset::Key`] / [`rwset::Value`] — the versioned key-value vocabulary of the state
//!   database.
//! * [`Transaction`], [`ReadSet`], [`WriteSet`] — endorsed transactions carrying the
//!   simulation results produced in the *execute* phase.
//! * [`DependencyKind`] — the six canonical dependencies of Figure 5.
//! * [`AbortReason`] — the taxonomy of abort causes reported in Figures 12 and 14.
//! * [`config`] — the experiment parameters of Table 2 and the block/CC configuration knobs.
//! * [`hash`] — the keyed hash behind the state store's index and the orderer's maps.
//! * [`id_index`] — the hash table from key bytes to slab ids that the state store and the
//!   orderer's key table share.
//!
//! The crate is dependency-light on purpose; it contains no algorithms, only definitions and
//! small helpers (such as the concurrency predicate of Definition 5) that must be agreed upon
//! by the orderer-side concurrency controls, the state store, and the simulator.

pub mod abort;
pub mod config;
pub mod dep;
pub mod error;
pub mod hash;
pub mod id_index;
pub mod rwset;
pub mod txn;
pub mod version;

pub use abort::AbortReason;
pub use config::{BlockConfig, CcConfig, ExperimentGrid, WorkloadParams};
pub use dep::DependencyKind;
pub use rwset::{ReadItem, ReadSet, WriteItem, WriteSet};
pub use txn::{CommitDecision, Transaction, TxnId, TxnStatus};
pub use version::{concurrent, EndTs, SeqNo, StartTs};
