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
//! * [`recovery`] — Section 4.6: a restarted orderer's controller, re-derived from the last
//!   `max_span` blocks of its ledger. The state a restart reads back from disk (ledger and
//!   store) is `eov-ledger`'s cold recovery; the controller is never persisted.
//! * [`commit`] — the committer, in strict block order: MVCC validate-and-apply for the
//!   systems that validate at the peers, apply-only for FabricSharp. `SimpleChain::commit`
//!   and the benchmark driver call one of the two per block.
//! * [`theory`] — executable forms of the paper's definitions and the Figure 2a / Figure 3a
//!   fixtures shared by tests, examples and the Table 1 harness.
//! * [`serializability`] — an independent offline oracle (multi-version serialization graph)
//!   used to verify end-to-end that everything FabricSharp commits is serializable.
//! * `stats` — the hop and abort counts reported in Figures 13 and 14.
//!
//! Each layer runs on its caller's thread: execute, order and validate are plain calls in
//! sequence over one store, one CW/CR/PW/PR key table and one dependency graph, as in
//! the paper's Sections 4.2–4.4.

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
/// Cold recovery restores persisted state only and lives in `eov-ledger`. Kept under this
/// path only because `perf/src/driver.rs` imports it from here; it goes once the benchmark
/// names `eov_ledger::recover_from_disk` (ROADMAP).
pub use eov_ledger::{recover_from_disk, ColdRecovery};
pub use orderer_cc::FabricSharpCC;
pub use recovery::recover_from_ledger;
pub use serializability::{is_serializable, is_strongly_serializable};
