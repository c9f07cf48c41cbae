//! # fabricsharp
//!
//! Facade crate for the Rust reproduction of *"A Transactional Perspective on
//! Execute-Order-Validate Blockchains"* (Ruan et al., SIGMOD 2020).
//!
//! The workspace is organised as a set of substrate crates plus the paper's core contribution;
//! this crate re-exports all of them under stable module names so that examples, integration
//! tests and downstream users can depend on a single package:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `eov-common` | sequence numbers, transactions, read/write sets, abort reasons, configuration |
//! | [`vstore`] | `eov-vstore` | multi-versioned state store, block snapshots, CW/CR/PW/PR indices |
//! | [`ledger`] | `eov-ledger` | SHA-256, blocks, hash-chained ledger, Section 3.5 commitments and fork audit |
//! | [`core`] | `fabricsharp-core` | **the paper's contribution**: Algorithms 1–5, the FabricSharp orderer-side concurrency control and the serializability oracle |
//! | [`baselines`] | `eov-baselines` | vanilla Fabric, Fabric++, Focc-s, Focc-l, and the `SimpleChain` facade |
//! | [`workload`] | `eov-workload` | Zipfian sampler, Smallbank contracts, workload generators |
//! | [`sim`] | `eov-sim` | discrete-event EOV pipeline simulator (Fabric & FastFabric profiles) |
//!
//! ## Quickstart
//!
//! ```
//! use fabricsharp::prelude::*;
//!
//! // Build a tiny chain with the FabricSharp concurrency control.
//! let mut chain = SimpleChain::new(SystemKind::FabricSharp);
//! let alice = Key::new("alice");
//! let bob = Key::new("bob");
//! chain.seed([(alice.clone(), Value::from_i64(100)), (bob.clone(), Value::from_i64(0))]);
//!
//! // Execute phase: simulate a transfer against the current snapshot...
//! let txn = chain.execute(|ctx| {
//!     let a = ctx.read_balance(&alice);
//!     let b = ctx.read_balance(&bob);
//!     ctx.write(alice.clone(), Value::from_i64(a - 10));
//!     ctx.write(bob.clone(), Value::from_i64(b + 10));
//! });
//! // ...order phase: submit it to the orderer-side concurrency control...
//! assert!(chain.submit(txn).is_accept());
//! // ...validate phase: seal the block, apply the writes, append to the hash-chained ledger.
//! let report = chain.seal_block();
//! assert_eq!(report.committed.len(), 1);
//! assert_eq!(chain.latest(&bob).unwrap().as_i64(), Some(10));
//! assert!(chain.ledger().verify_integrity().is_ok());
//! ```

pub use eov_baselines as baselines;
pub use eov_common as common;
pub use eov_ledger as ledger;
pub use eov_sim as sim;
pub use eov_vstore as vstore;
pub use eov_workload as workload;
pub use fabricsharp_core as core;

/// Commonly used items, re-exported for examples and quick experiments.
pub mod prelude {
    pub use eov_baselines::api::{ConcurrencyControl, SystemKind};
    pub use eov_baselines::chain::{BlockReport, SimpleChain};
    pub use eov_common::rwset::{Key, Value};
    pub use eov_common::{
        AbortReason, BlockConfig, CcConfig, CommitDecision, DependencyKind, ExperimentGrid,
        ReadSet, SeqNo, Transaction, TxnId, TxnStatus, WorkloadParams, WriteSet,
    };
    pub use eov_sim::{PipelineProfile, SimReport, SimulationConfig, Simulator};
    pub use eov_workload::generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
    pub use fabricsharp_core::serializability::{is_serializable, is_strongly_serializable};
    pub use fabricsharp_core::FabricSharpCC;
}
