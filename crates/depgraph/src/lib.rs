//! # eov-depgraph
//!
//! The transaction dependency graph substrate behind FabricSharp's fine-grained concurrency
//! control (Sections 4.3–4.6 of the paper):
//!
//! * `bloom` — bloom filters with O(words) union.
//! * [`graph`] — the dependency graph itself: slab node storage over interned slots,
//!   successor edges, per-node `anti_reachable` reachability sets, Algorithm 4's reachability
//!   maintenance, and the pair-wise cycle test used by Algorithm 2.
//! * `interner` — `TxnId` → dense `u32` slot interning with a free list; turns every hot
//!   path's hash lookups into `Vec` indexing.
//! * `visited` — epoch-tagged visited sets: O(1) clearing, allocation-free traversals.
//! * `topo` — deterministic topological ordering of the caller's pending set (Algorithm 3,
//!   line 1) in O(V + E) bitset-union work, ids without a node sorting as edge-free
//!   transactions, and topologically-ordered traversal used by Algorithm 5.
//! * `cycle` — exact (non-probabilistic) cycle detection used as a test oracle and for the
//!   bloom-vs-exact ablation.
//! * `prune` — `max_span` snapshot thresholds and age-based pruning (Section 4.6).
//! * `reference` — the retained naive-DFS implementation, kept as the equivalence oracle
//!   and bench baseline for the dense engine. Not for production use.
//! * `rebuild` — from-scratch reachability recomputation (called by tests only).
//!
//! The orderer (`fabricsharp-core`'s `FabricSharpCC`) holds one [`DependencyGraph`] and calls
//! it directly; the pending set `P` and the log of commits that bypassed the graph are its own.

#![forbid(unsafe_code)]

mod bloom;
mod cycle;
pub mod graph;
mod interner;
mod prune;
mod rebuild;
mod reference;
mod topo;
mod visited;

pub use bloom::BloomFilter;
pub use graph::{CycleCheck, DependencyGraph, InsertReport, ReachSet, TxnNode};
pub use prune::snapshot_threshold;
pub use reference::NaiveGraph;
