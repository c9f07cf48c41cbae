//! # eov-depgraph
//!
//! The transaction dependency graph substrate behind FabricSharp's fine-grained concurrency
//! control (Sections 4.3–4.6 of the paper):
//!
//! * `bloom` — bloom filters with O(words) union: every node's one reach set.
//! * [`graph`] — the dependency graph itself: slab node storage over interned slots,
//!   successor edges, per-node `anti_reachable` bloom filters, Algorithm 4's reachability
//!   maintenance, the pair-wise cycle test used by Algorithm 2, and the one exact pairwise
//!   reachability probe, a DFS over the successor edges.
//! * `interner` — `TxnId` → dense `u32` slot interning with a free list; turns every hot
//!   path's hash lookups into `Vec` indexing.
//! * `visited` — epoch-tagged visited sets: O(1) clearing, allocation-free traversals.
//! * `topo` — deterministic topological ordering of the caller's pending set (Algorithm 3,
//!   line 1) in O(V + E) bitset-union work, ids without a node sorting as edge-free
//!   transactions, and topologically-ordered traversal used by Algorithm 5.
//! * `cycle` — exact (non-probabilistic) cycle detection over the successor edges:
//!   whole-graph acyclicity for tests, and the exact arrival probe `depgraph_bench` times
//!   against the bloom one.
//! * `prune` — `max_span` snapshot thresholds and age-based pruning (Section 4.6).
//! * `rebuild` — from-scratch reachability recomputation (compiled for tests only).
//!
//! The orderer (`fabricsharp-core`'s `FabricSharpCC`) holds one [`DependencyGraph`] and calls
//! it directly; the pending set `P` and the log of commits that bypassed the graph are its own.

mod bloom;
mod cycle;
pub mod graph;
mod interner;
mod prune;
#[cfg(test)]
mod rebuild;
mod topo;
mod visited;

pub use bloom::BloomFilter;
pub use graph::{DependencyGraph, InsertReport, TxnNode};
pub use prune::snapshot_threshold;
