//! # eov-workload
//!
//! The benchmark workloads of the paper's evaluation:
//!
//! * [`zipf`] — a Zipfian index sampler (inverse-CDF over `1/i^θ` weights), used by the
//!   Figure 1 motivation experiment and the Figure 15 mixed workload.
//! * `contracts` — the single-key-update contract of Figure 1.
//! * [`smallbank`] — the Smallbank contract family: the original operation mix used in
//!   Section 5.4 and the modified 4-read/4-write transaction of Section 5.2.
//! * [`generator`] — workload generators parameterised exactly like Table 2 (hot ratios,
//!   client delay, read interval, request rate) and Section 5.4 (Create-Account and mixed
//!   workloads with Zipfian skew).
//! * `templates` — Vandevoort-style template-robustness analysis: classifies each
//!   template in a workload's mix as safe (provably cycle-free) or unknown; the orderer's
//!   template fast path lets every safe-tagged transaction bypass its dependency graph. It is
//!   the workspace's only static classifier: every instance of a template gets its template's
//!   verdict.

mod contracts;
pub mod generator;
pub mod smallbank;
mod templates;
mod ycsb;
pub mod zipf;

pub use generator::{TxnTemplate, WorkloadGenerator, WorkloadKind};
pub use ycsb::{YcsbOp, YcsbProfile, YcsbTxn};
