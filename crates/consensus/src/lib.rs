//! # eov-consensus
//!
//! The Section 3.5 security model on top of the ordering service. Ordering itself is the
//! paper's Kafka stream, modelled by the simulator's count-or-timeout block cut; this crate
//! adds only what a Byzantine leader changes:
//!
//! * [`adversary`] — leader policies (honest / front-running / equivocating), the
//!   hash-commitment mitigation that hides transaction contents until the order is fixed, and
//!   the fork audit that compares replicas' sealed block hashes.

#![forbid(unsafe_code)]

pub mod adversary;

pub use adversary::{
    audit_fork, ClientSubmission, EquivocatingLeader, ForkVerdict, FrontRunningLeader,
    HonestLeader, LeaderPolicy,
};
