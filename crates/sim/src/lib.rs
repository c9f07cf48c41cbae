//! # eov-sim
//!
//! A deterministic discrete-event simulator of the execute-order-validate pipeline, standing
//! in for the paper's Fabric / FastFabric testbed (see the README's "One thread per layer" for
//! the substitution argument). The five concurrency-control systems are the *real*
//! implementations from `fabricsharp-core` and `eov-baselines`, and the work is done by the same
//! `eov_baselines::SimpleChain` node the examples and tests drive (execute, endorsement check,
//! arrival, cut, commit). The simulator only supplies time: request rates, endorsement latency
//! (including the read-interval model), client delay, consensus latency, block formation, the
//! modelled reordering cost, and the validation bottleneck.
//!
//! * `profiles` — calibrated per-phase costs (Fabric ≈677 raw tps, FastFabric ≈3100 raw tps).
//! * `events` — simulated time, events, deterministic event queue.
//! * [`runner`] — the event loop ([`runner::Simulator`]) and [`runner::SimulationConfig`].
//! * `metrics` — [`SimReport`]: raw/effective throughput, latency, abort breakdown,
//!   block span, reachability hops, and the measured wall-clock of arrival, formation and
//!   commit. The concurrency controls keep no clock: the simulator times each
//!   `arrive` / `cut` / `commit` call around the call, the same way for all five systems.

mod events;
mod metrics;
mod profiles;
pub mod runner;

pub use metrics::{FormationTiming, SimReport};
pub use profiles::PipelineProfile;
pub use runner::{SimulationConfig, Simulator};
