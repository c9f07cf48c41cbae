//! # eov-ledger
//!
//! The blockchain ledger substrate: a hash-chained sequence of blocks, each batching the
//! ordered transactions delivered by the ordering service, together with the per-transaction
//! validity flags set during the validation phase (Fabric marks invalid transactions in the
//! block rather than removing them, so the raw ledger throughput counts them too — this is
//! exactly the raw-vs-effective distinction of Figure 1).
//!
//! * [`sha256`] — a dependency-free SHA-256 implementation used for block hashing.
//! * [`block`] — block headers, block bodies, and per-transaction commit flags.
//! * [`chain`] — the append-only hash-chained block store with integrity verification
//!   (the safety properties of Section 3.5: hash-chain integrity, no skipping, no creation).
//! * [`error`] — the typed [`error::LedgerError`] every durable operation reports instead of
//!   panicking.
//! * [`codec`] — the deterministic big-endian binary codec + CRC-32 behind the disk formats.
//! * [`segment`] — append-only, CRC-framed, size-rotated segment files holding the block
//!   records, with torn-tail repair on open.
//! * [`durable`] — [`durable::DurableLedger`] (segment files mirroring an in-memory
//!   [`Ledger`]) and the [`durable::LedgerBackend`] enum that keeps the in-memory ledger as
//!   the reference implementation.
//! * [`checkpoint`] — periodic multi-version-store snapshots cold recovery replays from.
//! * [`reenact`] — provenance queries joining a [`eov_vstore::TimeTravel`] answer back to the
//!   committing transaction in the ledger.

#![forbid(unsafe_code)]

pub mod block;
pub mod chain;
pub mod checkpoint;
pub mod codec;
pub mod durable;
pub mod error;
pub mod reenact;
pub mod segment;
pub mod sha256;

pub use block::{Block, BlockHeader, TxnEntry};
pub use chain::Ledger;
pub use checkpoint::{
    discard_unusable_checkpoints, latest_checkpoint_at_most, load_checkpoint, write_checkpoint,
};
pub use durable::{DurableLedger, DurableOptions, LedgerBackend, OpenReport};
pub use error::LedgerError;
pub use reenact::{provenance, Provenance};
pub use segment::TornTail;
pub use sha256::{sha256, Digest, Sha256};
