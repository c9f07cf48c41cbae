//! # eov-ledger
//!
//! The blockchain ledger substrate: a hash-chained sequence of blocks, each batching the
//! ordered transactions delivered by the ordering service, together with the per-transaction
//! validity flags set during the validation phase (Fabric marks invalid transactions in the
//! block rather than removing them, so the raw ledger throughput counts them too — this is
//! exactly the raw-vs-effective distinction of Figure 1).
//!
//! * [`mod@sha256`] — the dependency-free, one-shot SHA-256 behind every block hash: FIPS
//!   180-4's plain compression loop, and an x86-64 SHA-NI kernel chosen at run time when CPUID
//!   reports it.
//! * `block` — block headers, block bodies, and per-transaction commit flags.
//! * `chain` — the append-only hash-chained block store with integrity verification
//!   (the safety properties of Section 3.5: hash-chain integrity, no skipping, no creation);
//!   a durable ledger's blocks outside the live window are read back from disk on demand.
//! * `error` — the typed [`LedgerError`] every durable operation reports instead of
//!   panicking.
//! * [`codec`] — the deterministic big-endian binary codec + CRC-32 behind the disk formats;
//!   the CRC runs on a carry-less-multiply kernel when CPUID reports `pclmulqdq`, and on a
//!   byte-at-a-time table loop otherwise.
//! * `segment` — append-only, CRC-framed, size-rotated segment files holding the block
//!   records, with torn-tail repair on open.
//! * [`durable`] — [`durable::DurableLedger`] (segment files behind a [`Ledger`] mirror that
//!   keeps the last `max_span` blocks decoded) and the [`durable::LedgerBackend`] enum that
//!   keeps the in-memory ledger as the reference implementation.
//! * `checkpoint` — periodic multi-version-store snapshots cold recovery replays from.
//! * `recovery` — [`recover_from_disk`]: a restarted peer's persisted state, the reopened
//!   ledger and the store (newest valid checkpoint plus the replayed segment suffix). The
//!   orderer's concurrency state is not persisted; it is re-derived from the ledger.
//! * `reenact` — provenance queries joining a
//!   [`MultiVersionStore::read_at`](eov_vstore::MultiVersionStore::read_at) answer back to the
//!   committing transaction in the ledger.
//! * [`adversary`] — the Section 3.5 security model over the ordering service: leader
//!   policies (honest / front-running / equivocating), the hash-commitment mitigation that
//!   hides transaction contents until the order is fixed, and the fork audit that compares
//!   replicas' sealed block hashes.

pub mod adversary;
mod block;
mod chain;
mod checkpoint;
pub mod codec;
pub mod durable;
mod error;
mod recovery;
mod reenact;
mod segment;
pub mod sha256;

pub use block::{Block, BlockHeader, TxnEntry};
pub use chain::Ledger;
pub use checkpoint::write_checkpoint;
pub use durable::{DurableLedger, DurableOptions, LedgerBackend, OpenReport};
pub use error::LedgerError;
pub use recovery::{recover_from_disk, ColdRecovery};
pub use reenact::{provenance, Provenance};
pub use sha256::{sha256, Digest};
