//! Typed errors for the durable ledger substrate.
//!
//! Everything that can go wrong reading or writing the on-disk chain of record is a
//! [`LedgerError`], never a panic: a restarted orderer must be able to *report* a corrupt
//! segment or checkpoint and fall back (older checkpoint, shorter replay, operator
//! intervention) instead of crash-looping. Chain-rule violations surface the existing
//! [`CommonError::ChainIntegrity`] machinery unchanged via [`LedgerError::Chain`].

use eov_common::error::CommonError;
use std::fmt;
use std::path::PathBuf;

/// Errors from the durable ledger: segment files, checkpoints, and the chain rules.
#[derive(Clone, Debug)]
pub enum LedgerError {
    /// A chain-rule violation (no-skipping, broken hash link, body/data-hash mismatch) or any
    /// other error from the in-memory reference machinery.
    Chain(CommonError),
    /// An I/O failure on a ledger file or directory.
    Io {
        /// Path of the file or directory the operation touched.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        detail: String,
    },
    /// A record that fails CRC or structural decoding *before* the tail of the last segment —
    /// i.e. corruption that cannot be explained as a torn trailing write and is therefore
    /// never silently truncated.
    CorruptRecord {
        /// The segment file holding the bad record.
        segment: PathBuf,
        /// Byte offset of the record inside the segment file.
        offset: u64,
        /// What failed (CRC mismatch, impossible length, undecodable payload, bad header).
        detail: String,
    },
    /// A checkpoint file that fails its magic, CRC or structural decoding. Recovery treats
    /// individual corrupt checkpoints as skippable (it falls back to an older one); this error
    /// is returned when a checkpoint is loaded *directly*, or when checkpoints exist and none
    /// of them loads (there is then no sound state to replay onto).
    CorruptCheckpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// What failed.
        detail: String,
    },
    /// A failed append left bytes at the end of its segment that could not be cut back off.
    /// Appending behind them would bury every later record under unreadable bytes, so the
    /// writer refuses every append from then on; reopening the directory repairs the tail
    /// (the partial record reads back as a torn write).
    WriterPoisoned {
        /// The segment holding the partial record.
        segment: PathBuf,
        /// Bytes of whole records the segment should have been cut back to.
        valid_len: u64,
        /// Why cutting it back failed.
        detail: String,
    },
    /// A payload too large for its frame: a record above the scanner's sanity cap (which
    /// would read back as a torn tail and be truncated) or a checkpoint whose length does not
    /// fit the `u32` length field. Rejected before any byte is written.
    PayloadTooLarge {
        /// What was being framed (`"record"` or `"checkpoint"`).
        what: &'static str,
        /// The payload's length in bytes.
        len: u64,
        /// The largest length the frame can carry.
        max: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Chain(e) => write!(f, "chain error: {e}"),
            LedgerError::Io { path, detail } => {
                write!(f, "ledger i/o error on {}: {detail}", path.display())
            }
            LedgerError::CorruptRecord {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt record in {} at byte {offset}: {detail}",
                segment.display()
            ),
            LedgerError::CorruptCheckpoint { path, detail } => {
                write!(f, "corrupt checkpoint {}: {detail}", path.display())
            }
            LedgerError::WriterPoisoned {
                segment,
                valid_len,
                detail,
            } => write!(
                f,
                "segment {} holds a partial record past byte {valid_len} that could not be \
                 cut back off ({detail}); appends are refused until the ledger is reopened",
                segment.display()
            ),
            LedgerError::PayloadTooLarge { what, len, max } => {
                write!(
                    f,
                    "{what} payload of {len} bytes exceeds the {max}-byte frame limit"
                )
            }
        }
    }
}

impl std::error::Error for LedgerError {}

impl From<CommonError> for LedgerError {
    fn from(e: CommonError) -> Self {
        LedgerError::Chain(e)
    }
}

impl LedgerError {
    /// Wraps an I/O error with the path it occurred on.
    pub(crate) fn io(path: impl Into<PathBuf>, e: std::io::Error) -> Self {
        LedgerError::Io {
            path: path.into(),
            detail: e.to_string(),
        }
    }
}
