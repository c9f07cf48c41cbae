//! Error types shared across the workspace.
//!
//! Errors are hand-rolled enums (no `thiserror`) to stay within the approved dependency list.

use std::fmt;

/// Result alias used by the substrate crates.
pub type Result<T> = std::result::Result<T, CommonError>;

/// Errors that can arise in the substrate layers (state store, ledger).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommonError {
    /// A requested block number does not exist in the ledger.
    BlockNotFound(u64),
    /// A snapshot that has already been pruned was requested.
    SnapshotPruned(u64),
    /// The hash chain failed an integrity check at the given block.
    ChainIntegrity { block: u64, detail: String },
    /// A configuration value is out of its valid range.
    InvalidConfig(String),
    /// Internal invariant violation; indicates a bug rather than a user error.
    Internal(String),
}

impl fmt::Display for CommonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommonError::BlockNotFound(b) => write!(f, "block not found: {b}"),
            CommonError::SnapshotPruned(b) => write!(f, "snapshot for block {b} has been pruned"),
            CommonError::ChainIntegrity { block, detail } => {
                write!(
                    f,
                    "hash chain integrity violation at block {block}: {detail}"
                )
            }
            CommonError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CommonError::Internal(msg) => write!(f, "internal invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for CommonError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_offending_entity() {
        assert!(CommonError::BlockNotFound(7).to_string().contains('7'));
        assert!(CommonError::SnapshotPruned(3).to_string().contains('3'));
        let e = CommonError::ChainIntegrity {
            block: 9,
            detail: "hash mismatch".into(),
        };
        assert!(e.to_string().contains("block 9"));
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn std::error::Error> = Box::new(CommonError::Internal("closed".into()));
        assert!(e.to_string().contains("closed"));
    }
}
