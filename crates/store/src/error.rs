//! Typed failures for checkpoint I/O and decoding.
//!
//! A checkpoint is read from disk, so every byte is potentially hostile:
//! truncated by a crash, bit-flipped by a bad sector, or handed to the
//! wrong binary version. The decoder therefore never panics — every
//! structural violation maps to a variant here, and a partial load is
//! never returned.

use outage_core::ModelError;

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file-system failure.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic `POMS`.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not one this binary can read.
    UnsupportedVersion {
        /// The version actually found.
        found: u16,
    },
    /// The file ends before a structure it promised.
    Truncated {
        /// What was being read.
        context: &'static str,
        /// Bytes the structure needed.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// A CRC32 over the header or a section payload does not match.
    ChecksumMismatch {
        /// Which region failed ("header", "INDX", "CNTS", "HIST").
        region: &'static str,
        /// The checksum recorded in the file.
        expected: u32,
        /// The checksum of the bytes actually present.
        found: u32,
    },
    /// A field's value is structurally impossible (bad family byte,
    /// out-of-range prefix length, non-canonical address, trailing
    /// bytes, wrong section order, ...).
    Malformed {
        /// What rule the bytes violated.
        context: &'static str,
    },
    /// Sections decode individually but disagree with each other (the
    /// stored histories do not match histories rebuilt from the stored
    /// count arena — e.g. a checkpoint written by a binary whose
    /// derivation code differs from this one's).
    Inconsistent {
        /// What disagreed.
        context: &'static str,
    },
    /// A stored hourly count is larger than `u32::MAX`, the largest
    /// count a model holds in memory. The format stores `u64`, so such
    /// a file is well formed, but it cannot be loaded without changing
    /// the count.
    CountOverflow {
        /// Block id (row of the count arena) of the first such count.
        block: usize,
        /// Hour within the row.
        hour: usize,
        /// The count found.
        count: u64,
    },
    /// The decoded parts cannot form a [`outage_core::LearnedModel`].
    Model(ModelError),
    /// The checkpoint was learned under a different detector
    /// configuration than the one trying to warm-start from it.
    FingerprintMismatch {
        /// Fingerprint of the configuration in force.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        found: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a checkpoint: magic bytes {found:02x?}")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            StoreError::Truncated {
                context,
                need,
                have,
            } => write!(f, "truncated checkpoint: {context} needs {need} bytes, {have} left"),
            StoreError::ChecksumMismatch {
                region,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {region}: file says {expected:#010x}, bytes hash to {found:#010x}"
            ),
            StoreError::Malformed { context } => write!(f, "malformed checkpoint: {context}"),
            StoreError::Inconsistent { context } => {
                write!(f, "inconsistent checkpoint: {context}")
            }
            StoreError::CountOverflow { block, hour, count } => write!(
                f,
                "hourly count {count} (block {block}, hour {hour}) exceeds the in-memory limit {}",
                u32::MAX
            ),
            StoreError::Model(e) => write!(f, "checkpoint does not form a model: {e}"),
            StoreError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: detector is {expected:#018x}, checkpoint was learned under {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> StoreError {
        StoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StoreError::ChecksumMismatch {
            region: "INDX",
            expected: 1,
            found: 2,
        };
        let s = e.to_string();
        assert!(s.contains("INDX"), "{s}");
        let e = StoreError::FingerprintMismatch {
            expected: 0xAB,
            found: 0xCD,
        };
        assert!(e.to_string().contains("fingerprint"), "{e}");
    }
}
