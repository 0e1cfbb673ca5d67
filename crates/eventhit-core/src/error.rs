//! The crate's typed error vocabulary.
//!
//! Fallible paths (model persistence, stream marshalling, conformal
//! fitting, predictor state restore) return [`CoreError`] instead of
//! panicking, so corrupt files and malformed inputs surface as values a
//! caller can branch on. Hand-rolled on `std` only — the workspace is
//! hermetic, so no `thiserror`.

use std::fmt;
use std::io;

/// Everything that can go wrong inside `eventhit-core`.
#[derive(Debug)]
pub enum CoreError {
    /// An underlying I/O failure (model persistence).
    Io(io::Error),
    /// A persisted model file is malformed or from an unknown version.
    ModelFormat(&'static str),
    /// A persisted payload's checksum does not match its contents — the
    /// file was corrupted (or truncated mid-payload) after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the file header.
        expected: u32,
        /// Checksum computed over the payload actually read.
        got: u32,
    },
    /// A record's per-event vectors disagree with the fitted state.
    ShapeMismatch {
        /// What was being validated (e.g. `"record scores"`).
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Observed length.
        got: usize,
    },
    /// A restored predictor state disagrees with its own anchor cadence:
    /// the rows it buffers or the countdown it carries are not what
    /// feeding its `frames_seen` frames leaves.
    CadenceMismatch {
        /// What disagreed (`"restored window rows"` or
        /// `"restored countdown"`).
        what: &'static str,
        /// The value `frames_seen` implies.
        expected: u64,
        /// The value the state carries.
        got: u64,
    },
    /// A configuration value is outside its valid domain.
    InvalidConfig(String),
    /// A dataset split came out empty (scale too small for the stride).
    EmptySplit {
        /// Task id whose split collapsed.
        task: String,
    },
    /// A marshalling range does not leave room for the collection window.
    WindowUnderflow {
        /// Requested start frame.
        from: u64,
        /// Collection-window size.
        window: usize,
    },
    /// A marshalling range runs past the end of the stream.
    StreamBounds {
        /// Requested end frame (exclusive).
        to: u64,
        /// Stream length.
        len: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Io(e) => write!(f, "i/o error: {e}"),
            CoreError::ModelFormat(msg) => write!(f, "bad model file: {msg}"),
            CoreError::ChecksumMismatch { expected, got } => write!(
                f,
                "checksum mismatch: header says {expected:#010x}, payload hashes to {got:#010x}"
            ),
            CoreError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch in {what}: expected {expected}, got {got}"
            ),
            CoreError::CadenceMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} off the anchor cadence: expected {expected}, got {got}"
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::EmptySplit { task } => {
                write!(f, "{task}: empty split (scale too small?)")
            }
            CoreError::WindowUnderflow { from, window } => write!(
                f,
                "marshal range starts at frame {from}, before a full {window}-frame window"
            ),
            CoreError::StreamBounds { to, len } => {
                write!(
                    f,
                    "marshal range ends at frame {to}, beyond stream length {len}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CoreError {
    fn from(e: io::Error) -> Self {
        CoreError::Io(e)
    }
}

/// Shorthand used throughout the crate.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::ShapeMismatch {
            what: "record scores",
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains("record scores"));
        assert!(e.to_string().contains("expected 3"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let inner = io::Error::new(io::ErrorKind::UnexpectedEof, "short read");
        let e: CoreError = inner.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("short read"));
    }

    #[test]
    fn non_io_errors_have_no_source() {
        let e = CoreError::InvalidConfig("stride = 0".into());
        assert!(std::error::Error::source(&e).is_none());
    }
}
