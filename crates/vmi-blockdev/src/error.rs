//! Error type shared by all block devices and image formats.

use std::fmt;

/// Result alias for block-device operations.
pub type Result<T> = std::result::Result<T, BlockError>;

/// Classification of a block-device failure.
///
/// `NoSpace` is load-bearing for the paper's design: when a cache image's
/// quota is exhausted, its `write` path "return[s] with a space error that is
/// handled at the read function" (§4.3) — the read path then stops warming
/// the cache but keeps serving the guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockErrorKind {
    /// Access outside the device's current length.
    OutOfBounds,
    /// The device (or an image quota) has no room left for the write.
    NoSpace,
    /// Write attempted on a read-only device or image.
    ReadOnly,
    /// On-device data failed structural validation (bad magic, bad table...).
    Corrupt,
    /// Operation not supported by this device/format.
    Unsupported,
    /// Underlying host I/O failure.
    Io,
    /// A fault injected by [`crate::FaultDev`] for testing.
    Injected,
}

impl BlockErrorKind {
    /// Human-readable tag used in error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            BlockErrorKind::OutOfBounds => "out of bounds",
            BlockErrorKind::NoSpace => "no space",
            BlockErrorKind::ReadOnly => "read-only",
            BlockErrorKind::Corrupt => "corrupt",
            BlockErrorKind::Unsupported => "unsupported",
            BlockErrorKind::Io => "i/o error",
            BlockErrorKind::Injected => "injected fault",
        }
    }
}

/// A block-device error: a [`BlockErrorKind`] plus human-oriented context.
#[derive(Debug, Clone)]
pub struct BlockError {
    kind: BlockErrorKind,
    context: String,
}

impl BlockError {
    /// Create an error of `kind` with a free-form `context` message.
    pub fn new(kind: BlockErrorKind, context: impl Into<String>) -> Self {
        Self {
            kind,
            context: context.into(),
        }
    }

    /// Shorthand for [`BlockErrorKind::OutOfBounds`].
    pub fn out_of_bounds(off: u64, len: usize, dev_len: u64) -> Self {
        Self::new(
            BlockErrorKind::OutOfBounds,
            format!("access [{off}, {off}+{len}) beyond device length {dev_len}"),
        )
    }

    /// Shorthand for [`BlockErrorKind::NoSpace`] — the cache-quota space error.
    pub fn no_space(context: impl Into<String>) -> Self {
        Self::new(BlockErrorKind::NoSpace, context)
    }

    /// Shorthand for [`BlockErrorKind::ReadOnly`].
    pub fn read_only(context: impl Into<String>) -> Self {
        Self::new(BlockErrorKind::ReadOnly, context)
    }

    /// Shorthand for [`BlockErrorKind::Corrupt`].
    pub fn corrupt(context: impl Into<String>) -> Self {
        Self::new(BlockErrorKind::Corrupt, context)
    }

    /// Shorthand for [`BlockErrorKind::Unsupported`].
    pub fn unsupported(context: impl Into<String>) -> Self {
        Self::new(BlockErrorKind::Unsupported, context)
    }

    /// The failure classification.
    pub fn kind(&self) -> BlockErrorKind {
        self.kind
    }

    /// `true` iff this is the quota space error the CoR read path handles.
    pub fn is_no_space(&self) -> bool {
        self.kind == BlockErrorKind::NoSpace
    }

    /// The contextual message.
    pub fn context(&self) -> &str {
        &self.context
    }
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.context)
    }
}

impl std::error::Error for BlockError {}

impl From<std::io::Error> for BlockError {
    fn from(e: std::io::Error) -> Self {
        BlockError::new(BlockErrorKind::Io, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_and_context() {
        let e = BlockError::no_space("cache quota exhausted");
        assert_eq!(e.to_string(), "no space: cache quota exhausted");
        assert!(e.is_no_space());
    }

    #[test]
    fn out_of_bounds_formats_range() {
        let e = BlockError::out_of_bounds(100, 16, 64);
        assert_eq!(e.kind(), BlockErrorKind::OutOfBounds);
        assert!(e.context().contains("[100, 100+16)"));
        assert!(!e.is_no_space());
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("boom");
        let e: BlockError = io.into();
        assert_eq!(e.kind(), BlockErrorKind::Io);
    }

    #[test]
    fn kind_strings_are_distinct() {
        use BlockErrorKind::*;
        let kinds = [
            OutOfBounds,
            NoSpace,
            ReadOnly,
            Corrupt,
            Unsupported,
            Io,
            Injected,
        ];
        let strs: std::collections::HashSet<_> = kinds.iter().map(|k| k.as_str()).collect();
        assert_eq!(strs.len(), kinds.len());
    }
}
