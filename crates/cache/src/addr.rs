//! Physical addresses and cache-line numbers.

use std::fmt;

/// A physical byte address.
///
/// # Example
///
/// ```
/// use cmpsim_cache::Addr;
///
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(128).raw(), 0x1234 / 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Wraps a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache-line number this address falls in, for a given line size.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn line(self, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        LineAddr(self.0 >> line_bytes.trailing_zeros())
    }

    /// Byte offset within its cache line.
    pub fn offset(self, line_bytes: u64) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        self.0 & (line_bytes - 1)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line number (byte address divided by the line size).
///
/// The whole simulator operates at line granularity; [`LineAddr`] is the
/// universal currency between caches, the ring, the L3, and the history
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Wraps a raw line number.
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(raw: u64) -> Self {
        LineAddr(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        let a = Addr::new(0x1080);
        assert_eq!(a.line(128), LineAddr::new(0x21));
        assert_eq!(a.offset(128), 0);
        let b = Addr::new(0x10FF);
        assert_eq!(b.line(128), LineAddr::new(0x21));
        assert_eq!(b.offset(128), 0x7F);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(LineAddr::new(16).to_string(), "L0x10");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
    }

    #[test]
    fn conversions() {
        assert_eq!(Addr::from(5u64).raw(), 5);
        assert_eq!(LineAddr::from(6u64).raw(), 6);
    }
}
