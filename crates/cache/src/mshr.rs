//! Miss-status holding registers (MSHRs).

use std::error::Error;
use std::fmt;

use crate::LineAddr;

/// Errors from MSHR allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrError {
    /// All MSHRs are in use; the miss must stall.
    Full,
}

impl fmt::Display for MshrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MshrError::Full => f.write_str("all MSHRs in use"),
        }
    }
}

impl Error for MshrError {}

/// One register slot. Freed slots keep their `waiters` vector so its
/// buffer is recycled by the next allocation (no per-miss allocation
/// once the file has warmed up).
#[derive(Debug, Clone)]
struct Slot<W> {
    line: LineAddr,
    active: bool,
    waiters: Vec<W>,
}

/// A file of miss-status holding registers with secondary-miss merging.
///
/// A *primary* miss allocates an entry and triggers a bus request; a
/// *secondary* miss to the same line merges into the existing entry and
/// waits for the same fill. `W` is the waiter token type (thread ids in
/// this simulator).
///
/// The file is a fixed slab of `capacity` slots searched linearly — a
/// hardware MSHR file is a handful of CAM entries, and at that size a
/// linear tag compare beats any hash map.
///
/// # Example
///
/// ```
/// use cmpsim_cache::{MshrFile, LineAddr};
///
/// let mut mshrs: MshrFile<u32> = MshrFile::new(4);
/// let line = LineAddr::new(7);
/// assert!(mshrs.allocate(line, 0).unwrap()); // primary
/// assert!(!mshrs.allocate(line, 1).unwrap()); // secondary, merged
/// let waiters = mshrs.complete(line).unwrap();
/// assert_eq!(waiters, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile<W> {
    slots: Vec<Slot<W>>,
    len: usize,
    /// Highest simultaneous occupancy seen (for sizing studies).
    high_water: usize,
}

impl<W> MshrFile<W> {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file must have at least one register");
        MshrFile {
            slots: (0..capacity)
                .map(|_| Slot {
                    line: LineAddr::new(0),
                    active: false,
                    waiters: Vec::new(),
                })
                .collect(),
            len: 0,
            high_water: 0,
        }
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        self.slots.iter().position(|s| s.active && s.line == line)
    }

    /// Registers a miss on `line` by `waiter`.
    ///
    /// Returns `Ok(true)` for a primary miss (caller must issue the bus
    /// request), `Ok(false)` for a merged secondary miss.
    ///
    /// # Errors
    ///
    /// [`MshrError::Full`] when the miss would need a new register and
    /// none is free: the cache must stall the request.
    pub fn allocate(&mut self, line: LineAddr, waiter: W) -> Result<bool, MshrError> {
        if let Some(i) = self.find(line) {
            self.slots[i].waiters.push(waiter);
            return Ok(false);
        }
        if self.len >= self.slots.len() {
            return Err(MshrError::Full);
        }
        let slot = self
            .slots
            .iter_mut()
            .find(|s| !s.active)
            .expect("len < capacity implies a free slot");
        slot.line = line;
        slot.active = true;
        slot.waiters.clear();
        slot.waiters.push(waiter);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        Ok(true)
    }

    /// Completes the miss on `line`, appending all merged waiters to
    /// `out` (which is *not* cleared first). Returns `true` when an MSHR
    /// was outstanding for the line.
    ///
    /// This is the allocation-free form of [`complete`](Self::complete):
    /// the register's waiter buffer stays in the slab for reuse and the
    /// caller recycles its own scratch vector.
    pub fn complete_into(&mut self, line: LineAddr, out: &mut Vec<W>) -> bool {
        match self.find(line) {
            Some(i) => {
                let slot = &mut self.slots[i];
                slot.active = false;
                out.append(&mut slot.waiters);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Completes the miss on `line`, returning all merged waiters.
    ///
    /// Returns `None` when no MSHR is outstanding for the line.
    pub fn complete(&mut self, line: LineAddr) -> Option<Vec<W>> {
        let mut out = Vec::new();
        self.complete_into(line, &mut out).then_some(out)
    }

    /// `true` when a miss on `line` is already outstanding.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Number of registers currently in use.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no registers are in use.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Highest simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.allocate(LineAddr::new(1), 10), Ok(true));
        assert_eq!(m.allocate(LineAddr::new(1), 11), Ok(false));
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(LineAddr::new(1)), Some(vec![10, 11]));
        assert!(m.is_empty());
    }

    #[test]
    fn full_file_stalls() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(2), 0).unwrap();
        assert_eq!(m.allocate(LineAddr::new(3), 0), Err(MshrError::Full));
        // Secondary to an existing line still merges even when full.
        assert_eq!(m.allocate(LineAddr::new(2), 1), Ok(false));
    }

    #[test]
    fn complete_unknown_is_none() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert_eq!(m.complete(LineAddr::new(9)), None);
        let mut scratch = Vec::new();
        assert!(!m.complete_into(LineAddr::new(9), &mut scratch));
        assert!(scratch.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 0).unwrap();
        m.allocate(LineAddr::new(2), 0).unwrap();
        m.allocate(LineAddr::new(3), 0).unwrap();
        m.complete(LineAddr::new(1));
        m.complete(LineAddr::new(2));
        assert_eq!(m.high_water(), 3);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn contains_reflects_outstanding() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        assert!(!m.contains(LineAddr::new(5)));
        m.allocate(LineAddr::new(5), 0).unwrap();
        assert!(m.contains(LineAddr::new(5)));
        m.complete(LineAddr::new(5));
        assert!(!m.contains(LineAddr::new(5)));
    }

    #[test]
    fn slots_recycle_after_complete() {
        let mut m: MshrFile<u32> = MshrFile::new(2);
        let mut scratch = Vec::new();
        for round in 0..100 {
            m.allocate(LineAddr::new(round), 0).unwrap();
            m.allocate(LineAddr::new(round), 1).unwrap();
            assert!(m.complete_into(LineAddr::new(round), &mut scratch));
            assert_eq!(scratch, vec![0, 1]);
            scratch.clear();
            assert!(m.is_empty());
        }
        assert_eq!(m.high_water(), 1);
    }

    #[test]
    fn complete_into_appends() {
        let mut m: MshrFile<u32> = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 7).unwrap();
        let mut out = vec![99];
        assert!(m.complete_into(LineAddr::new(1), &mut out));
        assert_eq!(out, vec![99, 7]);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_panics() {
        let _m: MshrFile<u32> = MshrFile::new(0);
    }
}
