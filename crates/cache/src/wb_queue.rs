//! The bounded per-cache write-back (castout) queue.

use std::collections::VecDeque;

use crate::LineAddr;

/// One pending write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbEntry {
    /// The victimized line.
    pub line: LineAddr,
    /// `true` for a dirty castout (must reach the L3 or a peer), `false`
    /// for a clean write-back (a performance optimization only).
    pub dirty: bool,
}

/// A bounded FIFO of write-backs awaiting the intrachip ring.
///
/// The paper uses an eight-entry queue and notes that consulting the WBHT
/// happens *after* the victim enters this queue — off the miss critical
/// path — and that a full queue blocks further L2 misses (§2.1). The
/// queue is snoopable: a request for a line sitting here is serviced from
/// the queue (the line is still logically owned by this cache).
///
/// # Example
///
/// ```
/// use cmpsim_cache::{WriteBackQueue, WbEntry, LineAddr};
///
/// let mut q = WriteBackQueue::new(8);
/// assert!(q.push(WbEntry { line: LineAddr::new(3), dirty: true }));
/// assert_eq!(q.pop().map(|e| e.line), Some(LineAddr::new(3)));
/// ```
#[derive(Debug, Clone)]
pub struct WriteBackQueue {
    capacity: usize,
    entries: VecDeque<WbEntry>,
    high_water: usize,
}

impl WriteBackQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write-back queue needs capacity > 0");
        WriteBackQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            high_water: 0,
        }
    }

    /// Enqueues a write-back. Returns `false` when the queue is full —
    /// the cache must block the triggering miss.
    pub fn push(&mut self, e: WbEntry) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push_back(e);
        self.high_water = self.high_water.max(self.entries.len());
        true
    }

    /// Dequeues the oldest write-back.
    pub fn pop(&mut self) -> Option<WbEntry> {
        self.entries.pop_front()
    }

    /// Peeks at the oldest write-back without removing it.
    pub fn front(&self) -> Option<&WbEntry> {
        self.entries.front()
    }

    /// Snoop: is `line` sitting in the queue?
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Snoop: the queued entry for `line`, if any.
    #[inline]
    pub fn get(&self, line: LineAddr) -> Option<&WbEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// The `k`-th oldest entry (0 = front), if any.
    pub fn nth(&self, k: usize) -> Option<&WbEntry> {
        self.entries.get(k)
    }

    /// Removes a specific line (e.g. squashed by a snoop response),
    /// returning its entry.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<WbEntry> {
        let idx = self.entries.iter().position(|e| e.line == line)?;
        self.entries.remove(idx)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when at capacity (misses must block).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(line: u64, dirty: bool) -> WbEntry {
        WbEntry {
            line: LineAddr::new(line),
            dirty,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        assert_eq!(q.pop(), Some(e(1, true)));
        assert_eq!(q.pop(), Some(e(2, false)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = WriteBackQueue::new(2);
        assert!(q.push(e(1, true)));
        assert!(q.push(e(2, true)));
        assert!(q.is_full());
        assert!(!q.push(e(3, true)));
        q.pop();
        assert!(q.push(e(3, true)));
    }

    #[test]
    fn snoop_and_remove() {
        let mut q = WriteBackQueue::new(4);
        q.push(e(1, true));
        q.push(e(2, false));
        q.push(e(3, true));
        assert!(q.contains(LineAddr::new(2)));
        assert_eq!(q.remove(LineAddr::new(2)), Some(e(2, false)));
        assert!(!q.contains(LineAddr::new(2)));
        assert_eq!(q.len(), 2);
        // FIFO order preserved after mid-removal.
        assert_eq!(q.pop(), Some(e(1, true)));
        assert_eq!(q.pop(), Some(e(3, true)));
    }

    #[test]
    fn high_water_and_counts() {
        let mut q = WriteBackQueue::new(8);
        for i in 0..5 {
            q.push(e(i, false));
        }
        q.pop();
        q.pop();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&e(2, false)));
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_panics() {
        let _ = WriteBackQueue::new(0);
    }
}
