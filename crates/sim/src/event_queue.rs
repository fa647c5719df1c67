//! The event list: a priority queue of `(SimTime, E)` pairs with
//! deterministic FIFO tie-breaking.
//!
//! `std::collections::BinaryHeap` alone is not deterministic for equal keys,
//! so every pushed event carries a monotonically increasing sequence number;
//! two events scheduled for the same instant pop in push order. This is the
//! property that makes whole cluster runs reproducible from a seed.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A single scheduled entry (internal).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use agp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    /// Largest timestamp ever popped; used to detect scheduling into the past.
    watermark: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling earlier than the last popped timestamp would mean
    /// time-travel; that is a simulation bug, so it panics in debug builds
    /// and is clamped to the watermark in release builds (the run stays
    /// causally consistent either way).
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.watermark,
            "event scheduled at {at} which is before current time {}",
            self.watermark
        );
        let at = at.max(self.watermark);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event, advancing the internal
    /// watermark to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = self.heap.pop()?;
        self.watermark = e.at;
        Some((e.at, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Every pending event with its timestamp, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> + '_ {
        self.heap.iter().map(|e| (e.at, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The largest timestamp popped so far (the simulation "now" from the
    /// queue's perspective).
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Drop all pending events without resetting the watermark or the
    /// sequence counter (so determinism is preserved across a clear).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_secs(s), s);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(10);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(3), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(4), ());
        assert_eq!(q.watermark(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.watermark(), SimTime::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    #[cfg(debug_assertions)]
    fn scheduling_into_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), ());
        q.pop();
        q.push(SimTime::from_secs(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2) + SimDur::from_ms(1), 42);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(2_001_000)));
        assert_eq!(
            q.iter().collect::<Vec<_>>(),
            [(SimTime::from_us(2_001_000), &42)]
        );
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
    }
}
