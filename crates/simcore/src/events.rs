//! A time-ordered event queue with stable FIFO tie-breaking.
//!
//! `std::collections::BinaryHeap` is a max-heap with unspecified ordering
//! among equal keys; a simulator needs a *min*-heap where events scheduled
//! for the same instant pop in insertion order, otherwise runs are not
//! reproducible. [`EventQueue`] wraps the heap with a reversed key and a
//! monotonically increasing sequence number.
//!
//! # The ordering contract (pinned)
//!
//! Every scheduler behind [`EventSched`] pops events in ascending
//! `(timestamp, sequence number)` order, where the sequence number is the
//! **global arrival order across the whole run** — not per timestamp, not
//! per call site. Two consequences that downstream code depends on:
//!
//! * **FIFO within a cycle.** Events scheduled for the same instant pop in
//!   the order `schedule_at`/`schedule_after` was called, even when the
//!   calls are interleaved with pops of that same instant. Same-cycle
//!   batching and multi-seed lane sharing both assume this: a controller
//!   wake scheduled *while* a cycle's batch is being dispatched must run
//!   after the events that were already pending for that cycle.
//! * **Determinism across implementations.** [`EventQueue`] (this binary
//!   heap) is the oracle; [`crate::CalendarQueue`] must produce the exact
//!   same pop sequence for any schedule (pinned by the lockstep proptest in
//!   `tests/calendar_oracle.rs`), which is what makes a whole simulation
//!   run report the same under either scheduler.
//!
//! `ties_break_fifo` and `ties_break_fifo_across_interleaved_pops` below are
//! the regression tests for the first point.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The scheduler contract of the simulation kernel: a deterministic
/// min-priority queue over `(time, global arrival order)`.
///
/// See the module docs for the pinned ordering contract. Implementations:
/// [`EventQueue`] (binary heap, the oracle) and [`crate::CalendarQueue`]
/// (bucketed calendar queue, the fast path).
pub trait EventSched<E> {
    /// The current simulation time: the timestamp of the last popped event
    /// (or zero before any pop).
    fn now(&self) -> SimTime;

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality
    /// violation, always a simulator bug).
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` `delay` cycles after the current time.
    #[inline]
    fn schedule_after(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now() + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// Timestamp of the next event without popping it.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether the queue is empty.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of pending events over the queue's lifetime.
    fn max_len(&self) -> usize;
}

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
        // Reversed: the BinaryHeap is a max-heap, we want earliest first,
        // then lowest sequence number. The seq tie-break is what pins FIFO
        // order within a cycle (see the module docs) — `seq` is assigned
        // from a run-global counter at schedule time, so insertion order is
        // total even across pops of the same instant.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    max_len: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            max_len: 0,
        }
    }

    /// The current simulation time: the timestamp of the last popped event
    /// (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time (causality violation,
    /// always a simulator bug).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        if self.heap.len() > self.max_len {
            self.max_len = self.heap.len();
        }
    }

    /// Schedules `event` `delay` cycles after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: u64, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue ordering violated");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of pending events over the queue's lifetime — a
    /// cheap proxy for how much in-flight work the simulation carried.
    #[inline]
    pub fn max_len(&self) -> usize {
        self.max_len
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventSched<E> for EventQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }
    #[inline]
    fn schedule_at(&mut self, at: SimTime, event: E) {
        EventQueue::schedule_at(self, at, event);
    }
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    #[inline]
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    #[inline]
    fn max_len(&self) -> usize {
        EventQueue::max_len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn ties_break_fifo_across_interleaved_pops() {
        // The pinned contract (module docs): seq is the *global* arrival
        // order, so an event scheduled for the current instant while that
        // instant is being drained pops after everything already pending
        // for it — exactly the "controller wake scheduled mid-batch" shape
        // that same-cycle batching relies on.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(7), "a");
        q.schedule_at(SimTime(7), "b");
        assert_eq!(q.pop(), Some((SimTime(7), "a")));
        q.schedule_at(SimTime(7), "c"); // arrives mid-drain of cycle 7
        q.schedule_at(SimTime(7), "d");
        assert_eq!(q.pop(), Some((SimTime(7), "b")));
        assert_eq!(q.pop(), Some((SimTime(7), "c")));
        q.schedule_at(SimTime(7), "e");
        assert_eq!(q.pop(), Some((SimTime(7), "d")));
        assert_eq!(q.pop(), Some((SimTime(7), "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(10));
        q.schedule_after(5, ());
        assert_eq!(q.peek_time(), Some(SimTime(15)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), 1);
        q.schedule_at(SimTime(100), 100);
        assert_eq!(q.pop().unwrap().1, 1);
        // Scheduling between pending events is fine.
        q.schedule_at(SimTime(50), 50);
        q.schedule_at(SimTime(50), 51);
        assert_eq!(q.pop().unwrap().1, 50);
        assert_eq!(q.pop().unwrap().1, 51);
        assert_eq!(q.pop().unwrap().1, 100);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), 0);
        q.schedule_at(SimTime(2), 0);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn max_len_is_a_high_water_mark() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.max_len(), 0);
        q.schedule_at(SimTime(1), 0);
        q.schedule_at(SimTime(2), 0);
        q.pop();
        q.pop();
        q.schedule_at(SimTime(3), 0);
        assert_eq!(q.max_len(), 2);
    }
}
