//! Deterministic discrete-event clock.
//!
//! The overlay runtime and the re-optimization experiments need "time"
//! (long-running queries, churn ticks, migration delays) without the
//! nondeterminism of wall-clock async IO. [`EventQueue`] is a classic
//! monotonic event heap: schedule a payload at a [`SimTime`], pop events in
//! time order, ties broken by insertion sequence so runs are reproducible.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in milliseconds since the start of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Adds a delay. Panics if the delay is not finite — a NaN or infinite
    /// delay would silently produce an unschedulable time and, pre-guard,
    /// corrupt the event heap's ordering.
    pub fn after(self, delay_ms: f64) -> SimTime {
        assert!(delay_ms.is_finite(), "delay must be finite, got {delay_ms}");
        debug_assert!(delay_ms >= 0.0, "negative delay");
        SimTime(self.0 + delay_ms)
    }

    /// Milliseconds value.
    pub fn millis(self) -> f64 {
        self.0
    }
}

struct Scheduled<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first, then earlier sequence number. Times
        // are finite (enforced by `schedule`), so `total_cmp` agrees with
        // the numeric order while staying a proper total order.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// ```
/// use sbon_netsim::sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime(5.0), "b");
/// q.schedule(SimTime(1.0), "a");
/// assert_eq!(q.pop().unwrap(), (SimTime(1.0), "a"));
/// assert_eq!(q.now(), SimTime(1.0));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), now: 0.0, seq: 0 }
    }

    /// Current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        SimTime(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is not
    /// finite (a NaN would compare `Equal` to everything and corrupt the
    /// heap's ordering; `∞` would never fire) or is in the simulated past —
    /// an event may not rewrite history.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at.0.is_finite(), "cannot schedule at non-finite time {}", at.0);
        assert!(at.0 >= self.now, "cannot schedule at {} before now {}", at.0, self.now);
        self.heap.push(Scheduled { time: at.0, seq: self.seq, event });
        self.seq += 1;
    }

    /// Pops the next event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (SimTime(s.time), s.event)
        })
    }

    /// Pops only if the next event is at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(s) if s.time <= deadline.0 => self.pop(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(3.0), 3);
        q.schedule(SimTime(1.0), 1);
        q.schedule(SimTime(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(1.0), "first");
        q.schedule(SimTime(1.0), "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(10.0));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5.0), ());
        q.pop();
        q.schedule(SimTime(1.0), ());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn scheduling_at_nan_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(f64::NAN), ());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn scheduling_at_infinity_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(f64::INFINITY), ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn after_rejects_nan_delay() {
        let _ = SimTime::ZERO.after(f64::NAN);
    }

    /// Regression: before the `schedule` guard, a NaN time compared `Equal`
    /// to every other entry and could bury finite events under it. Finite
    /// events around the guard's boundary must still pop in order.
    #[test]
    fn finite_times_pop_in_order_after_guard() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(f64::MAX), "max");
        q.schedule(SimTime(1.0), "one");
        q.schedule(SimTime(0.0), "zero");
        assert_eq!(q.pop().unwrap().1, "zero");
        assert_eq!(q.pop().unwrap().1, "one");
        assert_eq!(q.pop().unwrap().1, "max");
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(4.0), ());
        assert!(q.pop_until(SimTime(3.0)).is_none());
        assert!(q.pop_until(SimTime(4.0)).is_some());
    }

    /// Regression pin for the tie-break contract the routed control plane
    /// depends on: events popped up to one deadline come out ascending by
    /// time, and *equal* times come out in insertion (sequence) order — a
    /// documented invariant, not an accident of the heap. If `Scheduled`'s
    /// `Ord` ever drops the seq tie-break, equal-time messages would pop in
    /// arbitrary heap order and routed runs would stop being reproducible.
    #[test]
    fn pop_until_loop_preserves_equal_time_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(2.0), "t2-first");
        q.schedule(SimTime(1.0), "t1-first");
        q.schedule(SimTime(2.0), "t2-second");
        q.schedule(SimTime(1.0), "t1-second");
        q.schedule(SimTime(2.0), "t2-third");
        q.schedule(SimTime(3.0), "beyond");
        let drained: Vec<&str> =
            std::iter::from_fn(|| q.pop_until(SimTime(2.0)).map(|(_, e)| e)).collect();
        assert_eq!(drained, vec!["t1-first", "t1-second", "t2-first", "t2-second", "t2-third"]);
        assert_eq!(q.now(), SimTime(2.0));
        assert_eq!(q.len(), 1, "event past the deadline stays queued");
        assert_eq!(q.pop().unwrap().1, "beyond");
    }
}
