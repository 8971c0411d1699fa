//! In-flight item queues: per-link delayed wires and the global
//! timed event FIFO.

use std::collections::VecDeque;

use crate::checkpoint::{Cap, CapDeque};
use crate::worklist::ActiveSet;

/// Per-link FIFO queues of in-flight items, each stamped with the
/// cycle (or slot) at which it becomes available downstream.
///
/// `DelayedWires` owns the worklist tracking which links have items
/// in flight: [`DelayedWires::push`] registers the link and
/// [`DelayedWires::drain_due`] deregisters it once empty, so callers
/// never touch the bitset directly. Drains visit links in ascending
/// index order with live worklist semantics — bit-identical to a full
/// `0..n` scan (see [`crate::worklist`]).
#[derive(Debug, Clone)]
pub struct DelayedWires<T> {
    /// Pre-sized to the link-delay bound; forks keep that capacity.
    wires: Vec<CapDeque<(u64, T)>>,
    work: ActiveSet,
}

impl<T> DelayedWires<T> {
    /// Empty wires for `num_links` links.
    #[must_use]
    pub fn new(num_links: usize) -> Self {
        DelayedWires::with_capacity(num_links, 0)
    }

    /// Empty wires for `num_links` links, each pre-sized for
    /// `per_link` in-flight items (one flit per cycle for a link
    /// delay of `per_link - 1` cycles) so warmup never reallocates.
    #[must_use]
    pub fn with_capacity(num_links: usize, per_link: usize) -> Self {
        DelayedWires {
            wires: (0..num_links)
                .map(|_| Cap(VecDeque::with_capacity(per_link)))
                .collect(),
            work: ActiveSet::new(num_links),
        }
    }

    /// Puts `item` in flight on link `idx`, available at `due`.
    ///
    /// Items on one link must be pushed in non-decreasing `due` order
    /// (automatic when every push uses `now + constant_delay`), so the
    /// FIFO front is always the earliest.
    #[inline]
    pub fn push(&mut self, idx: usize, due: u64, item: T) {
        self.wires[idx].push_back((due, item));
        self.work.insert(idx);
    }

    /// Delivers every item due at or before `now`: ascending link
    /// order, FIFO order within a link, calling `sink(idx, item)` for
    /// each. Links left empty are removed from the worklist.
    ///
    /// The sink must not push back onto these wires mid-drain (no
    /// fabric stage does — arrivals land in buffers, not wires).
    pub fn drain_due(&mut self, now: u64, mut sink: impl FnMut(usize, T)) {
        let mut cursor = 0;
        while let Some(idx) = self.work.first_from(cursor) {
            cursor = idx + 1;
            let wire = &mut self.wires[idx];
            while wire.front().is_some_and(|e| e.0 <= now) {
                let (_, item) = wire.pop_front().expect("checked front");
                sink(idx, item);
            }
            if wire.is_empty() {
                self.work.remove(idx);
            }
        }
    }

    /// Whether link `idx` has items in flight.
    #[must_use]
    pub fn is_active(&self, idx: usize) -> bool {
        !self.wires[idx].is_empty()
    }

    /// Whether any link has items in flight (a cheap bitset check;
    /// lets callers skip a whole drain pass — or a pool dispatch —
    /// when the wires are globally empty).
    #[must_use]
    pub fn any_active(&self) -> bool {
        !self.work.is_empty()
    }

    /// Full-scan cross-check (debug builds): the worklist contains
    /// exactly the links with items in flight. Call under
    /// `#[cfg(debug_assertions)]`.
    pub fn debug_verify(&self) {
        for (i, wire) in self.wires.iter().enumerate() {
            debug_assert_eq!(
                self.work.contains(i),
                !wire.is_empty(),
                "wire worklist out of sync at link {i}"
            );
        }
    }
}

/// A single global time-ordered event queue (credit returns and the
/// like): events enter with a due cycle and leave once due.
///
/// Every producer must use the same constant delay, which makes push
/// order equal due order — the queue is then a plain FIFO with a
/// due-gate at the front.
#[derive(Debug, Clone)]
pub struct TimedFifo<T> {
    q: VecDeque<(u64, T)>,
}

impl<T> TimedFifo<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        TimedFifo { q: VecDeque::new() }
    }

    /// An empty queue pre-sized for `cap` in-flight events.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        TimedFifo {
            q: VecDeque::with_capacity(cap),
        }
    }

    /// Enqueues `item`, due at `due` (must be non-decreasing across
    /// pushes; guaranteed by a constant producer delay).
    #[inline]
    pub fn push(&mut self, due: u64, item: T) {
        debug_assert!(
            self.q.back().is_none_or(|e| e.0 <= due),
            "timed events must be pushed in due order"
        );
        self.q.push_back((due, item));
    }

    /// Pops the front event if it is due at or before `now`.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.q.front().is_some_and(|e| e.0 <= now) {
            self.q.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Whether no events are in flight (quiescence check for the
    /// fast-forward path).
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

impl<T> Default for TimedFifo<T> {
    fn default() -> Self {
        TimedFifo::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wires_deliver_in_link_then_fifo_order() {
        let mut w: DelayedWires<u32> = DelayedWires::new(4);
        w.push(2, 10, 20);
        w.push(0, 10, 1);
        w.push(0, 11, 2);
        w.push(2, 12, 21);
        let mut seen = Vec::new();
        w.drain_due(11, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(0, 1), (0, 2), (2, 20)]);
        assert!(!w.is_active(0));
        assert!(w.is_active(2));
        seen.clear();
        w.drain_due(12, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(2, 21)]);
        w.debug_verify();
    }

    #[test]
    fn wires_hold_items_until_due() {
        let mut w: DelayedWires<&str> = DelayedWires::new(1);
        w.push(0, 5, "x");
        let mut count = 0;
        w.drain_due(4, |_, _| count += 1);
        assert_eq!(count, 0);
        assert!(w.is_active(0));
        w.drain_due(5, |_, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn timed_fifo_gates_on_due_cycle() {
        let mut f = TimedFifo::new();
        f.push(3, 'a');
        f.push(5, 'b');
        assert_eq!(f.pop_due(2), None);
        assert_eq!(f.pop_due(3), Some('a'));
        assert_eq!(f.pop_due(3), None);
        assert_eq!(f.pop_due(7), Some('b'));
        assert_eq!(f.pop_due(7), None);
    }
}
