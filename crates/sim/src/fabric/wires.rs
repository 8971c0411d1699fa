//! In-flight items: the per-link due-time wheel and the global timed
//! event FIFO.

use std::collections::VecDeque;

/// In-flight items on every link, on a due-time wheel.
///
/// Every producer puts an item in flight `1..=max_delay` cycles (or
/// slots) after the current one, and a link carries at most one item
/// per time unit, so the in-flight state is exactly a timing wheel of
/// `max_delay + 1` buckets, one per due time in the horizon. A bucket
/// is a bitmask over links plus one item slot per link.
///
/// The owner drains once per time unit, before it pushes in that
/// unit, so each drain empties exactly the one bucket that fell due
/// and walks its set bits in ascending link order. A drain while
/// items are in flight must come one unit after the previous drain;
/// [`DelayedWires::drain_due`] asserts it, since a late drain would
/// strand the buckets it skipped. While the wheel is empty a drain
/// may come at any time.
///
/// Two preconditions, debug-asserted at [`DelayedWires::push`]:
/// at most one item per `(link, due)`, and `due` within the horizon
/// `drained + 1 ..= drained + max_delay + 1`, where `drained` is the
/// `now` of the latest drain.
#[derive(Debug, Clone)]
pub struct DelayedWires<T> {
    /// Item slots per bucket: one per link.
    links: usize,
    /// `u64` mask words per bucket.
    words: usize,
    /// Number of buckets: `max_delay + 1`.
    buckets: usize,
    /// Bucket masks, bucket-major: link `l` of bucket `b` is bit
    /// `l % 64` of word `b * words + l / 64`.
    mask: Vec<u64>,
    /// Item slots, bucket-major: link `l` of bucket `b` is slot
    /// `b * links + l`. `Some` exactly where the mask bit is set.
    slots: Vec<Option<T>>,
    /// Items in flight.
    len: usize,
    /// Every item due at or before `drained` has been delivered.
    drained: u64,
    /// The bucket of due time `drained + 1`; later due times follow
    /// it cyclically.
    head: usize,
}

impl<T> DelayedWires<T> {
    /// Empty wires for `num_links` links whose items are due at most
    /// `max_delay` time units after they are pushed.
    #[must_use]
    pub fn new(num_links: usize, max_delay: u64) -> Self {
        let buckets = max_delay as usize + 1;
        let words = num_links.div_ceil(64);
        DelayedWires {
            links: num_links,
            words,
            buckets,
            mask: vec![0; buckets * words],
            slots: (0..buckets * num_links).map(|_| None).collect(),
            len: 0,
            drained: 0,
            head: 0,
        }
    }

    /// The bucket `k` due times after the head (`k < buckets`).
    #[inline]
    fn bucket(&self, k: usize) -> usize {
        let b = self.head + k;
        if b >= self.buckets {
            b - self.buckets
        } else {
            b
        }
    }

    /// Puts `item` in flight on link `idx`, available at `due`.
    #[inline]
    pub fn push(&mut self, idx: usize, due: u64, item: T) {
        let horizon = self.buckets as u64;
        debug_assert!(
            self.drained < due && due <= self.drained + horizon,
            "item due at {due} lies outside the wheel's horizon {}..={}",
            self.drained + 1,
            self.drained + horizon
        );
        let b = self.bucket((due - self.drained - 1) as usize);
        let (word, bit) = (b * self.words + idx / 64, 1u64 << (idx % 64));
        debug_assert!(
            self.mask[word] & bit == 0,
            "two items on link {idx} due at {due}"
        );
        self.mask[word] |= bit;
        self.slots[b * self.links + idx] = Some(item);
        self.len += 1;
    }

    /// Delivers every item due at `now`, in ascending link order,
    /// calling `sink(idx, item)` for each.
    ///
    /// # Panics
    ///
    /// If items are in flight and `now` is not one unit after the
    /// previous drain.
    ///
    /// The sink must not push back onto these wires mid-drain (no
    /// fabric stage does — arrivals land in buffers, not wires).
    pub fn drain_due(&mut self, now: u64, mut sink: impl FnMut(usize, T)) {
        let prev = std::mem::replace(&mut self.drained, now);
        if self.len == 0 {
            return;
        }
        assert!(
            now == prev + 1,
            "drain at {now} with items in flight; the previous drain was at {prev}"
        );
        let (links, words) = (self.links, self.words);
        let b = self.head;
        self.head = self.bucket(1);
        for w in 0..words {
            let mut m = std::mem::take(&mut self.mask[b * words + w]);
            while m != 0 {
                let idx = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let item = self.slots[b * links + idx].take();
                self.len -= 1;
                sink(idx, item.expect("masked slot holds an item"));
            }
        }
    }

    /// Whether any link has items in flight (a counter check).
    #[must_use]
    pub fn any_active(&self) -> bool {
        self.len != 0
    }

    /// Full-scan cross-check (debug builds): the masks mark exactly
    /// the occupied item slots, and the item count matches. Call under
    /// `#[cfg(debug_assertions)]`.
    pub fn debug_verify(&self) {
        for b in 0..self.buckets {
            for idx in 0..self.links {
                let bit = self.mask[b * self.words + idx / 64] >> (idx % 64) & 1 != 0;
                debug_assert_eq!(
                    bit,
                    self.slots[b * self.links + idx].is_some(),
                    "wheel mask out of sync at bucket {b}, link {idx}"
                );
            }
        }
        debug_assert_eq!(
            self.len,
            self.slots.iter().filter(|s| s.is_some()).count(),
            "wheel item count out of sync"
        );
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
        let mut w: DelayedWires<u32> = DelayedWires::new(4, 2);
        w.drain_due(9, |_, _| unreachable!("the wheel is empty"));
        w.push(2, 10, 20);
        w.push(0, 11, 2);
        w.push(0, 10, 1);
        w.push(2, 12, 21);
        let mut seen = Vec::new();
        w.drain_due(10, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(0, 1), (2, 20)]);
        w.drain_due(11, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(0, 1), (2, 20), (0, 2)]);
        assert!(w.any_active());
        w.drain_due(12, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(0, 1), (2, 20), (0, 2), (2, 21)]);
        assert!(!w.any_active());
        w.debug_verify();
    }

    #[test]
    fn wires_hold_items_until_due() {
        let mut w: DelayedWires<&str> = DelayedWires::new(1, 1);
        w.drain_due(3, |_, _| unreachable!("the wheel is empty"));
        w.push(0, 5, "x");
        let mut count = 0;
        w.drain_due(4, |_, _| count += 1);
        assert_eq!(count, 0);
        assert!(w.any_active());
        w.drain_due(5, |_, _| count += 1);
        assert_eq!(count, 1);
    }

    /// Random push/drain sequences, one drain per time unit, against
    /// a naive per-link list of `(due, item)`: every drain delivers
    /// exactly the items due at `now`, in ascending link order. Pushes
    /// keep the documented preconditions: delays of `1..=max_delay`
    /// after the latest drain and at most one item per `(link, due)`.
    #[test]
    fn wires_match_a_per_link_model() {
        let mut rng = crate::rng::Xoshiro256::seed_from(0x5EED_3301);
        for _case in 0..200 {
            let links = 1 + rng.next_below(140) as usize;
            let max_delay = 1 + rng.next_below(4);
            let mut w: DelayedWires<u64> = DelayedWires::new(links, max_delay);
            let mut model: Vec<Vec<(u64, u64)>> = vec![Vec::new(); links];
            let mut last_due = vec![0u64; links];
            let mut next_item = 0u64;
            for now in 1..300u64 {
                let mut seen = Vec::new();
                w.drain_due(now, |idx, v| seen.push((idx, v)));
                let mut want = Vec::new();
                for (idx, wire) in model.iter_mut().enumerate() {
                    want.extend(wire.iter().filter(|e| e.0 <= now).map(|e| (idx, e.1)));
                    wire.retain(|e| e.0 > now);
                }
                assert_eq!(seen, want, "drain at {now}");
                for _ in 0..rng.next_below(links as u64 + 1) {
                    let idx = rng.next_below(links as u64) as usize;
                    let due = now + 1 + rng.next_below(max_delay);
                    if due <= last_due[idx] {
                        continue;
                    }
                    last_due[idx] = due;
                    w.push(idx, due, next_item);
                    model[idx].push((due, next_item));
                    next_item += 1;
                }
                assert_eq!(w.any_active(), model.iter().any(|wire| !wire.is_empty()));
                w.debug_verify();
            }
        }
    }

    #[test]
    #[should_panic(expected = "drain at 4 with items in flight; the previous drain was at 2")]
    fn wires_reject_a_late_drain_with_items_in_flight() {
        let mut w: DelayedWires<u32> = DelayedWires::new(2, 2);
        w.drain_due(1, |_, _| {});
        w.push(0, 3, 0);
        w.drain_due(2, |_, _| {});
        w.drain_due(4, |_, _| {});
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two items on link 1 due at 3")]
    fn wires_reject_two_items_on_one_link_due_at_once() {
        let mut w: DelayedWires<u32> = DelayedWires::new(2, 2);
        w.push(1, 3, 0);
        w.push(1, 3, 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "item due at 6 lies outside the wheel's horizon 1..=3")]
    fn wires_reject_an_item_beyond_the_horizon() {
        let mut w: DelayedWires<u32> = DelayedWires::new(2, 2);
        w.push(0, 2, 0);
        w.push(1, 6, 1);
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
