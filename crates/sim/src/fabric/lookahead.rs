//! The look-ahead channel: per-output-port queues for reservation
//! (FRS-style) policies.
//!
//! A flit-reservation policy sends small look-ahead flits ahead of the
//! data to book departure slots at every link scheduler on the path. A
//! look-ahead flit whose flow cannot book (its window is exhausted)
//! must *not* block flits of other flows queued behind it — the
//! paper's look-ahead router gives each flow its own virtual channel.
//! [`LookaheadQueues`] models that literally: one FIFO subqueue per
//! flow, with each flow's *front* flit held inline in a per-port scan
//! order sorted by arrival stamp. A booking pass then touches each
//! *flow* exactly once and reads its candidate flit straight out of
//! the scan vector — no per-try hash lookups — so the scan cost tracks
//! the number of contending flows, not the number of queued flits. A
//! queue whose scan failed outright is marked *blocked* and skipped
//! until its scheduler changes or a new flit arrives.
//!
//! Entries are stamped with a global arrival sequence number; the scan
//! visits flows ordered by their front entry's stamp, which is exactly
//! the "try each distinct flow once, in queue order" discipline of a
//! single FIFO with fair bypass.

use crate::checkpoint::{Cap, CapDeque, CapVec};
use crate::worklist::ActiveSet;
use crate::FxHashMap;

/// The queued flits of one flow *behind* its front entry (which lives
/// in the scan order). Kept in the map after draining so the
/// `VecDeque` capacity is reused (by forks too).
#[derive(Debug, Clone)]
struct Tail<T> {
    /// Entries behind the front, oldest first, with arrival stamps.
    q: CapDeque<(u64, T)>,
    /// Whether the flow currently has a front entry in the scan order.
    present: bool,
}

impl<T> Default for Tail<T> {
    fn default() -> Self {
        Tail {
            q: CapDeque::default(),
            present: false,
        }
    }
}

/// One output port's look-ahead queue: the scan order holding each
/// present flow's front flit inline, plus per-flow tail FIFOs.
#[derive(Debug, Clone)]
struct LaQueue<T> {
    /// `(front entry stamp, flow, front flit)` for every flow with
    /// entries, sorted ascending by stamp. New flows append (stamps
    /// are monotonic); a flow whose front was booked re-inserts its
    /// next entry at that entry's stamp.
    order: CapVec<(u64, usize, T)>,
    /// Entries behind each flow's front.
    rest: FxHashMap<usize, Tail<T>>,
}

/// Per-output-port look-ahead queues with per-flow fair bypass.
///
/// `T` is the look-ahead flit type; the caller supplies the booking
/// attempt as a closure, so the queues know nothing about schedulers.
#[derive(Debug, Clone)]
pub struct LookaheadQueues<T> {
    queues: Vec<LaQueue<T>>,
    /// Live entry count per queue.
    live: Vec<u32>,
    /// Whether the queue already failed to book and nothing relevant
    /// has changed since.
    blocked: Vec<bool>,
    /// Queues with live entries.
    work: ActiveSet,
    /// Global arrival stamp counter.
    next_stamp: u64,
}

impl<T: Copy> LookaheadQueues<T> {
    /// Empty queues for `num_queues` output ports.
    #[must_use]
    pub fn new(num_queues: usize) -> Self {
        LookaheadQueues {
            queues: (0..num_queues)
                .map(|_| LaQueue {
                    order: Cap(Vec::new()),
                    rest: FxHashMap::default(),
                })
                .collect(),
            live: vec![0; num_queues],
            blocked: vec![false; num_queues],
            work: ActiveSet::new(num_queues),
            next_stamp: 0,
        }
    }

    /// Appends a look-ahead flit of `flow` to queue `qidx`. Any new
    /// arrival may belong to a flow that can book where the stalled
    /// ones cannot, so the queue's blocked mark is cleared.
    pub fn push(&mut self, qidx: usize, flow: usize, item: T) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let q = &mut self.queues[qidx];
        let tail = q.rest.entry(flow).or_default();
        if tail.present {
            tail.q.push_back((stamp, item));
        } else {
            tail.present = true;
            // The new stamp is the largest yet: sorted order holds.
            q.order.push((stamp, flow, item));
        }
        self.live[qidx] += 1;
        self.work.insert(qidx);
        self.blocked[qidx] = false;
    }

    /// The smallest queue index `>= from` with live entries (the live
    /// ascending-scan building block, like
    /// [`ActiveSet::first_from`]).
    #[inline]
    #[must_use]
    pub fn first_from(&self, from: usize) -> Option<usize> {
        self.work.first_from(from)
    }

    /// Whether queue `qidx` is marked blocked (its last scan booked
    /// nothing and no arrival or external change cleared the mark).
    #[inline]
    #[must_use]
    pub fn is_blocked(&self, qidx: usize) -> bool {
        self.blocked[qidx]
    }

    /// Live entries in queue `qidx` (diagnostics only).
    #[must_use]
    pub fn raw_len(&self, qidx: usize) -> usize {
        self.live[qidx] as usize
    }

    /// One output-scheduling pass over queue `qidx`: tries each
    /// present flow's oldest flit once, in order of arrival stamp,
    /// until `try_book` succeeds.
    ///
    /// On success the entry is popped from its flow's subqueue and
    /// `(entry, booking)` is returned; the queue is unmarked blocked.
    /// On failure the queue is marked blocked and `None` is returned.
    pub fn book_first<R>(
        &mut self,
        qidx: usize,
        mut try_book: impl FnMut(&T) -> Option<R>,
    ) -> Option<(T, R)> {
        let q = &mut self.queues[qidx];
        let mut booked: Option<(usize, R)> = None;
        for (i, (_, _, item)) in q.order.iter().enumerate() {
            if let Some(r) = try_book(item) {
                booked = Some((i, r));
                break;
            }
        }
        let Some((i, r)) = booked else {
            self.blocked[qidx] = true;
            return None;
        };
        self.blocked[qidx] = false;
        let (_, flow, item) = q.order.remove(i);
        let tail = q.rest.get_mut(&flow).expect("present flow has a tail");
        if let Some((next_stamp, next_item)) = tail.q.pop_front() {
            // Re-insert the flow at its next entry's stamp.
            let pos = q.order.partition_point(|&(s, _, _)| s < next_stamp);
            q.order.insert(pos, (next_stamp, flow, next_item));
        } else {
            tail.present = false;
        }
        self.live[qidx] -= 1;
        if self.live[qidx] == 0 {
            self.work.remove(qidx);
        }
        Some((item, r))
    }

    /// Full-scan cross-check (debug builds): live counts, worklist
    /// membership, scan-order sortedness and presence agreement.
    /// Call under `#[cfg(debug_assertions)]`.
    pub fn debug_verify(&self) {
        for i in 0..self.queues.len() {
            let q = &self.queues[i];
            let fronts = q.order.len();
            let tails: usize = q.rest.values().map(|t| t.q.len()).sum();
            debug_assert_eq!(
                self.live[i] as usize,
                fronts + tails,
                "live miscounts queue {i}"
            );
            debug_assert_eq!(
                self.work.contains(i),
                fronts > 0,
                "look-ahead worklist out of sync at queue {i}"
            );
            debug_assert!(
                q.order.windows(2).all(|w| w[0].0 < w[1].0),
                "scan order unsorted in queue {i}"
            );
            debug_assert_eq!(
                fronts,
                q.rest.values().filter(|t| t.present).count(),
                "presence marks disagree with scan order in queue {i}"
            );
            for &(stamp, flow, _) in q.order.iter() {
                let tail = &q.rest[&flow];
                debug_assert!(tail.present, "ordered flow {flow} unmarked in queue {i}");
                debug_assert!(
                    tail.q.front().is_none_or(|&(s, _)| s > stamp),
                    "tail older than front for flow {flow} in queue {i}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (flow, payload)
    type Flit = (usize, u32);

    #[test]
    fn books_front_when_possible() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2);
        q.push(0, 1, (1, 10));
        q.push(0, 2, (2, 20));
        let (item, slot) = q.book_first(0, |f| Some(f.1 * 2)).expect("front books");
        assert_eq!(item, (1, 10));
        assert_eq!(slot, 20);
        assert_eq!(q.raw_len(0), 1);
        q.debug_verify();
    }

    #[test]
    fn blocked_flow_is_bypassed_by_other_flows_only() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1);
        q.push(0, 1, (1, 10)); // flow 1: cannot book
        q.push(0, 1, (1, 11)); // flow 1 again: must not even be tried
        q.push(0, 2, (2, 20)); // flow 2: books
        let mut tried = Vec::new();
        let got = q.book_first(0, |f| {
            tried.push(*f);
            (f.0 == 2).then_some(())
        });
        assert_eq!(got, Some(((2, 20), ())));
        // Flow 1 was tried once with its oldest flit; its second flit
        // was never offered.
        assert_eq!(tried, vec![(1, 10), (2, 20)]);
        // Flow 1's order is preserved.
        assert_eq!(q.raw_len(0), 2);
        q.debug_verify();
    }

    #[test]
    fn booked_flow_rejoins_scan_at_next_entry_stamp() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1);
        q.push(0, 1, (1, 10)); // stamp 0
        q.push(0, 2, (2, 20)); // stamp 1
        q.push(0, 1, (1, 11)); // stamp 2
                               // Book flow 1's front; its next entry (stamp 2) must now scan
                               // AFTER flow 2 (stamp 1).
        let got = q.book_first(0, |f| (f.0 == 1).then_some(()));
        assert_eq!(got, Some(((1, 10), ())));
        let mut tried = Vec::new();
        let _ = q.book_first(0, |f| {
            tried.push(*f);
            None::<()>
        });
        assert_eq!(tried, vec![(2, 20), (1, 11)]);
        q.debug_verify();
    }

    #[test]
    fn total_failure_blocks_until_push() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1);
        q.push(0, 0, (0, 1));
        assert!(q.book_first(0, |_| None::<()>).is_none());
        assert!(q.is_blocked(0));
        q.push(0, 1, (1, 2));
        assert!(!q.is_blocked(0));
        q.debug_verify();
    }

    #[test]
    fn draining_empties_the_worklist() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(3);
        q.push(2, 0, (0, 1));
        assert_eq!(q.first_from(0), Some(2));
        let _ = q.book_first(2, |_| Some(()));
        assert_eq!(q.first_from(0), None);
        assert_eq!(q.raw_len(2), 0);
        q.debug_verify();
    }
}
