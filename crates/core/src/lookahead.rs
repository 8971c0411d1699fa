//! The look-ahead channel: one queue per output port, holding the
//! look-ahead flits waiting to book a slot at that port's link
//! scheduler.
//!
//! A look-ahead flit whose flow cannot book (its window is exhausted)
//! must *not* block flits of other flows queued behind it — the
//! paper's look-ahead router gives each flow its own virtual channel.
//! [`LookaheadQueues`] models that as a single FIFO with fair bypass:
//! each queue holds `(flow, flit)` entries in arrival order, and a
//! booking pass offers each flow's *oldest* entry once, oldest first,
//! until one books. A later entry of a flow already offered in the
//! pass is skipped, so per-flow order is preserved. The skip test is a
//! per-flow mark holding the id of the last pass that offered the
//! flow a flit, so a pass costs one load per queued entry it walks
//! and no per-flow storage per queue. (Per-flow subqueues would need
//! a deque per port × flow — 320 × 64 = 20 480 of them, almost all
//! empty, for uniform traffic on an 8×8 mesh, whose 64 flows are one
//! per source — plus an arrival order across their heads, or a hash
//! map per port with a lookup on every push.)
//!
//! A queue whose pass booked nothing is *parked*: every flow queued
//! there is then blocked at its link scheduler (`crate::lsf`), which
//! refuses it again until a wake, so the queue leaves the worklist
//! until the network reports one — a frame crossing, a local reset,
//! or a credit return or completion that the scheduler says woke it —
//! or a flit of a flow that is not blocked arrives.

use noc_sim::checkpoint::{Cap, CapVec};
use noc_sim::ActiveSet;

/// Per-output-port look-ahead queues with per-flow fair bypass.
///
/// `T` is the look-ahead flit type; the caller supplies the booking
/// attempt as a closure, so the queues know nothing about schedulers.
#[derive(Debug, Clone)]
pub(crate) struct LookaheadQueues<T> {
    /// `(flow, flit)` entries per queue, oldest first.
    queues: Vec<CapVec<(usize, T)>>,
    /// Non-empty queues whose last pass booked nothing and that no
    /// wake or unblocked arrival has reached since.
    parked: ActiveSet,
    /// Queues to visit: the non-empty unparked ones, and the parked
    /// ones too while `list_parked`.
    work: ActiveSet,
    /// Keep parked queues on `work`: a probe that counts denials
    /// counts one per parked queue per cycle.
    list_parked: bool,
    /// Per flow: the id of the last pass that offered it an entry.
    offered: Vec<u64>,
    /// Id of the latest pass (0 = none yet).
    pass: u64,
}

impl<T> LookaheadQueues<T> {
    /// Empty queues for `num_queues` output ports, carrying flows
    /// `0..num_flows`; `list_parked` keeps parked queues on the
    /// worklist.
    pub(crate) fn new(num_queues: usize, num_flows: usize, list_parked: bool) -> Self {
        LookaheadQueues {
            queues: (0..num_queues).map(|_| Cap(Vec::new())).collect(),
            parked: ActiveSet::new(num_queues),
            work: ActiveSet::new(num_queues),
            list_parked,
            offered: vec![0; num_flows],
            pass: 0,
        }
    }

    /// Appends a look-ahead flit of `flow` to queue `qidx`. A parked
    /// queue wakes unless `blocked` — asked only then — says the flow
    /// is blocked at the queue's link: a flit of a blocked flow is
    /// never offered before that flow's oldest one, which was refused.
    pub(crate) fn push(
        &mut self,
        qidx: usize,
        flow: usize,
        item: T,
        blocked: impl FnOnce() -> bool,
    ) {
        self.queues[qidx].push((flow, item));
        if !self.parked.contains(qidx) {
            self.work.insert(qidx);
        } else if !blocked() {
            self.wake(qidx);
        }
    }

    /// Puts parked queue `qidx` back to work (a no-op on any other):
    /// its link scheduler woke.
    #[inline]
    pub(crate) fn wake(&mut self, qidx: usize) {
        if self.parked.contains(qidx) {
            self.parked.remove(qidx);
            self.work.insert(qidx);
        }
    }

    /// Puts every parked queue back to work: a frame crossing woke
    /// every link scheduler.
    pub(crate) fn wake_all(&mut self) {
        let mut cursor = 0;
        while let Some(qidx) = self.parked.first_from(cursor) {
            cursor = qidx + 1;
            self.wake(qidx);
        }
    }

    /// The smallest queue index `>= from` with entries (the live
    /// ascending-scan building block, like [`ActiveSet::first_from`]).
    #[inline]
    pub(crate) fn first_from(&self, from: usize) -> Option<usize> {
        self.work.first_from(from)
    }

    /// Whether queue `qidx` is parked.
    #[inline]
    pub(crate) fn is_parked(&self, qidx: usize) -> bool {
        self.parked.contains(qidx)
    }

    /// Entries in queue `qidx`.
    #[cfg(test)]
    pub(crate) fn raw_len(&self, qidx: usize) -> usize {
        self.queues[qidx].len()
    }

    /// `(listed, non-empty)` queue counts.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let non_empty = self.queues.iter().filter(|q| !q.is_empty()).count();
        (self.work.len(), non_empty)
    }

    /// One output-scheduling pass over queue `qidx`: offers each
    /// flow's oldest entry once, oldest first, until `try_book`
    /// succeeds.
    ///
    /// On success the entry is removed and `(entry, booking)` is
    /// returned. On failure the queue is parked and `None` is
    /// returned.
    pub(crate) fn book_first<R>(
        &mut self,
        qidx: usize,
        mut try_book: impl FnMut(&T) -> Option<R>,
    ) -> Option<(T, R)> {
        debug_assert!(self.work.contains(qidx) && !self.parked.contains(qidx));
        self.pass += 1;
        let pass = self.pass;
        let offered = &mut self.offered;
        let q = &mut self.queues[qidx];
        let booked = q.iter().enumerate().find_map(|(i, (flow, item))| {
            if offered[*flow] == pass {
                return None;
            }
            offered[*flow] = pass;
            try_book(item).map(|r| (i, r))
        });
        let Some((i, r)) = booked else {
            self.parked.insert(qidx);
            if !self.list_parked {
                self.work.remove(qidx);
            }
            return None;
        };
        let (_, item) = q.remove(i);
        if q.is_empty() {
            self.work.remove(qidx);
        }
        Some((item, r))
    }

    /// The entries a pass over queue `qidx` would offer — each flow's
    /// oldest, oldest first — as `(flow, flit)` (naive; checks only).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_offers(&self, qidx: usize) -> Vec<(usize, &T)> {
        let mut seen = Vec::new();
        let mut offers = Vec::new();
        for (flow, item) in self.queues[qidx].iter() {
            if !seen.contains(flow) {
                seen.push(*flow);
                offers.push((*flow, item));
            }
        }
        offers
    }

    /// The parked queues' entries as `(queue, flow)` (checks only).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_parked_entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.parked.contains(i))
            .flat_map(|(i, q)| q.iter().map(move |&(flow, _)| (i, flow)))
    }

    /// Full-scan cross-check (debug builds): the parked queues are
    /// non-empty, and the worklist holds exactly the other non-empty
    /// queues (and the parked ones while `list_parked`).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_verify(&self) {
        for (i, q) in self.queues.iter().enumerate() {
            let parked = self.parked.contains(i);
            debug_assert!(!parked || !q.is_empty(), "empty queue {i} parked");
            debug_assert_eq!(
                self.work.contains(i),
                !q.is_empty() && (self.list_parked || !parked),
                "look-ahead worklist out of sync at queue {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (flow, payload)
    type Flit = (usize, u32);

    /// Pushes a flit of a flow that is not blocked.
    fn push(q: &mut LookaheadQueues<Flit>, qidx: usize, flow: usize, item: Flit) {
        q.push(qidx, flow, item, || false);
    }

    #[test]
    fn books_front_when_possible() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3, false);
        push(&mut q, 0, 1, (1, 10));
        push(&mut q, 0, 2, (2, 20));
        let (item, slot) = q.book_first(0, |f| Some(f.1 * 2)).expect("front books");
        assert_eq!(item, (1, 10));
        assert_eq!(slot, 20);
        assert_eq!(q.raw_len(0), 1);
        q.debug_verify();
    }

    #[test]
    fn blocked_flow_is_bypassed_by_other_flows_only() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1, 3, false);
        push(&mut q, 0, 1, (1, 10)); // flow 1: cannot book
        push(&mut q, 0, 1, (1, 11)); // flow 1 again: must not even be tried
        push(&mut q, 0, 2, (2, 20)); // flow 2: books
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
    fn booked_flow_rejoins_scan_at_its_next_entry() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1, 3, false);
        push(&mut q, 0, 1, (1, 10));
        push(&mut q, 0, 2, (2, 20));
        push(&mut q, 0, 1, (1, 11));
        // Book flow 1's oldest entry; its next entry arrived after
        // flow 2's, so it must now be offered AFTER flow 2.
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
    fn total_failure_parks_until_wake_or_unblocked_push() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3, false);
        push(&mut q, 0, 0, (0, 1));
        assert!(q.book_first(0, |_| None::<()>).is_none());
        assert!(q.is_parked(0));
        assert_eq!(q.first_from(0), None, "a parked queue left the worklist");
        // Another flit of the refused flow: still parked.
        q.push(0, 0, (0, 2), || true);
        assert!(q.is_parked(0));
        q.wake(1); // not parked: nothing happens
        q.debug_verify();
        q.wake(0);
        assert!(!q.is_parked(0));
        assert_eq!(q.first_from(0), Some(0));
        assert!(q.book_first(0, |_| None::<()>).is_none());
        // A flit of a flow that is not blocked wakes it.
        push(&mut q, 0, 1, (1, 3));
        assert!(!q.is_parked(0));
        assert_eq!(q.first_from(0), Some(0));
        q.debug_verify();
    }

    /// Only a push into a parked queue asks whether the flow is
    /// blocked; listed parked queues stay on the worklist.
    #[test]
    fn listed_parked_queues_stay_on_the_worklist() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3, true);
        q.push(1, 0, (0, 1), || unreachable!("asked for an unparked queue"));
        assert!(q.book_first(1, |_| None::<()>).is_none());
        assert!(q.is_parked(1));
        assert_eq!(q.first_from(0), Some(1));
        let mut asked = false;
        q.push(1, 0, (0, 2), || {
            asked = true;
            true
        });
        assert!(asked && q.is_parked(1));
        q.wake_all();
        assert!(!q.is_parked(1));
        q.debug_verify();
    }

    #[test]
    fn pass_marks_are_shared_by_queues_but_fresh_each_pass() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 2, false);
        push(&mut q, 0, 0, (0, 10));
        push(&mut q, 0, 0, (0, 11));
        push(&mut q, 1, 0, (0, 20));
        push(&mut q, 1, 1, (1, 30));
        // A failed pass on queue 0 offers flow 0 once.
        let mut tried = Vec::new();
        assert!(q
            .book_first(0, |f| {
                tried.push(*f);
                None::<()>
            })
            .is_none());
        assert_eq!(tried, vec![(0, 10)]);
        // The next pass, on the other queue, offers flow 0 again: the
        // mark left by queue 0's pass does not carry over.
        tried.clear();
        let got = q.book_first(1, |f| {
            tried.push(*f);
            (f.0 == 0).then_some(())
        });
        assert_eq!(got, Some(((0, 20), ())));
        assert_eq!(tried, vec![(0, 20)]);
        // And a repeat pass on queue 0, once woken, offers flow 0's
        // oldest entry.
        q.wake(0);
        let got = q.book_first(0, |_| Some(()));
        assert_eq!(got, Some(((0, 10), ())));
        q.debug_verify();
    }

    #[test]
    fn clone_is_an_independent_fork() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3, false);
        push(&mut q, 0, 1, (1, 10));
        push(&mut q, 0, 2, (2, 20));
        push(&mut q, 1, 0, (0, 30));
        assert!(q.book_first(1, |_| None::<()>).is_none());
        let mut fork = q.clone();
        // Draining the original leaves the fork untouched.
        while let Some(i) = q.first_from(0) {
            let _ = q.book_first(i, |_| Some(()));
        }
        assert_eq!(q.first_from(0), None);
        assert_eq!((fork.raw_len(0), fork.raw_len(1)), (2, 1));
        assert!(fork.is_parked(1) && q.is_parked(1));
        // The fork continues from the cloned state, pass marks included.
        let mut tried = Vec::new();
        let got = fork.book_first(0, |f| {
            tried.push(*f);
            (f.0 == 2).then_some(())
        });
        assert_eq!(got, Some(((2, 20), ())));
        assert_eq!(tried, vec![(1, 10), (2, 20)]);
        fork.debug_verify();
        q.debug_verify();
    }

    /// Naive model of the channel: one arrival-ordered `Vec` per queue,
    /// a linear list of the flows offered so far in a pass, and per
    /// queue whether it is parked and which flows its failed pass
    /// refused (the flows its link holds blocked).
    struct Model {
        queues: Vec<Vec<Flit>>,
        parked: Vec<bool>,
        refused: Vec<Vec<usize>>,
        list_parked: bool,
    }

    impl Model {
        /// Offers each flow's oldest entry once, oldest first, until
        /// one is accepted. Returns the offered entries and the
        /// booked one; a pass that books nothing parks the queue.
        fn book_first(&mut self, qidx: usize, accept: &[bool]) -> (Vec<Flit>, Option<Flit>) {
            let mut offered_flows = Vec::new();
            let mut offered = Vec::new();
            let q = &mut self.queues[qidx];
            for i in 0..q.len() {
                let flit = q[i];
                if offered_flows.contains(&flit.0) {
                    continue;
                }
                offered_flows.push(flit.0);
                offered.push(flit);
                if accept[flit.0] {
                    q.remove(i);
                    return (offered, Some(flit));
                }
            }
            self.parked[qidx] = true;
            self.refused[qidx] = offered_flows;
            (offered, None)
        }

        /// A push wakes a parked queue unless its flow was refused.
        fn push(&mut self, qidx: usize, flit: Flit) {
            self.queues[qidx].push(flit);
            if !self.refused[qidx].contains(&flit.0) {
                self.parked[qidx] = false;
            }
        }

        fn wake(&mut self, qidx: usize) {
            self.parked[qidx] = false;
            self.refused[qidx].clear();
        }

        /// The queues a scan visits: non-empty and not parked, or
        /// parked but listed.
        fn first_from(&self, from: usize) -> Option<usize> {
            (from..self.queues.len())
                .find(|&i| !self.queues[i].is_empty() && (self.list_parked || !self.parked[i]))
        }
    }

    #[test]
    fn random_op_sequences_match_naive_model() {
        use noc_sim::rng::Xoshiro256;
        let mut parks = 0;
        for seed in 0..40 {
            let mut rng = Xoshiro256::seed_from(seed);
            let num_queues = 3 + rng.next_below(3) as usize;
            let num_flows = 5 + rng.next_below(6) as usize;
            let list_parked = seed % 2 == 1;
            let mut q: LookaheadQueues<Flit> =
                LookaheadQueues::new(num_queues, num_flows, list_parked);
            let mut model = Model {
                queues: vec![Vec::new(); num_queues],
                parked: vec![false; num_queues],
                refused: vec![Vec::new(); num_queues],
                list_parked,
            };
            // Per-seed push, wake and accept rates: short and long
            // queues, rarely and often parked.
            let push_p = 0.3 + 0.5 * rng.next_f64();
            let wake_p = 0.05 + 0.3 * rng.next_f64();
            let accept_p = 0.1 + 0.6 * rng.next_f64();
            for payload in 0..600 {
                let qidx = rng.next_below(num_queues as u64) as usize;
                if rng.bernoulli(push_p) {
                    let flow = rng.next_below(num_flows as u64) as usize;
                    let mut asked = false;
                    q.push(qidx, flow, (flow, payload), || {
                        asked = true;
                        model.refused[qidx].contains(&flow)
                    });
                    assert_eq!(asked, model.parked[qidx], "seed {seed}: push asked");
                    model.push(qidx, (flow, payload));
                } else if rng.bernoulli(wake_p) {
                    if rng.bernoulli(0.2) {
                        q.wake_all();
                        (0..num_queues).for_each(|i| model.wake(i));
                    } else {
                        q.wake(qidx);
                        model.wake(qidx);
                    }
                } else {
                    // Book on the next visited queue, as a scan would;
                    // a listed parked queue is denied without a pass.
                    let Some(qidx) = model.first_from(qidx).or_else(|| model.first_from(0)) else {
                        continue;
                    };
                    if model.parked[qidx] {
                        continue;
                    }
                    let accept: Vec<bool> =
                        (0..num_flows).map(|_| rng.bernoulli(accept_p)).collect();
                    let mut offered = Vec::new();
                    let got = q.book_first(qidx, |f| {
                        offered.push(*f);
                        accept[f.0].then_some(f.1)
                    });
                    let (want_offered, want) = model.book_first(qidx, &accept);
                    parks += usize::from(want.is_none());
                    assert_eq!(offered, want_offered, "seed {seed} op {payload}: offers");
                    assert_eq!(
                        got.map(|(f, _)| f),
                        want,
                        "seed {seed} op {payload}: booked"
                    );
                    if let Some((f, r)) = got {
                        assert_eq!(r, f.1, "seed {seed}: booking result not returned");
                    }
                }
                for i in 0..num_queues {
                    assert_eq!(q.is_parked(i), model.parked[i], "seed {seed}: parked {i}");
                    assert_eq!(q.raw_len(i), model.queues[i].len(), "seed {seed}: len {i}");
                }
                for from in 0..=num_queues {
                    assert_eq!(
                        q.first_from(from),
                        model.first_from(from),
                        "seed {seed}: first_from({from})"
                    );
                }
                q.debug_verify();
            }
        }
        assert!(
            parks > 1_000,
            "{parks} passes parked a queue — test is vacuous"
        );
    }

    #[test]
    fn draining_empties_the_worklist() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(3, 3, false);
        push(&mut q, 2, 0, (0, 1));
        assert_eq!(q.first_from(0), Some(2));
        let _ = q.book_first(2, |_| Some(()));
        assert_eq!(q.first_from(0), None);
        assert_eq!(q.raw_len(2), 0);
        q.debug_verify();
    }
}
