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
//! A queue whose pass booked nothing is marked *blocked* and skipped
//! until its scheduler changes or a new flit arrives.

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
    /// Whether the queue already failed to book and nothing relevant
    /// has changed since.
    blocked: Vec<bool>,
    /// Queues with entries.
    work: ActiveSet,
    /// Per flow: the id of the last pass that offered it an entry.
    offered: Vec<u64>,
    /// Id of the latest pass (0 = none yet).
    pass: u64,
}

impl<T> LookaheadQueues<T> {
    /// Empty queues for `num_queues` output ports, carrying flows
    /// `0..num_flows`.
    pub(crate) fn new(num_queues: usize, num_flows: usize) -> Self {
        LookaheadQueues {
            queues: (0..num_queues).map(|_| Cap(Vec::new())).collect(),
            blocked: vec![false; num_queues],
            work: ActiveSet::new(num_queues),
            offered: vec![0; num_flows],
            pass: 0,
        }
    }

    /// Appends a look-ahead flit of `flow` to queue `qidx`. Any new
    /// arrival may belong to a flow that can book where the stalled
    /// ones cannot, so the queue's blocked mark is cleared.
    pub(crate) fn push(&mut self, qidx: usize, flow: usize, item: T) {
        self.queues[qidx].push((flow, item));
        self.work.insert(qidx);
        self.blocked[qidx] = false;
    }

    /// The smallest queue index `>= from` with entries (the live
    /// ascending-scan building block, like [`ActiveSet::first_from`]).
    #[inline]
    pub(crate) fn first_from(&self, from: usize) -> Option<usize> {
        self.work.first_from(from)
    }

    /// Whether queue `qidx` is marked blocked (its last pass booked
    /// nothing and no arrival or external change cleared the mark).
    #[inline]
    pub(crate) fn is_blocked(&self, qidx: usize) -> bool {
        self.blocked[qidx]
    }

    /// Entries in queue `qidx`.
    #[cfg(test)]
    pub(crate) fn raw_len(&self, qidx: usize) -> usize {
        self.queues[qidx].len()
    }

    /// One output-scheduling pass over queue `qidx`: offers each
    /// flow's oldest entry once, oldest first, until `try_book`
    /// succeeds.
    ///
    /// On success the entry is removed and `(entry, booking)` is
    /// returned; the queue is unmarked blocked. On failure the queue
    /// is marked blocked and `None` is returned.
    pub(crate) fn book_first<R>(
        &mut self,
        qidx: usize,
        mut try_book: impl FnMut(&T) -> Option<R>,
    ) -> Option<(T, R)> {
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
            self.blocked[qidx] = true;
            return None;
        };
        self.blocked[qidx] = false;
        let (_, item) = q.remove(i);
        if q.is_empty() {
            self.work.remove(qidx);
        }
        Some((item, r))
    }

    /// Full-scan cross-check (debug builds): the worklist holds
    /// exactly the non-empty queues.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn debug_verify(&self) {
        for (i, q) in self.queues.iter().enumerate() {
            debug_assert_eq!(
                self.work.contains(i),
                !q.is_empty(),
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

    #[test]
    fn books_front_when_possible() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3);
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
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1, 3);
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
    fn booked_flow_rejoins_scan_at_its_next_entry() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1, 3);
        q.push(0, 1, (1, 10));
        q.push(0, 2, (2, 20));
        q.push(0, 1, (1, 11));
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
    fn total_failure_blocks_until_push() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(1, 3);
        q.push(0, 0, (0, 1));
        assert!(q.book_first(0, |_| None::<()>).is_none());
        assert!(q.is_blocked(0));
        q.push(0, 1, (1, 2));
        assert!(!q.is_blocked(0));
        q.debug_verify();
    }

    #[test]
    fn pass_marks_are_shared_by_queues_but_fresh_each_pass() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 2);
        q.push(0, 0, (0, 10));
        q.push(0, 0, (0, 11));
        q.push(1, 0, (0, 20));
        q.push(1, 1, (1, 30));
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
        // And a repeat pass on queue 0 offers flow 0's oldest entry.
        let got = q.book_first(0, |_| Some(()));
        assert_eq!(got, Some(((0, 10), ())));
        q.debug_verify();
    }

    #[test]
    fn clone_is_an_independent_fork() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(2, 3);
        q.push(0, 1, (1, 10));
        q.push(0, 2, (2, 20));
        q.push(1, 0, (0, 30));
        assert!(q.book_first(1, |_| None::<()>).is_none());
        let mut fork = q.clone();
        // Draining the original leaves the fork untouched.
        while let Some(i) = q.first_from(0) {
            let _ = q.book_first(i, |_| Some(()));
        }
        assert_eq!(q.first_from(0), None);
        assert_eq!((fork.raw_len(0), fork.raw_len(1)), (2, 1));
        assert!(fork.is_blocked(1));
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

    /// Naive model of the channel: one arrival-ordered `Vec` per queue
    /// and a linear list of the flows offered so far in a pass.
    struct Model {
        queues: Vec<Vec<Flit>>,
        blocked: Vec<bool>,
    }

    impl Model {
        /// Offers each flow's oldest entry once, oldest first, until
        /// one is accepted. Returns the offered entries and the
        /// booked one.
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
                    self.blocked[qidx] = false;
                    return (offered, Some(flit));
                }
            }
            self.blocked[qidx] = true;
            (offered, None)
        }
    }

    #[test]
    fn random_op_sequences_match_naive_model() {
        use noc_sim::rng::Xoshiro256;
        for seed in 0..40 {
            let mut rng = Xoshiro256::seed_from(seed);
            let num_queues = 3 + rng.next_below(3) as usize;
            let num_flows = 5 + rng.next_below(6) as usize;
            let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(num_queues, num_flows);
            let mut model = Model {
                queues: vec![Vec::new(); num_queues],
                blocked: vec![false; num_queues],
            };
            // Per-seed push and accept rates: short and long queues.
            let push_p = 0.3 + 0.5 * rng.next_f64();
            let accept_p = 0.1 + 0.6 * rng.next_f64();
            for payload in 0..600 {
                let qidx = rng.next_below(num_queues as u64) as usize;
                if rng.bernoulli(push_p) {
                    let flow = rng.next_below(num_flows as u64) as usize;
                    q.push(qidx, flow, (flow, payload));
                    model.queues[qidx].push((flow, payload));
                    model.blocked[qidx] = false;
                } else {
                    let accept: Vec<bool> =
                        (0..num_flows).map(|_| rng.bernoulli(accept_p)).collect();
                    let mut offered = Vec::new();
                    let got = q.book_first(qidx, |f| {
                        offered.push(*f);
                        accept[f.0].then_some(f.1)
                    });
                    let (want_offered, want) = model.book_first(qidx, &accept);
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
                    assert_eq!(
                        q.is_blocked(i),
                        model.blocked[i],
                        "seed {seed}: blocked {i}"
                    );
                    assert_eq!(q.raw_len(i), model.queues[i].len(), "seed {seed}: len {i}");
                }
                for from in 0..=num_queues {
                    let want = (from..num_queues).find(|&i| !model.queues[i].is_empty());
                    assert_eq!(q.first_from(from), want, "seed {seed}: first_from({from})");
                }
                q.debug_verify();
            }
        }
    }

    #[test]
    fn draining_empties_the_worklist() {
        let mut q: LookaheadQueues<Flit> = LookaheadQueues::new(3, 3);
        q.push(2, 0, (0, 1));
        assert_eq!(q.first_from(0), Some(2));
        let _ = q.book_first(2, |_| Some(()));
        assert_eq!(q.first_from(0), None);
        assert_eq!(q.raw_len(2), 0);
        q.debug_verify();
    }
}
