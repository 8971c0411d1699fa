//! Locally-synchronized frame scheduling for one output link.
//!
//! [`LinkScheduler`] implements the paper's Section 4 machinery for a
//! single output port:
//!
//! * the framed **output reservation table** (busy flags + per-slot
//!   virtual credits, Figure 7),
//! * per-flow injection state `(IF_ij, C_ij, R_ij)` and the injection
//!   procedure of **Algorithm 1**,
//! * **Algorithm 2** (`try_schedule`) searching a frame for a valid
//!   slot,
//! * **Algorithm 3** (head-frame/current-pointer advance) driven by
//!   [`LinkScheduler::advance_to`],
//! * the **`skipped` counters and Condition (1)** of Section 4.2 that
//!   eliminate the *output scheduling anomaly* (Theorem I), and
//! * **local status reset** (Section 4.3.2).
//!
//! # Refused flows sleep until something can let them book
//!
//! A refused [`LinkScheduler::schedule`] always leaves its flow at the
//! last window frame, `head + WF − 1`, and from there a retry changes
//! nothing and fails the same way until the scheduler changes in a
//! way that can help that flow. The refusal stamps the flow *blocked*
//! with the scheduler's wake generation, and a stamped flow is
//! refused at once; the generation moves on (a *wake*) at exactly the
//! events that can help, named after the three ways the last frame
//! refuses:
//!
//! * **quota spent** (`C = 0`): only a frame crossing or a local
//!   reset, which wake every flow anyway;
//! * **Condition (1)**: `skipped` of the last frame cannot grow (a
//!   flow yields only frames before its last) and bookings only lower
//!   credits, so only a [`LinkScheduler::return_credit`] at or before
//!   `Prior` that makes Condition (1) hold;
//! * **slot search** (Algorithm 2): only a credit return reaching
//!   into the last frame, or a [`LinkScheduler::complete`] that frees
//!   one of its busy slots.
//!
//! The rule assumes what the network does: a refused flow retries the
//! same request (a look-ahead queue re-offers the flow's oldest flit,
//! with the same `earliest`). Both calls report whether they woke the
//! scheduler, so the network can put the link's parked look-ahead
//! queue back to work (`crate::lookahead`).
//!
//! Time is measured in *quantum slots*: one slot carries one data
//! quantum (`flits_per_quantum` flits) on the link. Slots are
//! absolute `u64`s; the table window covers
//! `[current_slot, current_slot + window_quanta)` and is stored as a
//! ring.
//!
//! Virtual credits are per-slot absolute values, exactly like the
//! paper's table (Figure 5): `credit(s)` is the number of free
//! non-speculative buffer slots at the downstream input port at slot
//! `s`, given everything scheduled so far. Scheduling an arrival at
//! slot `s` decrements the suffix `credit(s..)`; the downstream
//! scheduler returning a departure at slot `d` increments
//! `credit(d..)`.
//!
//! # Idle schedulers are a function of time
//!
//! LSF is locally synchronized: only the scheduler's own link reads
//! its clock. So the owner need not tick it every slot; it calls
//! [`LinkScheduler::advance_to`] with the current slot right before
//! each access. Without pending quanta, `k` missed slots cost at most
//! one window of stepped advances: by then every credit delta is
//! folded and every `skipped` counter cleared, and the rest is a
//! pointer jump. A scheduler nobody has touched since power-up or
//! its last reset (*pristine*) jumps outright. The one rule is that a
//! scheduler with pending quanta must not fall more than a window
//! behind; the network keeps those exactly at the clock.

use noc_sim::flit::FlowId;

/// Static parameters of one link scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsfParams {
    /// Frame size in quantum slots (`F`).
    pub frame_quanta: u32,
    /// Frames in the window (`WF`).
    pub frame_window: u32,
    /// Flits per quantum (reservations `R`/`C` are kept in flits).
    pub flits_per_quantum: u32,
    /// Downstream non-speculative buffer capacity in quanta (`BN`).
    pub buffer_quanta: u32,
    /// `true` for ejection links whose downstream "buffer" is the
    /// destination PE: credits are unlimited and Condition (1) is
    /// waived (there is no buffer to underflow).
    pub sink: bool,
}

impl LsfParams {
    /// Total slots in the table window (`F × WF`).
    pub fn window_quanta(&self) -> u64 {
        self.frame_quanta as u64 * self.frame_window as u64
    }
}

/// Per-flow LSF state: allocated reservation `R` (flits), remaining
/// reservation `C` (flits), and the (absolute) injection frame `IF`.
/// A network holds one per flow per link, so it is kept at 32 bytes.
#[derive(Debug, Clone, Copy)]
struct FlowLsf {
    r_flits: u32,
    c_flits: u32,
    frame: u64,
    /// Slot of the flow's most recent booking: later quanta must book
    /// strictly later slots so same-flow data stays in order even
    /// when earlier slots free up again.
    last_slot: u64,
    /// Reset epoch this entry was last normalized against (see
    /// [`LinkScheduler::normalize_flow`]): entries from an older
    /// epoch are stale and reread as power-up state.
    epoch: u32,
    /// Wake generation of the flow's last refusal: equal to the
    /// scheduler's current one while the flow is blocked (see the
    /// module docs). 0 never matches.
    blocked: u32,
}

const _: () = assert!(std::mem::size_of::<FlowLsf>() <= 32);

/// A quantum scheduled on the link, waiting for its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingQuantum {
    /// Input port of the router holding the quantum.
    pub in_port: u8,
    /// Slot of the quantum's entry in that input port's reservation
    /// store (`crate::port`): carrying the handle here makes
    /// the data plane's emergent present-check and forward path
    /// direct array reads instead of keyed lookups.
    pub res_idx: u16,
}

/// The LSF scheduler of one output link. See the module docs.
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    params: LsfParams,
    /// Current absolute slot (the slot the link is transferring now).
    cp: u64,
    /// Virtual credit of the current slot `cp`. Credits of later
    /// slots are reconstructed as
    /// `credit(s) = cbase + Σ cdelta[ring(t)] for t in (cp, s]` —
    /// a difference representation that turns the paper's suffix
    /// updates (consume/return over `credit(s..)`) into single point
    /// updates.
    cbase: i64,
    /// Ring of credit differences: `cdelta[ring(s)]` is
    /// `credit(s) − credit(s−1)`. The entry for `ring(cp)` is always
    /// zero (the base slot's value lives in `cbase`).
    /// Narrow on purpose — a slot sees a handful of bookings and
    /// returns, and reset, construction and every checkpoint fork
    /// touch the whole ring; updates are overflow-checked.
    cdelta: Vec<i16>,
    /// Ring of busy flags, one bit per slot.
    busy: Vec<u64>,
    /// Busy slots per frame, index `frame % WF` — lets the Algorithm 2
    /// slot search (`try_find`) bail out in O(1) when a frame is fully
    /// booked (the common case at saturation).
    frame_busy: Vec<u32>,
    /// Per-frame sums of `cdelta`, index `frame % (WF + 1)`:
    /// `frame_delta[f]` is `Σ cdelta[ring(s)]` over the in-window
    /// slots of absolute frame `f`. Condition (1) only ever reads the
    /// credit at a frame boundary, which is `cbase` plus whole-frame
    /// sums — so the per-retry hot path of a stalled look-ahead flit
    /// costs O(WF) adds instead of a walk over the window. The
    /// ring is one longer than `WF` because the window spans partial
    /// head and tail frames that share `frame % WF`.
    frame_delta: Vec<i64>,
    /// `ring(cp)`, maintained incrementally so the per-slot hot paths
    /// never divide by the window size.
    cp_ring: usize,
    /// `cp / F`, maintained incrementally (see `cp_ring`).
    head: u64,
    /// `head % WF`, maintained incrementally (see `cp_ring`).
    head_ring: usize,
    /// `cp % F`, maintained incrementally (see `cp_ring`).
    frame_pos: u32,
    /// Per-frame skipped counters (quanta), index `frame % WF`.
    skipped: Vec<u32>,
    /// Registered flows, dense by flow id.
    flows: Vec<FlowLsf>,
    /// Scheduled-but-not-yet-forwarded quanta, sorted by slot. A
    /// sorted vector, not a tree: the set holds a handful of entries,
    /// the data plane polls the minimum on every output link of every
    /// active node each slot, and a vector reuses its buffer forever
    /// where a `BTreeMap` would allocate and free nodes every time
    /// the set drains and refills (which at steady state is every
    /// few slots on every active link).
    pending: Vec<(u64, PendingQuantum)>,
    /// Wake generation, starting at 1: a flow stamped with it is
    /// blocked (see the module docs).
    wake_gen: u32,
    /// Some flow blocked at the current generation failed
    /// Condition (1) at the last frame.
    cond1_waiters: bool,
    /// Some flow blocked at the current generation failed the slot
    /// search of the last frame.
    slot_waiters: bool,
    /// Bumped on every local reset; per-flow entries carry the epoch
    /// they were last written under, making reset O(window) instead
    /// of O(flows) — the network has thousands of flows but only a
    /// handful are live on any one link.
    reset_epoch: u32,
    /// `true` while no booking has happened since power-up/reset.
    fresh: bool,
    /// `true` while nothing at all has touched the scheduler since
    /// power-up/reset: stricter than `fresh`, which survives a failed
    /// [`LinkScheduler::schedule`] (that bumps `skipped` and flow
    /// frames) and a late [`LinkScheduler::return_credit`] (that
    /// moves `cbase`/`cdelta`). Only a pristine scheduler advances in
    /// closed form.
    pristine: bool,
    resets: u64,
}

impl LinkScheduler {
    /// Creates a scheduler with per-flow reservations in **flits**
    /// (`R_ij` of the paper), dense by flow id.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (zero-sized frame or
    /// window).
    pub fn new(params: LsfParams, reservations_flits: &[u32]) -> Self {
        assert!(params.frame_quanta > 0 && params.frame_window > 0);
        assert!(params.flits_per_quantum > 0);
        let window = params.window_quanta() as usize;
        LinkScheduler {
            cp: 0,
            cbase: params.buffer_quanta as i64,
            cdelta: vec![0; window],
            busy: vec![0; window.div_ceil(64)],
            frame_busy: vec![0; params.frame_window as usize],
            frame_delta: vec![0; params.frame_window as usize + 1],
            cp_ring: 0,
            head: 0,
            head_ring: 0,
            frame_pos: 0,
            skipped: vec![0; params.frame_window as usize],
            flows: reservations_flits
                .iter()
                .map(|&r| FlowLsf {
                    r_flits: r,
                    c_flits: r,
                    frame: 0,
                    last_slot: 0,
                    epoch: 0,
                    blocked: 0,
                })
                .collect(),
            pending: Vec::new(),
            wake_gen: 1,
            cond1_waiters: false,
            slot_waiters: false,
            reset_epoch: 0,
            fresh: true,
            pristine: true,
            resets: 0,
            params,
        }
    }

    /// The scheduler's parameters.
    pub fn params(&self) -> &LsfParams {
        &self.params
    }

    /// Current absolute slot.
    pub fn current_slot(&self) -> u64 {
        self.cp
    }

    /// Absolute head frame number (`cp / F`).
    pub fn head_frame(&self) -> u64 {
        self.head
    }

    /// Number of local status resets performed.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Whether `flow` is blocked: refused since the last wake, so that
    /// [`LinkScheduler::schedule`] refuses it again at once (see the
    /// module docs).
    #[inline]
    pub fn is_blocked(&self, flow: FlowId) -> bool {
        self.flows[flow.index()].blocked == self.wake_gen
    }

    /// Wakes every flow: each one's next attempt runs Algorithm 1 in
    /// full. Crossings, resets and the helping credit returns and
    /// completions do this themselves; checks call it on a clone to
    /// re-run a refused attempt.
    pub fn wake_all(&mut self) {
        self.cond1_waiters = false;
        self.slot_waiters = false;
        if self.wake_gen == u32::MAX {
            self.clear_stamps();
        }
        self.wake_gen += 1;
    }

    /// The generation wraps around: clears every stamp so that none
    /// of them can match a reused generation.
    #[cold]
    fn clear_stamps(&mut self) {
        for st in &mut self.flows {
            st.blocked = 0;
        }
        self.wake_gen = 0;
    }

    /// The last frame of the window, where refused flows wait.
    fn last_frame(&self) -> u64 {
        self.head + self.params.frame_window as u64 - 1
    }

    fn ring(&self, slot: u64) -> usize {
        // Every caller passes a slot inside the live window
        // `[cp, cp + window)`, so the ring index follows from `cp`'s
        // maintained index by wraparound addition — no division.
        debug_assert!(slot >= self.cp && slot < self.cp + self.params.window_quanta());
        let d = (slot - self.cp) as usize + self.cp_ring;
        let w = self.cdelta.len();
        if d >= w {
            d - w
        } else {
            d
        }
    }

    #[inline]
    fn is_busy(&self, idx: usize) -> bool {
        self.busy[idx / 64] >> (idx % 64) & 1 != 0
    }

    #[inline]
    fn set_busy(&mut self, idx: usize) {
        self.busy[idx / 64] |= 1 << (idx % 64);
    }

    #[inline]
    fn clear_busy(&mut self, idx: usize) {
        self.busy[idx / 64] &= !(1 << (idx % 64));
    }

    /// Virtual credit of an absolute slot inside the window:
    /// `cbase` plus the deltas of `(cp, slot]`. A plain walk — the
    /// scheduling paths read credits through `frame_delta` anchors
    /// and only cross-check against this in debug builds.
    pub fn credit_at(&self, slot: u64) -> i64 {
        debug_assert!(slot >= self.cp && slot < self.cp + self.params.window_quanta());
        let mut credit = self.cbase;
        let mut idx = self.cp_ring;
        for _ in self.cp..slot {
            idx += 1;
            if idx == self.cdelta.len() {
                idx = 0;
            }
            credit += self.cdelta[idx] as i64;
        }
        credit
    }

    /// Busy flag of an absolute slot inside the window.
    pub fn busy_at(&self, slot: u64) -> bool {
        debug_assert!(slot >= self.cp && slot < self.cp + self.params.window_quanta());
        self.is_busy(self.ring(slot))
    }

    /// The earliest scheduled-and-unforwarded quantum, if any.
    #[inline]
    pub fn first_pending(&self) -> Option<(u64, PendingQuantum)> {
        self.pending.first().copied()
    }

    /// Number of scheduled-and-unforwarded quanta.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Advances the current slot pointer by one: the stepped reference
    /// that [`LinkScheduler::advance_to`] is defined against (callers
    /// use `advance_to`). Implements Algorithm 3: when the
    /// pointer crosses a frame boundary the head frame recycles —
    /// flows stuck at the old head move up with refreshed
    /// reservations and the incoming fresh frame's `skipped` counter
    /// clears.
    pub fn advance_slot(&mut self) {
        let idx = self.cp_ring;
        // The ring entry now represents slot `cp + window`: it
        // inherits the credit of the youngest slot (delta 0 — the
        // entry is already 0 by the `cdelta[ring(cp)] == 0`
        // invariant) and is not busy.
        if self.is_busy(idx) {
            self.clear_busy(idx);
            self.frame_busy[self.head_ring] -= 1;
        }
        self.cp += 1;
        self.cp_ring += 1;
        if self.cp_ring == self.cdelta.len() {
            self.cp_ring = 0;
        }
        // Fold the new base slot's delta into `cbase` so the
        // invariant holds for the new `cp`.
        let nb = self.cp_ring;
        let d = self.cdelta[nb];
        if d != 0 {
            self.cbase += d as i64;
            self.cdelta[nb] = 0;
            // The folded slot is the new `cp`: frame `head`, unless
            // this advance crosses into the next frame.
            let nf = if self.frame_pos + 1 == self.params.frame_quanta {
                self.head + 1
            } else {
                self.head
            };
            let m = self.frame_delta.len() as u64;
            self.frame_delta[(nf % m) as usize] -= d as i64;
        }
        self.frame_pos += 1;
        if self.frame_pos == self.params.frame_quanta {
            // Head frame recycled: flows stuck at the old head catch
            // up lazily in `normalize_flow` on their next access —
            // eagerly sweeping every registered flow here would cost
            // O(flows) per frame on every link in the network.
            self.frame_pos = 0;
            self.head += 1;
            self.head_ring += 1;
            if self.head_ring == self.skipped.len() {
                self.head_ring = 0;
            }
            // The fresh incoming frame `head + WF − 1` maps to the
            // ring entry just behind the new head.
            let fresh = if self.head_ring == 0 {
                self.skipped.len() - 1
            } else {
                self.head_ring - 1
            };
            debug_assert_eq!(self.frame_busy[fresh], 0, "future frame has busy slots");
            self.skipped[fresh] = 0;
            self.wake_all();
        }
    }

    /// Whether every table is in its reset state, so that advancing
    /// only moves pointers (naive scan; debug checks only).
    fn tables_clean(&self) -> bool {
        self.pending.is_empty()
            && self.busy.iter().all(|&w| w == 0)
            && self.cdelta.iter().all(|&d| d == 0)
            && self.frame_delta.iter().all(|&d| d == 0)
            && self.skipped.iter().all(|&s| s == 0)
    }

    /// `k` [`LinkScheduler::advance_slot`] calls over clean tables
    /// as pure pointer arithmetic — `cp`, its ring index, the head
    /// frame, and one wake for any number of crossings. Flow entries stay
    /// untouched (they catch up lazily in `normalize_flow`, exactly as
    /// under stepped advances).
    fn jump(&mut self, k: u64) {
        debug_assert!(self.tables_clean(), "pointer jump over live tables");
        let window = self.cdelta.len() as u64;
        self.cp += k;
        self.cp_ring = ((self.cp_ring as u64 + k) % window) as usize;
        let fq = self.params.frame_quanta as u64;
        let pos = self.frame_pos as u64 + k;
        let crossed = pos / fq;
        self.frame_pos = (pos % fq) as u32;
        if crossed > 0 {
            self.head += crossed;
            self.head_ring =
                ((self.head_ring as u64 + crossed) % self.params.frame_window as u64) as usize;
            self.wake_all();
        }
    }

    /// Brings the scheduler to `slot`: the exact result of
    /// `slot − current_slot()` [`LinkScheduler::advance_slot`] calls,
    /// in O(window) at most (see the module docs). Nothing happens at
    /// the current slot; a pristine scheduler jumps; any other is
    /// stepped for up to one window and jumps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is behind the scheduler. Debug builds also
    /// panic if the jump would cross live tables, i.e. a scheduler
    /// with pending quanta fell more than a window behind.
    pub fn advance_to(&mut self, slot: u64) {
        assert!(slot >= self.cp, "advancing backwards");
        let k = slot - self.cp;
        let stepped = if self.pristine {
            0
        } else {
            k.min(self.params.window_quanta())
        };
        for _ in 0..stepped {
            self.advance_slot();
        }
        if k > stepped {
            self.jump(k - stepped);
        }
    }

    /// Brings a flow's entry up to date before any read: a stale
    /// reset epoch or a frame behind the head both mean the flow
    /// restarts at the head with a full reservation
    /// (`C ← MIN(R, C + R)`; `C ≥ 0` makes this `C ← R`).
    #[inline]
    fn normalize_flow(&mut self, flow: FlowId) {
        let head = self.head_frame();
        let epoch = self.reset_epoch;
        let st = &mut self.flows[flow.index()];
        if st.epoch != epoch || st.frame < head {
            st.epoch = epoch;
            st.frame = head;
            st.c_flits = st.r_flits;
        }
    }

    /// Condition (1) of Section 4.2: flow may inject into `frame`
    /// only if `F − skipped(frame) ≤ credit(Prior)`, where `Prior` is
    /// the table entry immediately preceding the frame.
    ///
    /// The head frame is exempt: its injections are bounded by the
    /// per-frame quotas alone (`ΣR ≤ F ≤ buffer`), which is exactly
    /// how Theorem I's proof bounds `B(X)` for the region containing
    /// frame 0 — and the paper's reconsidered example (flow `mn`
    /// still injecting into the imminent slot of the head frame)
    /// only works under this reading.
    fn condition1(&self, frame: u64) -> bool {
        if self.params.sink {
            return true;
        }
        let head = self.head_frame();
        debug_assert!(frame >= head);
        if frame == head {
            return true;
        }
        // `Prior` is the last slot of frame `frame − 1`, so its credit
        // is `cbase` plus the whole-frame delta sums of every earlier
        // in-window frame — no walk over the slots.
        let m = self.frame_delta.len();
        let mut credit = self.cbase;
        let mut gi = (head % m as u64) as usize;
        for _ in head..frame {
            credit += self.frame_delta[gi];
            gi += 1;
            if gi == m {
                gi = 0;
            }
        }
        #[cfg(debug_assertions)]
        {
            let prior = frame * self.params.frame_quanta as u64 - 1;
            debug_assert!(prior >= self.cp);
            debug_assert_eq!(
                credit,
                self.credit_at(prior),
                "frame_delta sums diverged from the per-slot deltas"
            );
        }
        let skipped = self.skipped[(frame % self.params.frame_window as u64) as usize];
        (self.params.frame_quanta.saturating_sub(skipped)) as i64 <= credit
    }

    /// Algorithm 2: searches `frame` for a valid slot at or after
    /// `earliest` (a free, credit-positive slot). Returns the slot
    /// without mutating state.
    fn try_find(&self, frame: u64, earliest: u64) -> Option<u64> {
        let fq = self.params.frame_quanta as u64;
        let head = self.head_frame();
        let mut candidate = if frame == head {
            self.cp + 1
        } else {
            frame * fq
        };
        candidate = candidate.max(earliest);
        let end = (frame + 1) * fq;
        if candidate >= end {
            return None;
        }
        // Fully booked frame (the common case at saturation): every
        // in-window slot of the frame is busy, so no candidate can
        // exist — bail without scanning.
        let in_window = end - (frame * fq).max(self.cp);
        if self.frame_busy[(frame % self.params.frame_window as u64) as usize] as u64 >= in_window {
            return None;
        }
        let w = self.cdelta.len();
        // Reconstruct the first candidate's credit from the nearest
        // cheap anchor — `cbase` plus whole-frame `frame_delta` sums
        // up to the frame boundary, then a short `cdelta` walk to the
        // candidate (usually a handful of slots past `cp` or the
        // frame start).
        let base = if frame == head { self.cp } else { frame * fq };
        let mut idx = self.ring(base);
        let mut credit = 0;
        if !self.params.sink {
            let m = self.frame_delta.len();
            credit = self.cbase;
            let mut gi = (head % m as u64) as usize;
            for _ in head..frame {
                credit += self.frame_delta[gi];
                gi += 1;
                if gi == m {
                    gi = 0;
                }
            }
            // `cdelta[ring(cp)]` is zero by invariant, so starting
            // the inclusive walk at `base` is exact for both anchors.
            credit += self.cdelta[idx] as i64;
            let mut s = base;
            while s < candidate {
                s += 1;
                idx += 1;
                if idx == w {
                    idx = 0;
                }
                credit += self.cdelta[idx] as i64;
            }
            debug_assert_eq!(
                credit,
                self.credit_at(candidate),
                "anchored credit walk diverged from the per-slot deltas"
            );
        } else {
            idx = self.ring(candidate);
        }
        loop {
            if !self.is_busy(idx) && (self.params.sink || credit > 0) {
                return Some(candidate);
            }
            candidate += 1;
            if candidate >= end {
                return None;
            }
            idx += 1;
            if idx == w {
                idx = 0;
            }
            if !self.params.sink {
                credit += self.cdelta[idx] as i64;
            }
        }
    }

    /// Algorithm 1 with Condition (1): attempts to schedule one
    /// quantum of `flow` departing at or after slot `earliest`.
    ///
    /// On success the slot is marked busy, the credit suffix is
    /// consumed, the pending entry is recorded, and `C_ij` is charged
    /// one quantum. On failure (`None`) the flow's reservations in
    /// the current window are exhausted and the flow is blocked: it is
    /// refused at once until a wake (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `flow` was not registered at construction.
    pub fn schedule(&mut self, flow: FlowId, earliest: u64, entry: PendingQuantum) -> Option<u64> {
        if self.is_blocked(flow) {
            return None;
        }
        let head = self.head_frame();
        let window = self.params.frame_window as u64;
        let q = self.params.flits_per_quantum;
        // Even a failed attempt leaves marks (`skipped`, flow frames).
        self.pristine = false;
        // Lazy catch-up for flows that slept through recycles or a
        // local reset.
        self.normalize_flow(flow);
        // Same-flow bookings must be strictly increasing (in-order
        // delivery of a flow's quanta over this link).
        let earliest = earliest.max(self.flows[flow.index()].last_slot + 1);
        loop {
            let st = self.flows[flow.index()];
            let open = st.c_flits > 0 && self.condition1(st.frame);
            if open {
                if let Some(slot) = self.try_find(st.frame, earliest) {
                    let idx = self.ring(slot);
                    self.set_busy(idx);
                    self.frame_busy[(st.frame % window) as usize] += 1;
                    if !self.params.sink {
                        self.consume_credit(slot, st.frame);
                    }
                    let st = &mut self.flows[flow.index()];
                    st.c_flits = st.c_flits.saturating_sub(q);
                    st.last_slot = slot;
                    let at = self
                        .pending
                        .binary_search_by_key(&slot, |&(s, _)| s)
                        .expect_err("slot double-booked");
                    self.pending.insert(at, (slot, entry));
                    self.fresh = false;
                    return Some(slot);
                }
            }
            // Advance the injection frame, yielding the unused
            // reservation to `skipped` (Section 4.2).
            let st = &mut self.flows[flow.index()];
            if st.frame + 1 < head + window {
                let yielded_quanta = st.c_flits / q;
                self.skipped[(st.frame % window) as usize] += yielded_quanta;
                st.frame += 1;
                st.c_flits = st.r_flits;
            } else {
                // Refused at the last frame: sleep until a wake that
                // can help (quota spent needs none beyond a crossing).
                st.blocked = self.wake_gen;
                if open {
                    self.slot_waiters = true;
                } else if st.c_flits > 0 {
                    self.cond1_waiters = true;
                }
                return None;
            }
        }
    }

    /// Consumes one unit of virtual credit from `slot` to the end of
    /// the window (a quantum will occupy the downstream buffer from
    /// its arrival until its — yet unknown — departure). `frame` is
    /// the absolute frame containing `slot` (the caller knows it).
    fn consume_credit(&mut self, slot: u64, frame: u64) {
        debug_assert!(slot >= self.cp && slot < self.cp + self.params.window_quanta());
        debug_assert_eq!(frame, slot / self.params.frame_quanta as u64);
        // Decrementing the suffix `credit(slot..)` is one point
        // update in the difference representation.
        if slot == self.cp {
            self.cbase -= 1;
        } else {
            self.add_delta(slot, frame, -1);
        }
    }

    /// Point update of the difference ring at in-window `slot > cp`
    /// of absolute frame `frame`, mirrored in the per-frame sums.
    fn add_delta(&mut self, slot: u64, frame: u64, v: i16) {
        let idx = self.ring(slot);
        self.cdelta[idx] = self.cdelta[idx]
            .checked_add(v)
            .expect("credit delta overflows its ring entry");
        let m = self.frame_delta.len() as u64;
        self.frame_delta[(frame % m) as usize] += v as i64;
    }

    /// Returns one unit of virtual credit from `slot` onward: the
    /// downstream scheduler committed to freeing the buffer at
    /// `slot`. Returns whether this woke the scheduler: the raised
    /// credit reaches a blocked flow's slot search, or it makes
    /// Condition (1) hold for the last frame where one failed.
    pub fn return_credit(&mut self, slot: u64) -> bool {
        if self.params.sink {
            return false;
        }
        self.pristine = false;
        let start = slot.max(self.cp);
        if start == self.cp {
            self.cbase += 1;
        } else if start < self.cp + self.params.window_quanta() {
            self.add_delta(start, start / self.params.frame_quanta as u64, 1);
        } else {
            // A return beyond the window is dropped, exactly like the
            // paper's bounded table: the slot is not representable yet.
            return false;
        }
        if !(self.slot_waiters || self.cond1_waiters) {
            return false;
        }
        let last = self.last_frame();
        let fq = self.params.frame_quanta as u64;
        let woke = (self.slot_waiters && start < (last + 1) * fq)
            || (self.cond1_waiters && start < last * fq && self.condition1(last));
        if woke {
            self.wake_all();
        }
        woke
    }

    /// Marks the pending quantum at `slot` as forwarded: clears its
    /// busy flag (freeing the slot for rescheduling — this is how
    /// speculative switching reclaims bandwidth) and removes the
    /// pending entry. Returns whether this woke the scheduler: the
    /// freed slot lies in the last frame, where a slot search failed.
    ///
    /// # Panics
    ///
    /// Panics if no quantum is pending at `slot`.
    pub fn complete(&mut self, slot: u64) -> bool {
        let at = self
            .pending
            .binary_search_by_key(&slot, |&(s, _)| s)
            .expect("completing a slot with no pending quantum");
        self.pending.remove(at);
        if slot < self.cp || slot >= self.cp + self.params.window_quanta() {
            return false;
        }
        let idx = self.ring(slot);
        if !self.is_busy(idx) {
            return false;
        }
        self.clear_busy(idx);
        let frame = slot / self.params.frame_quanta as u64;
        self.frame_busy[(frame % self.params.frame_window as u64) as usize] -= 1;
        let woke = self.slot_waiters && frame == self.last_frame();
        if woke {
            self.wake_all();
        }
        woke
    }

    /// Whether a local status reset is allowed from the scheduler's
    /// perspective: nothing is scheduled and unforwarded. (The
    /// network additionally checks that the downstream
    /// non-speculative buffer is empty.)
    pub fn can_reset(&self) -> bool {
        self.pending.is_empty()
    }

    /// Local status reset (Section 4.3.2): restores every credit to
    /// the full buffer size, clears busy flags and `skipped`, and
    /// gives every flow a fresh full reservation in the head frame.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called while quanta are pending.
    pub fn local_reset(&mut self) {
        debug_assert!(self.can_reset(), "reset with scheduled quanta pending");
        self.cbase = self.params.buffer_quanta as i64;
        self.cdelta.fill(0);
        self.busy.fill(0);
        self.frame_busy.fill(0);
        self.frame_delta.fill(0);
        self.skipped.fill(0);
        // Flow entries refresh lazily: bumping the epoch invalidates
        // all of them at once (see `normalize_flow`).
        self.reset_epoch = self.reset_epoch.wrapping_add(1);
        if self.reset_epoch == 0 {
            self.refresh_flows();
        }
        self.resets += 1;
        self.wake_all();
        self.fresh = true;
        self.pristine = true;
    }

    /// The reset epoch wrapped around, so an entry 2^32 resets old
    /// would read as current: refreshes every entry now instead.
    #[cold]
    fn refresh_flows(&mut self) {
        let head = self.head;
        for st in &mut self.flows {
            st.epoch = 0;
            st.frame = head;
            st.c_flits = st.r_flits;
        }
    }

    /// Whether no booking has happened since power-up or the last
    /// reset. The network resets a link only in a forward that follows
    /// a booking, so this only lets its debug audit tell a link that
    /// reset from one whose reset was missed.
    pub fn is_fresh(&self) -> bool {
        self.fresh
    }

    /// Whether nothing has touched the scheduler since power-up or
    /// its last reset — no [`LinkScheduler::schedule`] attempt and no
    /// credit return — so [`LinkScheduler::advance_to`] jumps it in
    /// closed form (see the module docs).
    pub fn is_pristine(&self) -> bool {
        self.pristine
    }

    /// Remaining reservation (flits) of a flow in its current
    /// injection frame — for tests and diagnostics.
    pub fn remaining_reservation(&self, flow: FlowId) -> u32 {
        let st = self.flows[flow.index()];
        if st.epoch != self.reset_epoch || st.frame < self.head_frame() {
            st.r_flits // stale entry: reads as a fresh full reservation
        } else {
            st.c_flits
        }
    }

    /// The flow's current absolute injection frame.
    pub fn injection_frame(&self, flow: FlowId) -> u64 {
        let st = self.flows[flow.index()];
        if st.epoch != self.reset_epoch {
            self.head_frame()
        } else {
            st.frame.max(self.head_frame())
        }
    }

    /// Smallest credit anywhere in the window — Theorem I says this
    /// never goes negative when the buffer covers a full frame.
    pub fn min_credit(&self) -> i64 {
        // Diagnostic-only: walk the window accumulating deltas.
        let mut value = self.cbase;
        let mut min = value;
        for s in self.cp + 1..self.cp + self.params.window_quanta() {
            value += self.cdelta[self.ring(s)] as i64;
            min = min.min(value);
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper-like small setup: F = 4 slots/frame, WF = 4, 1-flit
    /// quanta, buffer of 4 (the Section 4.2 example).
    fn paper_params() -> LsfParams {
        LsfParams {
            frame_quanta: 4,
            frame_window: 4,
            flits_per_quantum: 1,
            buffer_quanta: 4,
            sink: false,
        }
    }

    fn entry(res_idx: u16) -> PendingQuantum {
        PendingQuantum {
            in_port: 0,
            res_idx,
        }
    }

    #[test]
    fn schedules_in_priority_order() {
        let mut s = LinkScheduler::new(paper_params(), &[2, 2]);
        // First two quanta of flow 0 land in frame 0 (slots 1, 2 —
        // candidate starts at CP+1).
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(0)), Some(1));
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(1)), Some(2));
        assert_eq!(s.remaining_reservation(FlowId::new(0)), 0);
        // Flow 1 still fits in frame 0 (slot 3).
        assert_eq!(s.schedule(FlowId::new(1), 0, entry(0)), Some(3));
    }

    #[test]
    fn condition1_blocks_overbooking_the_anomaly_example() {
        // Section 4.2: flow ij exhausts frame 0, then cannot inject
        // into frame 1 because the consumed credits have not
        // returned; it must skip to frame 2, and flow mn can still
        // use the imminent slot without buffer underflow.
        let mut s = LinkScheduler::new(paper_params(), &[2, 2]);
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(0)), Some(1));
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(1)), Some(2));
        // No credits returned yet: credit(slot ≥ 2) = 2.
        // Flow ij's next quantum: frame 0 exhausted (C = 0); frame 1
        // fails Condition (1): F − skipped(1) = 4 > credit(3) = 2.
        // Frame 2 also fails: credit(7) = 2. Frame 3: credit(11) = 2.
        // All frames blocked → None, and the skipped counters
        // recorded the yielded reservations.
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(2)), None);
        // Now the downstream returns the two credits (it scheduled
        // departures at slots 3 and 4).
        s.return_credit(3);
        s.return_credit(4);
        // Flow ij already yielded frames 1–2 (skipped = 2 each) and
        // sits at frame 3, which now satisfies Condition (1).
        let slot = s.schedule(FlowId::new(0), 0, entry(2)).unwrap();
        assert!(slot >= 12, "slot {slot} should be in frame 3");
        // Flow mn can still take the imminent slot 3 in frame 0 —
        // and the credit there never went negative.
        assert_eq!(s.schedule(FlowId::new(1), 0, entry(0)), Some(3));
        assert!(s.min_credit() >= 0, "Theorem I violated");
    }

    #[test]
    fn skipped_counter_accumulates_yielded_reservations() {
        let mut s = LinkScheduler::new(paper_params(), &[2, 2]);
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(0)), Some(1));
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(1)), Some(2));
        // Exhausts everything; frames 1, 2 each get skipped += 2.
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(2)), None);
        assert_eq!(s.skipped[1], 2);
        assert_eq!(s.skipped[2], 2);
    }

    #[test]
    fn quota_enforced_per_frame() {
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 2,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        let mut s = LinkScheduler::new(params, &[3]);
        let mut frame0 = 0;
        for qid in 0..6 {
            if let Some(slot) = s.schedule(FlowId::new(0), 0, entry(qid)) {
                if slot < 8 {
                    frame0 += 1;
                }
            }
        }
        // R = 3 flits: at most 3 quanta in frame 0.
        assert_eq!(frame0, 3);
    }

    #[test]
    fn head_frame_advance_refreshes_quota() {
        let params = paper_params();
        let mut s = LinkScheduler::new(params, &[2]);
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(0)), Some(1));
        assert_eq!(s.schedule(FlowId::new(0), 0, entry(1)), Some(2));
        assert_eq!(s.remaining_reservation(FlowId::new(0)), 0);
        // Cross a frame boundary: 4 slots.
        for _ in 0..4 {
            s.advance_slot();
        }
        assert_eq!(s.head_frame(), 1);
        // Note the flow's IF was already at frame 0 == old head;
        // Algorithm 3 moved it up and refreshed C.
        assert_eq!(s.remaining_reservation(FlowId::new(0)), 2);
        assert_eq!(s.injection_frame(FlowId::new(0)), 1);
    }

    #[test]
    fn earliest_constraint_respected() {
        let mut s = LinkScheduler::new(paper_params(), &[4]);
        let slot = s.schedule(FlowId::new(0), 6, entry(0)).unwrap();
        assert!(slot >= 6);
        // Slot 6 is in frame 1; frame 0's quota was spent advancing.
        assert_eq!(s.injection_frame(FlowId::new(0)), 1);
    }

    #[test]
    fn busy_slots_are_skipped() {
        let mut s = LinkScheduler::new(paper_params(), &[2, 2]);
        assert_eq!(s.schedule(FlowId::new(0), 1, entry(0)), Some(1));
        assert_eq!(s.schedule(FlowId::new(1), 1, entry(0)), Some(2));
        assert_eq!(s.schedule(FlowId::new(0), 1, entry(1)), Some(3));
    }

    #[test]
    fn complete_clears_busy_and_pending() {
        let mut s = LinkScheduler::new(paper_params(), &[2, 2]);
        let slot = s.schedule(FlowId::new(0), 0, entry(0)).unwrap();
        assert!(s.busy_at(slot));
        assert_eq!(s.first_pending().unwrap().0, slot);
        assert!(!s.complete(slot), "no flow was waiting");
        assert!(!s.busy_at(slot));
        assert!(s.can_reset());
        // The freed slot can be re-booked by another flow (bandwidth
        // reclamation); the same flow must book a later slot to keep
        // its quanta in order.
        assert_eq!(s.schedule(FlowId::new(1), 0, entry(0)), Some(slot));
        let next = s.schedule(FlowId::new(0), 0, entry(1)).unwrap();
        assert!(next > slot);
    }

    #[test]
    fn local_reset_restores_everything() {
        let mut s = LinkScheduler::new(paper_params(), &[2]);
        let slot = s.schedule(FlowId::new(0), 0, entry(0)).unwrap();
        s.complete(slot);
        let slot2 = s.schedule(FlowId::new(0), 0, entry(1)).unwrap();
        assert!(slot2 > slot, "same-flow bookings stay ordered");
        s.complete(slot2);
        assert_eq!(s.remaining_reservation(FlowId::new(0)), 0);
        assert!(s.can_reset());
        s.local_reset();
        assert_eq!(s.remaining_reservation(FlowId::new(0)), 2);
        assert_eq!(s.min_credit(), 4);
        assert_eq!(s.resets(), 1);
    }

    #[test]
    fn sink_ignores_credits() {
        let params = LsfParams {
            sink: true,
            ..paper_params()
        };
        let mut s = LinkScheduler::new(params, &[4]);
        // Far more quanta than the (never consulted) credits.
        for qid in 0..4 {
            assert!(s.schedule(FlowId::new(0), 0, entry(qid)).is_some());
        }
    }

    #[test]
    fn window_ring_wraps_correctly() {
        let mut s = LinkScheduler::new(paper_params(), &[16]);
        // Advance deep into absolute time; schedule and verify slots
        // are always within the live window.
        for _ in 0..1_000 {
            s.advance_slot();
        }
        let cp = s.current_slot();
        let slot = s.schedule(FlowId::new(0), 0, entry(0)).unwrap();
        assert!(slot > cp && slot < cp + 16);
        assert!(s.busy_at(slot));
    }

    /// Books `flow` until it is refused, returning the booked slots.
    fn book_until_refused(s: &mut LinkScheduler, flow: u32) -> Vec<u64> {
        let mut slots = Vec::new();
        while let Some(slot) = s.schedule(FlowId::new(flow), 0, entry(slots.len() as u16)) {
            slots.push(slot);
            assert!(slots.len() < 64, "runaway scheduling");
        }
        assert!(s.is_blocked(FlowId::new(flow)));
        slots
    }

    /// A flow that spent its quota in every frame of the window sleeps
    /// through credit returns and completions: only a frame crossing
    /// or a local reset gives it a fresh reservation.
    #[test]
    fn spent_quota_wakes_only_at_a_crossing_or_reset() {
        let params = LsfParams {
            buffer_quanta: 64,
            ..paper_params()
        };
        let mut s = LinkScheduler::new(params, &[1]);
        let flow = FlowId::new(0);
        // R = 1: one quantum in each of the four frames.
        let slots = book_until_refused(&mut s, 0);
        assert_eq!(slots, vec![1, 4, 8, 12]);
        let mut reset = s.clone();
        for &slot in &slots {
            assert!(!s.return_credit(slot + 1), "a return woke a spent flow");
        }
        for &slot in &slots[..3] {
            assert!(!s.complete(slot), "a completion woke a spent flow");
        }
        assert!(s.is_blocked(flow));
        assert_eq!(s.schedule(flow, 0, entry(9)), None);
        for _ in 0..4 {
            assert!(s.is_blocked(flow), "woke before the crossing");
            s.advance_slot();
        }
        assert!(!s.is_blocked(flow));
        assert_eq!(s.schedule(flow, 0, entry(9)), Some(16));
        for &slot in &slots {
            reset.complete(slot);
        }
        assert!(reset.is_blocked(flow));
        reset.local_reset();
        assert!(!reset.is_blocked(flow));
        assert_eq!(reset.schedule(flow, 0, entry(9)), Some(13));
    }

    /// A flow refused by Condition (1) at the last frame wakes on the
    /// credit return that makes the condition hold — not on one after
    /// `Prior`, not on one that leaves it short, and not on a
    /// completion.
    #[test]
    fn condition1_refusal_wakes_on_the_return_that_satisfies_it() {
        // The Section 4.2 example: two bookings leave credit(Prior) =
        // 2 < F = 4 for every later frame.
        let mut s = LinkScheduler::new(paper_params(), &[2]);
        let flow = FlowId::new(0);
        assert_eq!(book_until_refused(&mut s, 0), vec![1, 2]);
        assert_eq!(s.injection_frame(flow), 3);
        // Prior of the last frame is slot 11: a return at 12 only
        // raises credits inside that frame.
        assert!(!s.return_credit(12));
        assert!(!s.complete(1));
        assert!(!s.return_credit(3), "credit(11) = 3 < 4 still fails");
        assert!(s.is_blocked(flow));
        assert!(s.return_credit(4), "credit(11) = 4 satisfies Condition (1)");
        assert!(!s.is_blocked(flow));
        assert_eq!(s.schedule(flow, 0, entry(2)), Some(12));
    }

    /// A flow refused in the slot search of the last frame wakes on a
    /// completion that frees a slot of that frame, not of another.
    #[test]
    fn slot_search_refusal_wakes_on_a_completion_in_the_last_frame() {
        // An ejection link (no credits) with a two-frame window.
        let params = LsfParams {
            frame_window: 2,
            sink: true,
            ..paper_params()
        };
        let mut s = LinkScheduler::new(params, &[4, 4]);
        let (filler, waiter) = (FlowId::new(0), FlowId::new(1));
        assert_eq!(book_until_refused(&mut s, 0), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.schedule(waiter, 0, entry(0)), None);
        assert!(s.is_blocked(waiter) && s.is_blocked(filler));
        assert!(!s.complete(2), "slot 2 lies in the head frame");
        assert!(!s.return_credit(5), "a sink has no credits");
        assert!(s.is_blocked(waiter));
        assert!(s.complete(5));
        assert!(!s.is_blocked(waiter) && !s.is_blocked(filler));
        assert_eq!(s.schedule(waiter, 0, entry(0)), Some(5));
    }

    /// The 32-bit wake generation and reset epoch wrap around without
    /// a stale entry reading as current.
    #[test]
    fn wake_generation_and_reset_epoch_wrap_around() {
        let mut s = LinkScheduler::new(paper_params(), &[2]);
        let flow = FlowId::new(0);
        s.wake_gen = u32::MAX;
        book_until_refused(&mut s, 0);
        s.wake_all();
        assert_eq!(s.wake_gen, 1);
        assert!(!s.is_blocked(flow), "a stamp survived the wrap-around");
        // The flow's entry was written at epoch 0 with one quantum of
        // its reservation left; 2^32 − 1 resets later, the next one
        // wraps to epoch 0 again.
        let mut s = LinkScheduler::new(paper_params(), &[2]);
        let slot = s.schedule(flow, 0, entry(0)).unwrap();
        s.complete(slot);
        assert_eq!(s.remaining_reservation(flow), 1);
        s.reset_epoch = u32::MAX;
        s.local_reset();
        assert_eq!(s.reset_epoch, 0);
        assert_eq!(s.remaining_reservation(flow), 2);
    }

    /// A scheduler with nothing pending brought `k` slots ahead by
    /// `advance_to` must be indistinguishable from one advanced `k`
    /// times — same clock, head frame, `skipped` counters, credits and
    /// blocked flows, and the same slot granted to the next booking. Only
    /// the first starting state is pristine, only the last is not
    /// fresh.
    #[test]
    fn advance_to_matches_stepped_advance() {
        let preps: [fn(&mut LinkScheduler); 4] = [
            |_| {},
            // A failed booking whose `earliest` lies beyond the
            // window yields every frame's reservation into `skipped`.
            |s| {
                let beyond = s.current_slot() + 1_000;
                assert_eq!(s.schedule(FlowId::new(0), beyond, entry(9)), None);
            },
            // A credit return that reaches the scheduler after its
            // reset (the quantum sat in the speculative buffer).
            |s| {
                let slot = s.schedule(FlowId::new(1), 0, entry(9)).unwrap();
                s.complete(slot);
                s.local_reset();
                s.return_credit(slot + 3);
            },
            // A booking forwarded and never reset (resets off): its
            // consumed credit and busy frame are still in the tables.
            |s| {
                let slot = s.schedule(FlowId::new(1), 0, entry(9)).unwrap();
                s.complete(slot);
            },
        ];
        for (case, prep) in preps.iter().enumerate() {
            for pre in [0u64, 1, 3, 5] {
                for k in [0u64, 1, 2, 4, 7, 16, 100, 1_003] {
                    let at = format!("case={case} pre={pre} k={k}");
                    let mut stepped = LinkScheduler::new(paper_params(), &[2, 2]);
                    for _ in 0..pre {
                        stepped.advance_slot();
                    }
                    prep(&mut stepped);
                    assert_eq!(stepped.is_fresh(), case < 3, "{at}");
                    assert_eq!(stepped.is_pristine(), case == 0, "{at}");
                    let mut jumped = stepped.clone();
                    jumped.advance_to(stepped.current_slot() + k);
                    for _ in 0..k {
                        stepped.advance_slot();
                    }
                    assert_eq!(stepped.current_slot(), jumped.current_slot(), "{at}");
                    assert_eq!(stepped.head_frame(), jumped.head_frame(), "{at}");
                    assert_eq!(stepped.skipped, jumped.skipped, "{at}");
                    assert_eq!(stepped.min_credit(), jumped.min_credit(), "{at}");
                    for flow in [0, 1] {
                        let flow_id = FlowId::new(flow);
                        assert_eq!(
                            stepped.is_blocked(flow_id),
                            jumped.is_blocked(flow_id),
                            "{at} flow={flow}"
                        );
                    }
                    for flow in [0, 1] {
                        assert_eq!(
                            stepped.schedule(FlowId::new(flow), 0, entry(0)),
                            jumped.schedule(FlowId::new(flow), 0, entry(0)),
                            "{at} flow={flow}"
                        );
                    }
                }
            }
        }
    }

    /// A local reset where the scheduler stands, followed by the next
    /// access's `advance_to`, leaves what a reset at the clock leaves:
    /// the network resets an idle link without first stepping it. Each
    /// starting state is idle (nothing pending) and was touched:
    /// bookings forwarded, reservations spent and yielded, a late
    /// credit return.
    #[test]
    fn reset_in_place_matches_reset_at_the_clock() {
        let preps: [fn(&mut LinkScheduler); 3] = [
            |s| {
                for res_idx in 0..3 {
                    let slot = s.schedule(FlowId::new(res_idx % 2), 0, entry(res_idx as u16));
                    s.complete(slot.expect("books"));
                }
            },
            |s| {
                let beyond = s.current_slot() + 1_000;
                assert_eq!(s.schedule(FlowId::new(0), beyond, entry(9)), None);
                let slot = s.schedule(FlowId::new(1), 0, entry(9)).unwrap();
                s.complete(slot);
            },
            |s| {
                let slot = s.schedule(FlowId::new(1), 0, entry(9)).unwrap();
                s.complete(slot);
                s.return_credit(slot + 3);
            },
        ];
        let window = paper_params().window_quanta();
        for (case, prep) in preps.iter().enumerate() {
            for pre in [0u64, 3, 5] {
                for k in [0u64, 1, 3, 4, 9, 16, 100] {
                    let at = format!("case={case} pre={pre} k={k}");
                    let mut start = LinkScheduler::new(paper_params(), &[2, 3]);
                    start.advance_to(pre);
                    prep(&mut start);
                    assert!(start.can_reset() && !start.is_pristine(), "{at}");
                    let target = start.current_slot() + k;
                    let mut in_place = start.clone();
                    in_place.local_reset();
                    in_place.advance_to(target);
                    let mut at_clock = start;
                    at_clock.advance_to(target);
                    at_clock.local_reset();
                    for s in [&in_place, &at_clock] {
                        assert!(s.is_pristine() && s.is_fresh(), "{at}");
                    }
                    assert_eq!(in_place.current_slot(), at_clock.current_slot(), "{at}");
                    assert_eq!(in_place.head_frame(), at_clock.head_frame(), "{at}");
                    assert_eq!(in_place.resets(), at_clock.resets(), "{at}");
                    for slot in target..target + window {
                        assert_eq!(
                            in_place.credit_at(slot),
                            at_clock.credit_at(slot),
                            "{at} slot={slot}"
                        );
                        assert_eq!(
                            in_place.busy_at(slot),
                            at_clock.busy_at(slot),
                            "{at} slot={slot}"
                        );
                    }
                    for flow in (0..2).map(FlowId::new) {
                        assert_eq!(
                            in_place.remaining_reservation(flow),
                            at_clock.remaining_reservation(flow),
                            "{at} {flow:?}"
                        );
                        assert_eq!(
                            in_place.injection_frame(flow),
                            at_clock.injection_frame(flow),
                            "{at} {flow:?}"
                        );
                    }
                }
            }
        }
    }

    /// Theorem I as an executable check: with buffer = F and
    /// Condition (1), credits never go negative no matter how late
    /// the downstream returns them.
    #[test]
    fn theorem1_credits_never_negative_under_stress() {
        use noc_sim::rng::Xoshiro256;
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 3,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        let mut rng = Xoshiro256::seed_from(2024);
        let mut s = LinkScheduler::new(params, &[3, 3, 2]);
        // Arrival slots whose credits have not been returned yet.
        let mut outstanding: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            // Random action mix: schedule, return a credit, advance.
            match rng.next_below(4) {
                0 | 1 => {
                    let flow = FlowId::new(rng.next_below(3) as u32);
                    if let Some(slot) = s.schedule(
                        flow,
                        s.current_slot() + 1,
                        PendingQuantum {
                            in_port: 0,
                            res_idx: 0,
                        },
                    ) {
                        outstanding.push(slot);
                        s.complete(slot);
                    }
                }
                2 => {
                    if !outstanding.is_empty() {
                        let i = rng.next_below(outstanding.len() as u64) as usize;
                        let arr = outstanding.swap_remove(i);
                        // Downstream departs some slots after arrival.
                        let dep = arr + 1 + rng.next_below(6);
                        s.return_credit(dep);
                    }
                }
                _ => s.advance_slot(),
            }
            assert!(
                s.min_credit() >= 0,
                "Theorem I violated: negative virtual credit"
            );
        }
    }
}
