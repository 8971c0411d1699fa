//! The FRS data-plane input port: buffers plus the input reservation
//! table (paper Section 4.2).
//!
//! Each router input port holds a **non-speculative** buffer (space
//! guaranteed by the virtual-credit discipline of [`crate::lsf`]), a
//! small **speculative** buffer for early out-of-order quanta, and the
//! reservation table a look-ahead flit writes: which output port its
//! data quantum will take and — once booked — in which slot.
//!
//! # Dense slot store
//!
//! The table is a *slot-indexed store*, not a hash map. A quantum's
//! entry is allocated (the lowest free slot of a fixed entry array)
//! when its look-ahead flit is *sent* towards the port: by the NIC for
//! the local port, and by the upstream output scheduler, right after
//! it books the quantum onward, for a router port. The slot index
//! ([`ResIdx`]) then rides the records that travel anyway — the
//! look-ahead flit, the link scheduler's pending entry, the upstream
//! entry (`next`) and the data quantum on the wire — so every
//! operation is a direct array index: recording a booking, recording
//! a data arrival, the emergent present-check, and the forward/release
//! path. The look-ahead and its data quantum may reach the port in
//! either order; whichever comes second completes the entry.
//!
//! Allocating at the sender is simulator bookkeeping: what an entry
//! holds, and when anything reads it, are as in Section 3.2. The
//! output port and booked slot are only read once the look-ahead has
//! been scheduled here, and a quantum whose data lands first just
//! waits in its buffer for that booking.
//!
//! A quantum becomes *ready* when it has physically arrived and its
//! onward slot is booked; ready quanta are indexed per output port as
//! bitmasks over store slots with a cached minimum, so the speculative
//! arbiter reads its earliest candidate in O(1) and pays a mask rescan
//! only when the cached minimum itself forwards.

use noc_sim::checkpoint::{Cap, CapVec};
use noc_sim::fabric::PORTS;
use noc_sim::slab::PacketRef;

/// A quantum's identity: `(flow, qid)`.
pub(crate) type QKey = (u32, u64);

/// Index of a reservation entry inside one port's slot store.
pub(crate) type ResIdx = u16;

/// One reservation-store entry: the reservation table's `out_port`
/// and `dep_slot` plus the quantum's arrival state.
#[derive(Debug, Clone, Copy)]
struct ResEntry {
    /// The quantum this entry belongs to.
    key: QKey,
    /// Output port the quantum will depart through.
    out_port: u8,
    /// Whether the quantum occupies the speculative buffer.
    spec: bool,
    /// Departure slot, once the look-ahead has booked one here.
    dep_slot: Option<u64>,
    /// The quantum's entry at the receiving input port, allocated with
    /// the booking (unused when the booking is an ejection).
    next: ResIdx,
    /// Handle of the owning packet; `Some` iff the quantum has
    /// physically arrived.
    pref: Option<PacketRef>,
}

impl ResEntry {
    /// Ready-set rank: `(dep_slot, flow, qid)`, unique per quantum.
    fn rank(&self) -> (u64, u32, u64) {
        let dep = self.dep_slot.expect("ready entries are booked");
        (dep, self.key.0, self.key.1)
    }
}

/// Input-port state of a data router: buffers + input reservation
/// table. The slot store and its indexes churn every cycle at their
/// warmup high-water size, which forks keep ([`CapVec`]).
#[derive(Debug, Clone)]
pub(crate) struct DataPort {
    /// Free slots in the non-speculative buffer.
    pub nonspec_free: i64,
    /// Free slots in the speculative buffer.
    pub spec_free: i64,
    /// The slot store. Entries are reused; `free` tracks vacancy.
    entries: CapVec<ResEntry>,
    /// Bitmask over `entries`: bit set = slot free.
    free: CapVec<u64>,
    /// Arrived quanta with a booked departure, per output port.
    ready: [ReadySet; PORTS],
}

/// One output port's ready set: a bitmask over store slots with the
/// cached minimum by `(dep_slot, flow, qid)`. Ranks are unique, so
/// the minimum is storage-order independent and deterministic.
#[derive(Debug, Default, Clone)]
struct ReadySet {
    mask: Vec<u64>,
    /// `(rank, slot)` of the minimum entry, if any.
    min: Option<((u64, u32, u64), ResIdx)>,
}

impl ReadySet {
    #[inline]
    fn insert(&mut self, slot: ResIdx, rank: (u64, u32, u64)) {
        let (w, b) = (slot as usize / 64, slot as usize % 64);
        debug_assert_eq!(self.mask[w] & (1 << b), 0, "ready slot indexed twice");
        self.mask[w] |= 1 << b;
        if self.min.is_none_or(|(m, _)| rank < m) {
            self.min = Some((rank, slot));
        }
    }

    #[inline]
    fn remove(&mut self, slot: ResIdx, entries: &[ResEntry]) {
        let (w, b) = (slot as usize / 64, slot as usize % 64);
        debug_assert_ne!(self.mask[w] & (1 << b), 0, "removing unindexed slot");
        self.mask[w] &= !(1 << b);
        // The speculative arbiter almost always removes the minimum
        // itself, so the rescan runs once per forwarded quantum
        // rather than once per arbitration read.
        if self.min.is_some_and(|(_, s)| s == slot) {
            self.min = self.rescan(entries);
        }
    }

    /// Minimum over all set bits, reading ranks from the store.
    fn rescan(&self, entries: &[ResEntry]) -> Option<((u64, u32, u64), ResIdx)> {
        let mut best: Option<((u64, u32, u64), ResIdx)> = None;
        for (w, &word) in self.mask.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                let slot = (w * 64 + m.trailing_zeros() as usize) as ResIdx;
                m &= m - 1;
                let rank = entries[slot as usize].rank();
                if best.is_none_or(|(b, _)| rank < b) {
                    best = Some((rank, slot));
                }
            }
        }
        best
    }
}

impl DataPort {
    /// A port with the given buffer depths whose slot store starts at
    /// `capacity` entries. The store grows (amortized, rare) if the
    /// resident-quanta bound ever exceeds the initial capacity.
    pub fn new(nonspec: i64, spec: i64, capacity: usize) -> Self {
        let cap = capacity.max(1);
        assert!(cap <= ResIdx::MAX as usize, "slot store capacity overflow");
        let words = cap.div_ceil(64);
        let mut free = vec![!0u64; words];
        // Mask off the bits past `cap` so allocation never hands out
        // a slot with no entry behind it.
        if !cap.is_multiple_of(64) {
            free[words - 1] = (1u64 << (cap % 64)) - 1;
        }
        DataPort {
            nonspec_free: nonspec,
            spec_free: spec,
            entries: Cap(vec![
                ResEntry {
                    key: (0, 0),
                    out_port: 0,
                    spec: false,
                    dep_slot: None,
                    next: 0,
                    pref: None,
                };
                cap
            ]),
            free: Cap(free),
            ready: std::array::from_fn(|_| ReadySet {
                mask: vec![0u64; words],
                min: None,
            }),
        }
    }

    /// Allocates the reservation entry of quantum `key`, departing
    /// through `out_port`, in the lowest free slot (growing the store
    /// if full) and returns the slot. Called by whoever sends the
    /// quantum's look-ahead flit towards this port.
    pub fn reserve(&mut self, key: QKey, out_port: u8) -> ResIdx {
        let entry = ResEntry {
            key,
            out_port,
            spec: false,
            dep_slot: None,
            next: 0,
            pref: None,
        };
        for (w, word) in self.free.iter_mut().enumerate() {
            if *word != 0 {
                let b = word.trailing_zeros() as usize;
                *word &= *word - 1;
                let slot = w * 64 + b;
                self.entries[slot] = entry;
                return slot as ResIdx;
            }
        }
        // Store full: grow by one slot (and a mask word per 64).
        let slot = self.entries.len();
        assert!(slot < ResIdx::MAX as usize, "slot store capacity overflow");
        self.entries.push(entry);
        if slot.is_multiple_of(64) {
            self.free.push(0);
            for r in &mut self.ready {
                r.mask.push(0);
            }
        }
        slot as ResIdx
    }

    /// The quantum behind reservation entry `idx`.
    #[inline]
    pub fn key(&self, idx: ResIdx) -> QKey {
        self.entries[idx as usize].key
    }

    /// Records a booked departure slot on reservation entry `idx`,
    /// with `next` the quantum's entry at the receiving port, and
    /// indexes the quantum as ready if it has already arrived.
    pub fn record_booking(&mut self, idx: ResIdx, slot: u64, next: ResIdx) {
        let e = &mut self.entries[idx as usize];
        debug_assert!(e.dep_slot.is_none(), "double booking");
        e.dep_slot = Some(slot);
        e.next = next;
        self.index_if_ready(idx);
    }

    /// Records the physical arrival of the quantum behind entry `idx`
    /// and indexes it as ready if its onward slot is already booked.
    pub fn record_arrival(&mut self, idx: ResIdx, spec: bool, pref: PacketRef) {
        let e = &mut self.entries[idx as usize];
        debug_assert!(e.pref.is_none(), "quantum delivered twice");
        e.spec = spec;
        e.pref = Some(pref);
        self.index_if_ready(idx);
    }

    fn index_if_ready(&mut self, idx: ResIdx) {
        let e = &self.entries[idx as usize];
        if e.dep_slot.is_some() && e.pref.is_some() {
            self.ready[e.out_port as usize].insert(idx, e.rank());
        }
    }

    /// Whether the quantum behind reservation entry `idx` has
    /// physically arrived (the emergent present-check).
    #[inline]
    pub fn arrived_at(&self, idx: ResIdx) -> bool {
        self.entries[idx as usize].pref.is_some()
    }

    /// The ready quantum with the earliest booked slot for `out`, as
    /// `(dep_slot, store slot)` — ties broken by `(flow, qid)`; ranks
    /// are unique, so the minimum is storage-order independent.
    #[inline]
    pub fn ready_min(&self, out: usize) -> Option<(u64, ResIdx)> {
        self.ready[out].min.map(|((dep, _, _), slot)| (dep, slot))
    }

    /// Releases reservation entry `idx` on forward/ejection: removes
    /// it from its output's ready set and frees the slot. Returns
    /// `(spec, pref, next)` of the arrived quantum.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not an arrived quantum.
    pub fn release(&mut self, idx: ResIdx, dep: u64) -> (bool, PacketRef, ResIdx) {
        let e = self.entries[idx as usize];
        debug_assert_eq!(e.dep_slot, Some(dep), "release with a stale booking");
        let pref = e.pref.expect("forwarded quantum present");
        self.ready[e.out_port as usize].remove(idx, &self.entries);
        self.entries[idx as usize].pref = None;
        self.free[idx as usize / 64] |= 1 << (idx as usize % 64);
        (e.spec, pref, e.next)
    }

    /// Full cross-check of the ready masks and their cached minima
    /// against a naive scan over the occupied entries (debug builds).
    #[cfg(any(test, debug_assertions))]
    pub fn debug_verify(&self) {
        let mut ready = vec![Vec::new(); PORTS];
        for (slot, e) in self.entries.iter().enumerate() {
            let free = self.free[slot / 64] & (1 << (slot % 64)) != 0;
            if !free && e.dep_slot.is_some() && e.pref.is_some() {
                ready[e.out_port as usize].push((e.rank(), slot as ResIdx));
            }
        }
        for (out, want) in ready.iter().enumerate() {
            let got = self.ready[out].rescan(&self.entries);
            debug_assert_eq!(
                got,
                want.iter().min().copied(),
                "ready mask minimum drifted at out {out}"
            );
            debug_assert_eq!(
                self.ready[out].min, got,
                "cached minimum stale at out {out}"
            );
            let popcount: u32 = self.ready[out].mask.iter().map(|w| w.count_ones()).sum();
            debug_assert_eq!(
                popcount as usize,
                want.len(),
                "ready mask size at out {out}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
    use noc_sim::slab::PacketStore;

    fn some_pref() -> PacketRef {
        let mut store = PacketStore::new();
        store.insert(Packet::new(
            PacketId {
                flow: FlowId::new(0),
                seq: 0,
            },
            NodeId::new(0),
            NodeId::new(1),
            4,
            0,
        ))
    }

    #[test]
    fn ready_requires_arrival_and_booking() {
        let mut p = DataPort::new(4, 2, 8);
        let idx = p.reserve((0, 7), 1);
        p.record_arrival(idx, false, some_pref());
        assert!(p.ready_min(1).is_none(), "arrived but not booked");
        p.record_booking(idx, 9, 0);
        assert_eq!(p.ready_min(1), Some((9, idx)));
        let (spec, _, _) = p.release(idx, 9);
        assert!(!spec);
        assert!(p.ready_min(1).is_none());
        p.debug_verify();
    }

    #[test]
    fn booking_before_arrival_defers_readiness() {
        let mut p = DataPort::new(4, 2, 8);
        let idx = p.reserve((3, 1), 4);
        p.record_booking(idx, 12, 0);
        assert!(p.ready_min(4).is_none(), "booked but not arrived");
        p.record_arrival(idx, true, some_pref());
        assert!(p.arrived_at(idx));
        assert_eq!(p.ready_min(4), Some((12, idx)));
        p.debug_verify();
    }

    #[test]
    fn ready_min_is_order_independent() {
        let mut p = DataPort::new(8, 2, 8);
        let mut idxs = Vec::new();
        for (dep, qid) in [(9u64, 1u64), (3, 2), (7, 3)] {
            let idx = p.reserve((0, qid), 2);
            p.record_booking(idx, dep, 0);
            p.record_arrival(idx, false, some_pref());
            idxs.push((idx, dep));
        }
        let (idx, dep) = idxs[1];
        assert_eq!(p.ready_min(2), Some((3, idx)));
        let _ = p.release(idx, dep);
        assert_eq!(p.ready_min(2), Some((7, idxs[2].0)));
        p.debug_verify();
    }

    /// Data that outruns its look-ahead lands in the entry its sender
    /// allocated and waits there, arrived but unranked, until the
    /// booking comes; the booking's onward handle survives the wait.
    #[test]
    fn data_arrives_before_its_lookahead_is_booked() {
        let mut p = DataPort::new(4, 2, 8);
        let idx = p.reserve((5, 0), 3);
        p.record_arrival(idx, true, some_pref());
        assert!(p.arrived_at(idx));
        assert!(p.ready_min(3).is_none(), "ranked before its booking");
        p.debug_verify();
        p.record_booking(idx, 4, 6);
        assert_eq!(p.ready_min(3), Some((4, idx)));
        let (spec, _, next) = p.release(idx, 4);
        assert!(spec, "speculative arrival lost its buffer");
        assert_eq!(next, 6);
        p.debug_verify();
    }

    /// Seeded random op-sequence equivalence against a naive list
    /// model: `ready_min` and `arrived_at` must agree with a full
    /// scan after every operation, with arrivals before and after
    /// bookings, store growth, and slot reuse.
    #[test]
    fn slot_store_matches_naive_reference_under_random_ops() {
        #[derive(Clone)]
        struct Ref {
            key: QKey,
            idx: ResIdx,
            out_port: u8,
            /// `(dep, next)` once booked.
            booking: Option<(u64, ResIdx)>,
            /// `Some(spec)` once the data quantum arrived.
            arrived: Option<bool>,
        }
        let mut state = 0x0DDB1A5E5BAD5EEDu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Tiny initial store: the run must outgrow it repeatedly.
        let mut p = DataPort::new(64, 64, 4);
        let mut model: Vec<Ref> = Vec::new();
        let mut next_qid = 0u64;
        let mut next_dep = 0u64;
        for step in 0..4_000u32 {
            let pick = (rng() % 4) as usize;
            match rng() % 6 {
                // A look-ahead sent here: open a fresh reservation.
                0 | 1 => {
                    let out = (rng() % PORTS as u64) as u8;
                    let key: QKey = ((rng() % 3) as u32, next_qid);
                    next_qid += 1;
                    model.push(Ref {
                        key,
                        idx: p.reserve(key, out),
                        out_port: out,
                        booking: None,
                        arrived: None,
                    });
                }
                // Booking on a random unbooked reservation, arrived
                // or not.
                2 => {
                    if let Some(r) = model.iter_mut().filter(|r| r.booking.is_none()).nth(pick) {
                        let booking = (next_dep, (rng() % 64) as ResIdx);
                        next_dep += 1;
                        p.record_booking(r.idx, booking.0, booking.1);
                        r.booking = Some(booking);
                    }
                }
                // Data arrival on a random reservation, booked or not.
                3 => {
                    let spec = rng() % 2 == 0;
                    if let Some(r) = model.iter_mut().filter(|r| r.arrived.is_none()).nth(pick) {
                        p.record_arrival(r.idx, spec, some_pref());
                        r.arrived = Some(spec);
                    }
                }
                // Forward/eject a random ready quantum.
                _ => {
                    let ready = (0..model.len())
                        .filter(|&i| model[i].booking.is_some() && model[i].arrived.is_some());
                    if let Some(i) = ready.clone().nth(pick.min(ready.count().saturating_sub(1))) {
                        let r = model.swap_remove(i);
                        let (dep, next) = r.booking.unwrap();
                        let (spec, _, got_next) = p.release(r.idx, dep);
                        assert_eq!(spec, r.arrived.unwrap(), "spec flag corrupted");
                        assert_eq!(got_next, next, "onward handle corrupted");
                    }
                }
            }
            // The store must agree with a full scan of the model.
            for out in 0..PORTS {
                let want = model
                    .iter()
                    .filter(|r| r.out_port as usize == out && r.arrived.is_some())
                    .filter_map(|r| r.booking.map(|(dep, _)| ((dep, r.key), r.idx)))
                    .min()
                    .map(|((dep, _), idx)| (dep, idx));
                assert_eq!(p.ready_min(out), want, "ready_min diverged at step {step}");
            }
            for r in &model {
                assert_eq!(p.key(r.idx), r.key);
                assert_eq!(p.arrived_at(r.idx), r.arrived.is_some());
            }
            if step % 64 == 0 {
                p.debug_verify();
            }
        }
        assert!(p.entries.len() > 4, "the run should outgrow the store");
    }

    #[test]
    fn slots_are_reused_and_store_grows_past_capacity() {
        let mut p = DataPort::new(64, 2, 2);
        // Fill past the initial capacity; every entry stays reachable.
        let mut idxs = Vec::new();
        for qid in 0..70u64 {
            let idx = p.reserve((1, qid), 0);
            p.record_booking(idx, qid, 0);
            p.record_arrival(idx, false, some_pref());
            idxs.push(idx);
        }
        p.debug_verify();
        assert_eq!(p.ready_min(0), Some((0, idxs[0])));
        for qid in 0..70u64 {
            let (dep, idx) = p.ready_min(0).expect("entries remain");
            assert_eq!(dep, qid, "minima leave in booked order");
            let _ = p.release(idx, dep);
        }
        assert!(p.ready_min(0).is_none());
        // Freed slots are allocated again, lowest first.
        assert_eq!(p.reserve((2, 0), 0), 0);
        p.debug_verify();
    }
}
