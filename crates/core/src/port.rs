//! The FRS data-plane input port: buffers plus the input reservation
//! table (paper Section 4.2).
//!
//! Each router input port holds a **non-speculative** buffer (space
//! guaranteed by the virtual-credit discipline of [`crate::lsf`]), a
//! small **speculative** buffer for early out-of-order quanta, and the
//! reservation table a look-ahead flit writes on arrival: which output
//! port its data quantum will take and — once booked — in which slot.
//!
//! # Dense slot store
//!
//! The table is a *slot-indexed store*, not a hash map: a look-ahead
//! arrival allocates the lowest free slot in a fixed entry array and
//! hands the slot index ([`ResIdx`]) back to the caller, who threads
//! it through the look-ahead flit and the link scheduler's pending
//! entry. Every hot operation — recording a booking, the emergent
//! present-check, and the forward/release path — is then a direct
//! array index. The only keyed lookup left is matching a *data*
//! arrival to its reservation (the quantum and its look-ahead travel
//! different wires, so the arrival carries no slot index); those
//! entries sit in a small sorted `(key, slot)` index with binary
//! search. A data quantum that outruns its look-ahead (possible under
//! extreme timing configurations) parks in an `orphans` side list that
//! is empty in practice.
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

/// One reservation-store entry: the union of the old reservation
/// table (`out_port`, `dep_slot`) and arrival (`spec`, `pref`) state.
#[derive(Debug, Clone, Copy)]
struct ResEntry {
    /// The quantum this entry belongs to.
    key: QKey,
    /// Output port the quantum will depart through (valid iff
    /// `expected`).
    out_port: u8,
    /// Whether a look-ahead flit wrote this entry (the normal case;
    /// false only for orphaned early data arrivals).
    expected: bool,
    /// Whether the quantum occupies the speculative buffer.
    spec: bool,
    /// Departure slot, once the look-ahead has booked one here.
    dep_slot: Option<u64>,
    /// Handle of the owning packet; `Some` iff the quantum has
    /// physically arrived.
    pref: Option<PacketRef>,
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
    /// Sorted `(key, slot)` index over entries awaiting their data
    /// arrival (`expected && pref.is_none()`).
    pending_arrival: CapVec<(QKey, ResIdx)>,
    /// Entries whose data arrived before the look-ahead
    /// (`!expected`); unsorted, empty in practice.
    orphans: CapVec<(QKey, ResIdx)>,
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
                let e = &entries[slot as usize];
                let rank = (
                    e.dep_slot.expect("ready entries are booked"),
                    e.key.0,
                    e.key.1,
                );
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
                    expected: false,
                    spec: false,
                    dep_slot: None,
                    pref: None,
                };
                cap
            ]),
            free: Cap(free),
            pending_arrival: Cap(Vec::with_capacity(cap.min(64))),
            orphans: CapVec::default(),
            ready: std::array::from_fn(|_| ReadySet {
                mask: vec![0u64; words],
                min: None,
            }),
        }
    }

    /// Allocates the lowest free slot, growing the store if full.
    fn alloc(&mut self, entry: ResEntry) -> ResIdx {
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

    /// Records a look-ahead arrival: writes the reservation entry for
    /// `key` departing through `out_port` and returns its slot index,
    /// which the caller threads through the look-ahead flit and the
    /// scheduler's pending entry for O(1) access later.
    pub fn la_arrive(&mut self, key: QKey, out_port: u8) -> ResIdx {
        // A data quantum that outran its look-ahead already holds a
        // slot; adopt it instead of allocating a duplicate.
        if !self.orphans.is_empty() {
            if let Some(i) = self.orphans.iter().position(|&(k, _)| k == key) {
                let (_, slot) = self.orphans.swap_remove(i);
                let e = &mut self.entries[slot as usize];
                e.out_port = out_port;
                e.expected = true;
                return slot;
            }
        }
        let slot = self.alloc(ResEntry {
            key,
            out_port,
            expected: true,
            spec: false,
            dep_slot: None,
            pref: None,
        });
        let at = self
            .pending_arrival
            .binary_search_by_key(&key, |&(k, _)| k)
            .expect_err("look-ahead delivered twice for one quantum");
        self.pending_arrival.insert(at, (key, slot));
        slot
    }

    /// Records a booked departure slot on reservation entry `idx` and
    /// indexes the quantum as ready if it has already arrived.
    pub fn record_booking(&mut self, idx: ResIdx, key: QKey, slot: u64) {
        let e = &mut self.entries[idx as usize];
        debug_assert_eq!(e.key, key, "booking handle points at a foreign entry");
        debug_assert!(e.expected, "booking without a reservation");
        debug_assert!(e.dep_slot.is_none(), "double booking");
        e.dep_slot = Some(slot);
        if e.pref.is_some() {
            let out = e.out_port as usize;
            self.ready[out].insert(idx, (slot, key.0, key.1));
        }
    }

    /// Records a physical arrival for `key` and indexes the quantum
    /// as ready if its onward slot is already booked.
    pub fn record_arrival(&mut self, key: QKey, spec: bool, pref: PacketRef) {
        match self.pending_arrival.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => {
                let (_, slot) = self.pending_arrival.remove(i);
                let e = &mut self.entries[slot as usize];
                debug_assert!(e.pref.is_none(), "quantum delivered twice");
                e.spec = spec;
                e.pref = Some(pref);
                if let Some(dep) = e.dep_slot {
                    let out = e.out_port as usize;
                    self.ready[out].insert(slot, (dep, key.0, key.1));
                }
            }
            Err(_) => {
                // Data outran the look-ahead: park the arrival until
                // the reservation is written.
                let slot = self.alloc(ResEntry {
                    key,
                    out_port: 0,
                    expected: false,
                    spec,
                    dep_slot: None,
                    pref: Some(pref),
                });
                self.orphans.push((key, slot));
            }
        }
    }

    /// Whether the quantum behind reservation entry `idx` has
    /// physically arrived (the emergent present-check).
    #[inline]
    pub fn arrived_at(&self, idx: ResIdx, key: QKey) -> bool {
        let e = &self.entries[idx as usize];
        debug_assert_eq!(e.key, key, "pending handle points at a foreign entry");
        e.pref.is_some()
    }

    /// The ready quantum with the earliest booked slot for `out`, as
    /// `(dep_slot, flow, qid, store slot)` — ties broken by
    /// `(flow, qid)`; ranks are unique, so the minimum is
    /// storage-order independent.
    #[inline]
    pub fn ready_min(&self, out: usize) -> Option<(u64, u32, u64, ResIdx)> {
        self.ready[out]
            .min
            .map(|((dep, f, q), slot)| (dep, f, q, slot))
    }

    /// Releases reservation entry `idx` on forward/ejection: removes
    /// it from its output's ready set and frees the slot. Returns
    /// `(spec, pref)` of the arrived quantum.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not an arrived, booked quantum.
    pub fn release(&mut self, idx: ResIdx, key: QKey, dep: u64) -> (bool, PacketRef) {
        let e = self.entries[idx as usize];
        debug_assert_eq!(e.key, key, "release handle points at a foreign entry");
        debug_assert_eq!(e.dep_slot, Some(dep), "release with a stale booking");
        let pref = e.pref.expect("forwarded quantum present");
        assert!(e.expected, "forwarded quantum expected");
        self.ready[e.out_port as usize].remove(idx, &self.entries);
        self.entries[idx as usize].pref = None;
        self.free[idx as usize / 64] |= 1 << (idx as usize % 64);
        (e.spec, pref)
    }

    /// Full cross-check of the store's redundant structures (debug
    /// builds): the sorted arrival index, the orphan list, the ready
    /// masks and their cached minima must all agree with a naive scan
    /// over the entries.
    #[cfg(debug_assertions)]
    pub fn debug_verify(&self) {
        let mut ready = vec![Vec::new(); PORTS];
        for (slot, e) in self.entries.iter().enumerate() {
            let free = self.free[slot / 64] & (1 << (slot % 64)) != 0;
            let live = e.pref.is_some() || (e.expected && !free);
            if free {
                continue;
            }
            debug_assert!(live, "occupied slot {slot} holds no live entry");
            if e.expected && e.pref.is_none() {
                debug_assert!(
                    self.pending_arrival
                        .binary_search_by_key(&e.key, |&(k, _)| k)
                        .is_ok_and(|i| self.pending_arrival[i].1 as usize == slot),
                    "awaiting-arrival entry {slot} missing from the index"
                );
            }
            if !e.expected {
                debug_assert!(
                    self.orphans
                        .iter()
                        .any(|&(k, s)| k == e.key && s as usize == slot),
                    "orphan entry {slot} missing from the orphan list"
                );
            }
            if e.expected && e.pref.is_some() {
                if let Some(dep) = e.dep_slot {
                    ready[e.out_port as usize].push(((dep, e.key.0, e.key.1), slot as ResIdx));
                }
            }
        }
        debug_assert!(
            self.pending_arrival.windows(2).all(|w| w[0].0 < w[1].0),
            "arrival index unsorted"
        );
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
        let key: QKey = (0, 7);
        let idx = p.la_arrive(key, 1);
        p.record_arrival(key, false, some_pref());
        assert!(p.ready_min(1).is_none(), "arrived but not booked");
        p.record_booking(idx, key, 9);
        assert_eq!(p.ready_min(1), Some((9, 0, 7, idx)));
        let (spec, _) = p.release(idx, key, 9);
        assert!(!spec);
        assert!(p.ready_min(1).is_none());
        p.debug_verify();
    }

    #[test]
    fn booking_before_arrival_defers_readiness() {
        let mut p = DataPort::new(4, 2, 8);
        let key: QKey = (3, 1);
        let idx = p.la_arrive(key, 4);
        p.record_booking(idx, key, 12);
        assert!(p.ready_min(4).is_none(), "booked but not arrived");
        p.record_arrival(key, true, some_pref());
        assert!(p.arrived_at(idx, key));
        assert_eq!(p.ready_min(4), Some((12, 3, 1, idx)));
        p.debug_verify();
    }

    #[test]
    fn ready_min_is_order_independent() {
        let mut p = DataPort::new(8, 2, 8);
        let mut idxs = Vec::new();
        for (dep, qid) in [(9u64, 1u64), (3, 2), (7, 3)] {
            let key: QKey = (0, qid);
            let idx = p.la_arrive(key, 2);
            p.record_booking(idx, key, dep);
            p.record_arrival(key, false, some_pref());
            idxs.push((key, idx, dep));
        }
        let (key, idx, dep) = idxs[1];
        assert_eq!(p.ready_min(2), Some((3, 0, 2, idx)));
        let _ = p.release(idx, key, dep);
        assert_eq!(p.ready_min(2), Some((7, 0, 3, idxs[2].1)));
        p.debug_verify();
    }

    #[test]
    fn early_data_parks_until_lookahead_arrives() {
        let mut p = DataPort::new(4, 2, 8);
        let key: QKey = (5, 0);
        p.record_arrival(key, true, some_pref());
        p.debug_verify();
        let idx = p.la_arrive(key, 3);
        assert!(p.arrived_at(idx, key), "orphan adopted on look-ahead");
        p.record_booking(idx, key, 4);
        assert_eq!(p.ready_min(3), Some((4, 5, 0, idx)));
        p.debug_verify();
    }

    /// Seeded random op-sequence equivalence against a naive list
    /// model: `ready_min` and `arrived_at` must agree with a full
    /// scan after every operation, across orphan adoption, store
    /// growth, and slot reuse.
    #[test]
    fn slot_store_matches_naive_reference_under_random_ops() {
        #[derive(Clone)]
        struct Ref {
            key: QKey,
            idx: Option<ResIdx>,
            out_port: u8,
            expected: bool,
            dep: Option<u64>,
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
            match rng() % 6 {
                // Look-ahead arrival: adopt an orphan or open a fresh
                // reservation.
                0 | 1 => {
                    let out = (rng() % PORTS as u64) as u8;
                    let orphan = model.iter().position(|r| !r.expected);
                    if let Some(i) = orphan.filter(|_| rng() % 2 == 0) {
                        let key = model[i].key;
                        model[i].idx = Some(p.la_arrive(key, out));
                        model[i].out_port = out;
                        model[i].expected = true;
                    } else {
                        let key: QKey = ((rng() % 3) as u32, next_qid);
                        next_qid += 1;
                        model.push(Ref {
                            key,
                            idx: Some(p.la_arrive(key, out)),
                            out_port: out,
                            expected: true,
                            dep: None,
                            arrived: None,
                        });
                    }
                }
                // Booking on a random unbooked reservation.
                2 => {
                    let pick = (rng() % 4) as usize;
                    if let Some(r) = model
                        .iter_mut()
                        .filter(|r| r.expected && r.dep.is_none())
                        .nth(pick)
                    {
                        let dep = next_dep;
                        next_dep += 1;
                        p.record_booking(r.idx.unwrap(), r.key, dep);
                        r.dep = Some(dep);
                    }
                }
                // Data arrival: for a pending reservation, or early
                // (an orphan with a brand-new key).
                3 => {
                    let spec = rng() % 2 == 0;
                    if rng() % 4 == 0 {
                        let key: QKey = ((rng() % 3) as u32, next_qid);
                        next_qid += 1;
                        p.record_arrival(key, spec, some_pref());
                        model.push(Ref {
                            key,
                            idx: None,
                            out_port: 0,
                            expected: false,
                            dep: None,
                            arrived: Some(spec),
                        });
                    } else {
                        let pick = (rng() % 4) as usize;
                        if let Some(r) = model
                            .iter_mut()
                            .filter(|r| r.expected && r.arrived.is_none())
                            .nth(pick)
                        {
                            p.record_arrival(r.key, spec, some_pref());
                            r.arrived = Some(spec);
                        }
                    }
                }
                // Forward/eject a random ready quantum.
                _ => {
                    let pick = (rng() % 4) as usize;
                    let ready = (0..model.len()).filter(|&i| {
                        let r = &model[i];
                        r.expected && r.dep.is_some() && r.arrived.is_some()
                    });
                    if let Some(i) = ready.clone().nth(pick.min(ready.count().saturating_sub(1))) {
                        let r = model.swap_remove(i);
                        let (spec, _) = p.release(r.idx.unwrap(), r.key, r.dep.unwrap());
                        assert_eq!(spec, r.arrived.unwrap(), "spec flag corrupted");
                    }
                }
            }
            // The store must agree with a full scan of the model.
            for out in 0..PORTS {
                let want = model
                    .iter()
                    .filter(|r| {
                        r.expected
                            && r.out_port as usize == out
                            && r.dep.is_some()
                            && r.arrived.is_some()
                    })
                    .map(|r| (r.dep.unwrap(), r.key.0, r.key.1, r.idx.unwrap()))
                    .min();
                assert_eq!(p.ready_min(out), want, "ready_min diverged at step {step}");
            }
            for r in &model {
                if let Some(idx) = r.idx {
                    assert_eq!(p.arrived_at(idx, r.key), r.arrived.is_some());
                }
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
            let key: QKey = (1, qid);
            let idx = p.la_arrive(key, 0);
            p.record_booking(idx, key, qid);
            p.record_arrival(key, false, some_pref());
            idxs.push(idx);
        }
        p.debug_verify();
        assert_eq!(p.ready_min(0), Some((0, 1, 0, idxs[0])));
        for qid in 0..70u64 {
            let got = p.ready_min(0).expect("entries remain");
            assert_eq!(got.0, qid, "minima leave in booked order");
            let _ = p.release(got.3, (got.1, got.2), got.0);
        }
        assert!(p.ready_min(0).is_none());
        // Freed slots are allocated again, lowest first.
        let idx = p.la_arrive((2, 0), 0);
        assert_eq!(idx, 0);
        p.debug_verify();
    }
}
