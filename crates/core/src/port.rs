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
//! entry is allocated (the lowest free slot of an entry array that
//! starts empty and grows with the quanta in flight) when its
//! look-ahead flit is *sent* towards the port: by the NIC for the
//! local port, and by the upstream output scheduler, right after it
//! books the quantum onward, for a router port. The slot index
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
//!
//! # Ranking by booked slot
//!
//! Ready quanta are ranked by `dep_slot` alone, and that rank is
//! unique per output link: every booked entry at any input port of a
//! router is a pending quantum of the output link it is booked on, a
//! link's pending slots are distinct, and `forward` completes the
//! booking and releases the entry together. So an entry carries no
//! quantum identity at all.

use noc_sim::checkpoint::{Cap, CapVec};
use noc_sim::fabric::PORTS;
use noc_sim::slab::PacketRef;

/// Index of a reservation entry inside one port's slot store.
pub(crate) type ResIdx = u16;

/// One reservation-store entry: the reservation table's `out_port`
/// and `dep_slot` plus the quantum's arrival state.
#[derive(Debug, Clone, Copy)]
struct ResEntry {
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

// A store holds one entry per quantum in flight to its port, so this
// is LOFT's per-quantum reservation footprint.
const _: () = assert!(std::mem::size_of::<ResEntry>() <= 32);

impl ResEntry {
    /// Ready-set rank: the booked departure slot, unique per output
    /// link (see the module docs).
    fn rank(&self) -> u64 {
        self.dep_slot.expect("ready entries are booked")
    }
}

/// Input-port state of a data router: buffers + input reservation
/// table. The slot store starts empty and grows to the most quanta the
/// port ever holds at once; it churns every cycle at that high-water
/// size, which forks keep ([`CapVec`]).
#[derive(Debug, Clone)]
pub(crate) struct DataPort {
    /// Free slots in the non-speculative buffer.
    pub nonspec_free: i64,
    /// Free slots in the speculative buffer.
    pub spec_free: i64,
    /// The slot store. Entries are reused; `masks` tracks vacancy.
    entries: CapVec<ResEntry>,
    /// The store's bitmasks, one word per 64 slots.
    masks: CapVec<MaskWord>,
    /// Per output port, `(dep_slot, slot)` of the earliest ready
    /// quantum, if any. Ranks are unique, so the minimum is
    /// storage-order independent and deterministic.
    ready_min: [Option<(u64, ResIdx)>; PORTS],
}

/// 64 store slots' worth of bitmasks, kept together so a growing store
/// adds one record rather than a word to each of six vectors.
#[derive(Debug, Clone, Copy)]
struct MaskWord {
    /// Bit set = slot free.
    free: u64,
    /// Per output port, bit set = the slot holds an arrived quantum
    /// with a booked departure through that port.
    ready: [u64; PORTS],
}

impl DataPort {
    /// A port with the given buffer depths and an empty slot store.
    pub fn new(nonspec: i64, spec: i64) -> Self {
        DataPort {
            nonspec_free: nonspec,
            spec_free: spec,
            entries: Cap(Vec::new()),
            masks: Cap(Vec::new()),
            ready_min: [None; PORTS],
        }
    }

    /// Allocates the reservation entry of a quantum departing through
    /// `out_port` in the lowest free slot (growing the store if full)
    /// and returns the slot. Called by whoever sends the quantum's
    /// look-ahead flit towards this port.
    pub fn reserve(&mut self, out_port: u8) -> ResIdx {
        let entry = ResEntry {
            out_port,
            spec: false,
            dep_slot: None,
            next: 0,
            pref: None,
        };
        for (w, word) in self.masks.iter_mut().enumerate() {
            if word.free != 0 {
                let b = word.free.trailing_zeros() as usize;
                word.free &= word.free - 1;
                let slot = w * 64 + b;
                self.entries[slot] = entry;
                return slot as ResIdx;
            }
        }
        // Store full: grow by one slot. Bits past the last entry read
        // as taken, so only this path hands them out.
        let slot = self.entries.len();
        assert!(slot < ResIdx::MAX as usize, "slot store capacity overflow");
        if slot.is_multiple_of(64) {
            // Room for the next 64 entries at once: the store grows in
            // whole mask words, so each word costs one reallocation.
            self.entries.reserve(64);
            self.masks.push(MaskWord {
                free: 0,
                ready: [0; PORTS],
            });
        }
        self.entries.push(entry);
        slot as ResIdx
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
            let (out, rank) = (e.out_port as usize, e.rank());
            let (w, b) = (idx as usize / 64, idx as usize % 64);
            let mask = &mut self.masks[w].ready[out];
            debug_assert_eq!(*mask & (1 << b), 0, "ready slot indexed twice");
            *mask |= 1 << b;
            if self.ready_min[out].is_none_or(|(m, _)| rank < m) {
                self.ready_min[out] = Some((rank, idx));
            }
        }
    }

    /// Whether the quantum behind reservation entry `idx` has
    /// physically arrived (the emergent present-check).
    #[inline]
    pub fn arrived_at(&self, idx: ResIdx) -> bool {
        self.entries[idx as usize].pref.is_some()
    }

    /// The ready quantum with the earliest booked slot for `out`, as
    /// `(dep_slot, store slot)`; booked slots are unique per output,
    /// so the minimum is storage-order independent.
    #[inline]
    pub fn ready_min(&self, out: usize) -> Option<(u64, ResIdx)> {
        self.ready_min[out]
    }

    /// Minimum over the ready quanta toward `out`, reading ranks from
    /// the store.
    fn rescan(&self, out: usize) -> Option<(u64, ResIdx)> {
        let mut best: Option<(u64, ResIdx)> = None;
        for (w, word) in self.masks.iter().enumerate() {
            let mut m = word.ready[out];
            while m != 0 {
                let slot = (w * 64 + m.trailing_zeros() as usize) as ResIdx;
                m &= m - 1;
                let rank = self.entries[slot as usize].rank();
                if best.is_none_or(|(b, _)| rank < b) {
                    best = Some((rank, slot));
                }
            }
        }
        best
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
        let (out, w, b) = (e.out_port as usize, idx as usize / 64, idx as usize % 64);
        let word = &mut self.masks[w];
        debug_assert_ne!(word.ready[out] & (1 << b), 0, "removing unindexed slot");
        word.ready[out] &= !(1 << b);
        word.free |= 1 << b;
        self.entries[idx as usize].pref = None;
        // The speculative arbiter almost always forwards the minimum
        // itself, so the rescan runs once per forwarded quantum
        // rather than once per arbitration read.
        if self.ready_min[out].is_some_and(|(_, s)| s == idx) {
            self.ready_min[out] = self.rescan(out);
        }
        (e.spec, pref, e.next)
    }

    /// Entries the slot store has room for without growing.
    #[cfg(test)]
    pub fn store_capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// `(out_port, dep_slot, store slot)` of every ready quantum, by a
    /// naive scan over the occupied entries (debug builds).
    #[cfg(any(test, debug_assertions))]
    pub fn debug_ready(&self) -> impl Iterator<Item = (usize, u64, ResIdx)> + '_ {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            let free = self.masks[slot / 64].free & (1 << (slot % 64)) != 0;
            (!free && e.dep_slot.is_some() && e.pref.is_some())
                .then(|| (e.out_port as usize, e.rank(), slot as ResIdx))
        })
    }

    /// Full cross-check of the ready masks and their cached minima
    /// against [`Self::debug_ready`], and of the rank's uniqueness per
    /// output (debug builds).
    #[cfg(any(test, debug_assertions))]
    pub fn debug_verify(&self) {
        let mut ready = vec![Vec::new(); PORTS];
        for (out, dep, slot) in self.debug_ready() {
            ready[out].push((dep, slot));
        }
        for (out, want) in ready.iter_mut().enumerate() {
            let got = self.rescan(out);
            debug_assert_eq!(
                got,
                want.iter().min().copied(),
                "ready mask minimum drifted at out {out}"
            );
            debug_assert_eq!(
                self.ready_min[out], got,
                "cached minimum stale at out {out}"
            );
            let popcount: u32 = self.masks.iter().map(|w| w.ready[out].count_ones()).sum();
            debug_assert_eq!(
                popcount as usize,
                want.len(),
                "ready mask size at out {out}"
            );
            want.sort_unstable();
            debug_assert!(
                want.windows(2).all(|w| w[0].0 != w[1].0),
                "two ready quanta toward out {out} share a booked slot"
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
        let mut p = DataPort::new(4, 2);
        let idx = p.reserve(1);
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
        let mut p = DataPort::new(4, 2);
        let idx = p.reserve(4);
        p.record_booking(idx, 12, 0);
        assert!(p.ready_min(4).is_none(), "booked but not arrived");
        p.record_arrival(idx, true, some_pref());
        assert!(p.arrived_at(idx));
        assert_eq!(p.ready_min(4), Some((12, idx)));
        p.debug_verify();
    }

    #[test]
    fn ready_min_is_order_independent() {
        let mut p = DataPort::new(8, 2);
        let mut idxs = Vec::new();
        for dep in [9u64, 3, 7] {
            let idx = p.reserve(2);
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
        let mut p = DataPort::new(4, 2);
        let idx = p.reserve(3);
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
    /// bookings, store growth, and slot reuse. Booked slots are drawn
    /// at random but distinct among one output's live bookings, as a
    /// link's pending slots are, so the model ranks by slot alone.
    #[test]
    fn slot_store_matches_naive_reference_under_random_ops() {
        #[derive(Clone)]
        struct Ref {
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
        // The store starts empty: the run must grow it repeatedly.
        let mut p = DataPort::new(64, 64);
        let mut model: Vec<Ref> = Vec::new();
        for step in 0..4_000u32 {
            let pick = (rng() % 4) as usize;
            match rng() % 6 {
                // A look-ahead sent here: open a fresh reservation.
                0 | 1 => {
                    let out = (rng() % PORTS as u64) as u8;
                    model.push(Ref {
                        idx: p.reserve(out),
                        out_port: out,
                        booking: None,
                        arrived: None,
                    });
                }
                // Booking on a random unbooked reservation, arrived
                // or not, at a slot no live booking of its output
                // holds.
                2 => {
                    let Some(i) = (0..model.len())
                        .filter(|&i| model[i].booking.is_none())
                        .nth(pick)
                    else {
                        continue;
                    };
                    let out = model[i].out_port;
                    let dep = loop {
                        let dep = rng() % 256;
                        let taken = model
                            .iter()
                            .any(|r| r.out_port == out && r.booking.is_some_and(|(d, _)| d == dep));
                        if !taken {
                            break dep;
                        }
                    };
                    let booking = (dep, (rng() % 64) as ResIdx);
                    p.record_booking(model[i].idx, booking.0, booking.1);
                    model[i].booking = Some(booking);
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
                    .filter_map(|r| r.booking.map(|(dep, _)| (dep, r.idx)))
                    .min_by_key(|&(dep, _)| dep);
                assert_eq!(p.ready_min(out), want, "ready_min diverged at step {step}");
            }
            for r in &model {
                assert_eq!(p.arrived_at(r.idx), r.arrived.is_some());
            }
            if step % 64 == 0 {
                p.debug_verify();
            }
        }
        assert!(
            p.entries.len() > 64,
            "the run should grow the store past a mask word"
        );
    }

    #[test]
    fn store_starts_empty_and_reuses_slots_as_it_grows() {
        let mut p = DataPort::new(64, 2);
        assert!(p.entries.is_empty() && p.masks.is_empty());
        // Fill past one mask word; every entry stays reachable.
        let mut idxs = Vec::new();
        for dep in 0..70u64 {
            let idx = p.reserve(0);
            p.record_booking(idx, dep, 0);
            p.record_arrival(idx, false, some_pref());
            idxs.push(idx);
        }
        assert_eq!(p.entries.len(), 70);
        p.debug_verify();
        assert_eq!(p.ready_min(0), Some((0, idxs[0])));
        for dep in 0..70u64 {
            let (got, idx) = p.ready_min(0).expect("entries remain");
            assert_eq!(got, dep, "minima leave in booked order");
            let _ = p.release(idx, got);
        }
        assert!(p.ready_min(0).is_none());
        // Freed slots are allocated again, lowest first, without growth.
        assert_eq!(p.reserve(0), 0);
        assert_eq!(p.entries.len(), 70);
        p.debug_verify();
    }
}
