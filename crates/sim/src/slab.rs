//! Generational slab storage for in-flight packets.
//!
//! Every network in this workspace keeps the packets it is sending —
//! from the moment it starts sending one (its first flit or quantum
//! leaves the source queue) to its last ejected flit — in one
//! [`PacketStore`] and moves [`PacketRef`] handles through its
//! datapath instead of [`Packet`] structs. A packet still waiting in
//! its source queue is a [`Waiting`](crate::flit::Waiting) record
//! there, not a slab slot. A handle is 8 bytes, `Copy`, and `Send`;
//! resolving one is a single array index instead of a hash lookup, and
//! a delivered packet's slot goes back on a free list, so the steady
//! state of a saturated network performs no heap allocation per cycle
//! for packet bookkeeping.
//!
//! Slots are *generational*: each carries a generation counter bumped
//! on every [`PacketStore::remove`], and handles embed the generation
//! they were issued under. Debug builds panic on any access through a
//! stale handle (a use-after-free of a recycled slot); release builds
//! skip the check — the datapaths hand every reference back exactly
//! once by construction, and the golden determinism pins would catch
//! any aliasing slip as a behaviour change.

use crate::checkpoint::{Cap, CapVec};
use crate::flit::Packet;

/// A `Copy` handle to a packet owned by a [`PacketStore`].
///
/// Handles are only meaningful for the store that issued them, and
/// only until that packet is [`remove`](PacketStore::remove)d.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

impl PacketRef {
    /// The slot index (diagnostics only; not stable across recycles).
    #[must_use]
    pub fn slot(self) -> usize {
        self.idx as usize
    }
}

#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    /// Ejected pieces (flits or quanta) seen so far — the per-packet
    /// reassembly counter the ejection path needs, stored here so it
    /// costs no extra map.
    pieces: u16,
    packet: Option<Packet>,
}

/// A generational slab owning every in-flight packet.
///
/// # Example
///
/// ```
/// use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
/// use noc_sim::slab::PacketStore;
///
/// let mut store = PacketStore::new();
/// let id = PacketId { flow: FlowId::new(0), seq: 0 };
/// let r = store.insert(Packet::new(id, NodeId::new(0), NodeId::new(1), 4, 0));
/// assert_eq!(store.get(r).id, id);
/// assert_eq!(store.len(), 1);
/// let p = store.remove(r);
/// assert_eq!(p.id, id);
/// assert!(store.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketStore {
    /// The slots; a fork keeps their capacity ([`CapVec`]).
    slots: CapVec<Slot>,
    /// Indices of vacant slots, reused LIFO (hot slots stay hot).
    free: CapVec<u32>,
    live: usize,
}

impl PacketStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        PacketStore::default()
    }

    /// An empty store with room for `cap` packets before growing.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        PacketStore {
            slots: Cap(Vec::with_capacity(cap)),
            free: Cap(Vec::with_capacity(cap)),
            live: 0,
        }
    }

    /// Takes ownership of `packet`, returning its handle. Reuses a
    /// vacant slot when one exists; grows the slab otherwise.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.packet.is_none(), "free list holds a live slot");
            slot.pieces = 0;
            slot.packet = Some(packet);
            PacketRef { idx, gen: slot.gen }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                pieces: 0,
                packet: Some(packet),
            });
            PacketRef { idx, gen: 0 }
        }
    }

    #[inline]
    fn slot(&self, r: PacketRef) -> &Slot {
        let slot = &self.slots[r.idx as usize];
        debug_assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} was recycled (gen {} != {})",
            r.idx, slot.gen, r.gen
        );
        slot
    }

    #[inline]
    fn slot_mut(&mut self, r: PacketRef) -> &mut Slot {
        let slot = &mut self.slots[r.idx as usize];
        debug_assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} was recycled (gen {} != {})",
            r.idx, slot.gen, r.gen
        );
        slot
    }

    /// The packet behind `r`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant; debug builds also panic when `r`
    /// is stale (generation mismatch).
    #[inline]
    #[must_use]
    pub fn get(&self, r: PacketRef) -> &Packet {
        self.slot(r).packet.as_ref().expect("packet is in flight")
    }

    /// Mutable access to the packet behind `r` (timestamp stamping).
    ///
    /// # Panics
    ///
    /// Same conditions as [`PacketStore::get`].
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        self.slot_mut(r)
            .packet
            .as_mut()
            .expect("packet is in flight")
    }

    /// Removes and returns the packet, recycling its slot: the slot's
    /// generation is bumped (invalidating outstanding handles) and its
    /// index goes on the free list.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PacketStore::get`].
    pub fn remove(&mut self, r: PacketRef) -> Packet {
        let slot = self.slot_mut(r);
        let packet = slot.packet.take().expect("packet is in flight");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(r.idx);
        self.live -= 1;
        packet
    }

    /// Records one ejected piece (flit or quantum) of `r` at `node`.
    /// On the piece that completes the packet (`total` pieces seen),
    /// removes it (recycling its slot), stamps `ejected_at`, and
    /// returns it — exactly once per packet. A packet ejects at
    /// exactly one node, its destination (cross-checked by a debug
    /// assertion), so the counter in its slot is all the reassembly
    /// state ejection needs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PacketStore::get`].
    pub fn on_piece(
        &mut self,
        node: usize,
        r: PacketRef,
        total: u16,
        ejected_at: u64,
    ) -> Option<Packet> {
        let slot = self.slot_mut(r);
        debug_assert!(slot.packet.is_some(), "counting pieces of a vacant slot");
        slot.pieces += 1;
        if slot.pieces != total {
            return None;
        }
        let mut packet = self.remove(r);
        packet.ejected_at = Some(ejected_at);
        debug_assert_eq!(packet.dst.index(), node, "packet ejected at wrong node");
        Some(packet)
    }

    /// Number of packets currently stored. O(1): a maintained counter,
    /// never a scan — [`crate::engine::Network::in_flight`] calls this
    /// every cycle of every drain loop.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no packet is stored.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free); the slab's
    /// high-water mark.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, NodeId, PacketId};

    fn packet(seq: u64) -> Packet {
        Packet::new(
            PacketId {
                flow: FlowId::new(0),
                seq,
            },
            NodeId::new(0),
            NodeId::new(1),
            4,
            0,
        )
    }

    #[test]
    fn slots_are_recycled() {
        let mut s = PacketStore::new();
        let a = s.insert(packet(0));
        let b = s.insert(packet(1));
        assert_eq!(s.capacity(), 2);
        let out = s.remove(a);
        assert_eq!(out.id.seq, 0);
        // The freed slot is reused: no new slot is allocated.
        let c = s.insert(packet(2));
        assert_eq!(s.capacity(), 2);
        assert_eq!(c.slot(), a.slot());
        assert_ne!(c, a, "recycled handle must differ in generation");
        assert_eq!(s.get(b).id.seq, 1);
        assert_eq!(s.get(c).id.seq, 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn completes_exactly_once_after_all_pieces() {
        let mut s = PacketStore::new();
        let r = s.insert(packet(0));
        for t in 10..13 {
            assert!(s.on_piece(1, r, 4, t).is_none());
        }
        let done = s.on_piece(1, r, 4, 13).expect("fourth piece completes");
        assert_eq!(done.ejected_at, Some(13));
        assert!(s.is_empty());
    }

    #[test]
    fn progress_is_per_packet() {
        let mut s = PacketStore::new();
        let a = s.insert(packet(0));
        let b = s.insert(packet(1));
        assert!(s.on_piece(1, a, 2, 5).is_none());
        assert!(s.on_piece(1, b, 2, 5).is_none());
        assert!(s.on_piece(1, a, 2, 6).is_some());
        assert!(s.on_piece(1, b, 2, 6).is_some());
    }

    #[test]
    fn pieces_reset_on_recycle() {
        let mut s = PacketStore::new();
        let a = s.insert(packet(0));
        assert!(s.on_piece(1, a, 3, 0).is_none());
        assert!(s.on_piece(1, a, 3, 0).is_none());
        s.remove(a);
        let b = s.insert(packet(1));
        assert_eq!(b.slot(), a.slot());
        assert!(s.on_piece(1, b, 2, 0).is_none(), "piece counter must reset");
        assert!(s.on_piece(1, b, 2, 0).is_some());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = PacketStore::with_capacity(2);
        let refs: Vec<PacketRef> = (0..100).map(|i| s.insert(packet(i))).collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s.capacity(), 100);
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(s.get(r).id.seq, i as u64);
        }
        // Drain everything and refill: the slab must not grow again.
        for &r in &refs {
            s.remove(r);
        }
        assert!(s.is_empty());
        for i in 0..100 {
            s.insert(packet(i));
        }
        assert_eq!(
            s.capacity(),
            100,
            "steady-state churn must not grow the slab"
        );
    }

    #[test]
    fn timestamps_are_mutable_in_place() {
        let mut s = PacketStore::new();
        let r = s.insert(packet(0));
        s.get_mut(r).injected_at = Some(7);
        assert_eq!(s.get(r).injected_at, Some(7));
        assert_eq!(s.remove(r).injected_at, Some(7));
    }

    #[test]
    fn timestamps_reach_the_delivered_packet() {
        let mut s = PacketStore::new();
        let r = s.insert(packet(0));
        s.get_mut(r).injected_at = Some(3);
        let done = s.on_piece(1, r, 1, 9).unwrap();
        assert_eq!(done.ejected_at, Some(9));
        assert_eq!(done.network_latency(), Some(6));
    }

    #[test]
    fn slots_recycle_across_deliveries() {
        let mut s = PacketStore::new();
        for seq in 0..50 {
            let r = s.insert(packet(seq));
            assert!(s.on_piece(1, r, 2, 0).is_none());
            assert!(s.on_piece(1, r, 2, 1).is_some());
        }
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 1, "each delivery frees its slot");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_handle_panics_in_debug() {
        let mut s = PacketStore::new();
        let a = s.insert(packet(0));
        s.remove(a);
        let _ = s.insert(packet(1)); // recycles the slot
        let _ = s.get(a); // generation mismatch
    }

    // In debug builds the generation check fires first (covered
    // above); this covers the release-mode vacancy backstop.
    #[cfg(not(debug_assertions))]
    #[test]
    #[should_panic(expected = "packet is in flight")]
    fn vacant_slot_panics() {
        let mut s = PacketStore::new();
        let a = s.insert(packet(0));
        s.remove(a);
        let _ = s.get(a);
    }
}
