//! The shared router-fabric layer: one datapath, pluggable policies.
//!
//! Every network model in this workspace moves flits over the same
//! physical substrate — links with a traversal delay, credit/event
//! return paths, per-node source NICs, ejection ports, and the
//! active-set worklists that keep per-cycle cost proportional to
//! activity. Before this module existed, the wormhole, GSF, and LOFT
//! networks each hand-rolled that substrate; now it lives here, once,
//! and the networks differ only in *scheduling and flow-control
//! policy*:
//!
//! ```text
//!                    ┌────────────────────────────┐
//!                    │        network crates      │
//!                    │ wormhole │  GSF  │  LOFT   │
//!                    │  policy  │ policy│ policy  │
//!                    └────┬─────┴───┬───┴────┬────┘
//!        RouterPolicy ────┘         │        │ LSF schedulers,
//!        (VC datapath hooks)        │        │ reservation tables,
//!                    ┌──────────────┴──┐     │ look-ahead FIFOs
//!                    │  VcFabric<P>    │     │
//!                    │  credit-based   │     │
//!                    │  VC datapath    │     │
//!                    └───────┬─────────┘     │
//!                            │               │
//!                    ┌───────┴───────────────┴──────────────────┐
//!                    │ fabric substrate: Topology · LinkTable · │
//!                    │ DelayedWires · TimedFifo · PacketStore · │
//!                    │ ActiveSet worklists                      │
//!                    └──────────────────────────────────────────┘
//! ```
//!
//! * [`Topology`](crate::topology::Topology) fixes the routing
//!   (dimension-order XY) and the flat `node × port` link index space
//!   every per-link array uses, and defines each port's neighbor
//!   ([`Topology::try_downstream`](crate::topology::Topology::try_downstream)).
//! * [`LinkTable`] precomputes that neighbor once per network: for
//!   each `node * PORTS + port` the link end at the other side, or
//!   none for the local port and mesh edges. One table serves both
//!   directions — where an output leads for link traversal, which
//!   output feeds an input for credit returns — because the upstream
//!   and downstream ends of a port coincide in that index space.
//! * [`DelayedWires`] models in-flight traversal on every link as a
//!   due-time wheel: hops have a fixed latency and a link carries at
//!   most one item per time unit, so `max_delay + 1` buckets, each a
//!   bitmask over links plus one item slot per link, hold everything
//!   in flight. The owner drains once per time unit, before it pushes
//!   in that unit, so a drain empties exactly the bucket that fell due
//!   and walks its set bits in deterministic ascending link order; a
//!   late drain with items in flight panics.
//! * [`TimedFifo`] is the global in-order event queue used for credit
//!   returns.
//! * [`PacketStore`](crate::slab::PacketStore) owns every in-flight
//!   packet in a generational slab — the datapaths move
//!   [`crate::slab::PacketRef`] handles, not packet structs — and
//!   counts each packet's ejected pieces, handing it back exactly once
//!   ([`PacketStore::on_piece`](crate::slab::PacketStore::on_piece)).
//! * [`VcFabric`] is the complete credit-based virtual-channel
//!   datapath (link arrivals, credits, NIC streaming with routing at
//!   arrival, and switch traversal), parameterized by a
//!   [`RouterPolicy`] that supplies VC allocation, switch-allocation
//!   winner selection, source queueing, and reuse semantics. Each
//!   [`VcRouter`] keeps four masks per output port — VC requests,
//!   switch-ready slots, slots with downstream credit, free
//!   downstream VCs — exact at every event, so the policies arbitrate
//!   over pre-filtered candidates and a port where nothing can be
//!   granted costs a load and a compare.
//!
//! # Determinism contract
//!
//! Everything here iterates in ascending link/node index order with
//! live worklist semantics (see [`crate::worklist`]), exactly like the
//! full scans it replaced. The golden determinism tests pin the
//! networks built on this fabric bit-for-bit against their
//! pre-refactor behaviour.

use crate::flit::Packet;
use crate::routing::Direction;

mod links;
mod policy;
mod vc;
mod wires;

pub use links::LinkTable;
pub use policy::{PolicyCtx, RouterPolicy, SwitchGrant};
pub use vc::{MaskIter, Streaming, VcBuf, VcFabric, VcFlit, VcNic, VcParams, VcRouter};
pub use wires::{DelayedWires, TimedFifo};

/// Ports per router: the four cardinal directions plus the local
/// (processing-element) port.
pub const PORTS: usize = Direction::COUNT;

/// Index of the local port in every per-port array.
pub const LOCAL: usize = Direction::Local as usize;

/// Debug-build check of the fabric-level stat invariant: every packet
/// delivered during one `step` call appears in `out` exactly once.
/// `start` is `out.len()` at the top of the step.
///
/// Double-appending a delivered packet would double-count it in every
/// downstream statistic; this assert turns that silent skew into a
/// hard failure (release builds compile it away).
#[cfg(debug_assertions)]
pub fn debug_assert_delivered_once(out: &[Packet], start: usize) {
    let mut ids: Vec<_> = out[start..].iter().map(|p| p.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        panic!(
            "packet {} appended to the delivery list twice in one step",
            w[0]
        );
    }
}

/// Release-build stub of [`debug_assert_delivered_once`].
#[cfg(not(debug_assertions))]
pub fn debug_assert_delivered_once(_out: &[Packet], _start: usize) {}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::flit::{FlowId, NodeId, PacketId};

    fn packet(flow: u32, seq: u64) -> Packet {
        let id = PacketId {
            flow: FlowId::new(flow),
            seq,
        };
        Packet::new(id, NodeId::new(0), NodeId::new(1), 1, 0)
    }

    #[test]
    fn delivered_once_accepts_distinct_ids_and_ignores_earlier_steps() {
        // Packet 0#0 was delivered in an earlier step (before `start`)
        // and again in this one: only this step's slice is checked.
        let out = [packet(0, 0), packet(0, 0), packet(0, 1), packet(1, 0)];
        debug_assert_delivered_once(&out, 1);
        debug_assert_delivered_once(&out, out.len());
    }

    #[test]
    #[should_panic(expected = "packet f1#2 appended to the delivery list twice")]
    fn delivered_once_rejects_a_packet_appended_twice_in_one_step() {
        let out = [packet(1, 2), packet(0, 0), packet(2, 5), packet(1, 2)];
        debug_assert_delivered_once(&out, 0);
    }
}
