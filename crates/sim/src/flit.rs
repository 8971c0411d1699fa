//! Packets, flits, and identifier newtypes.
//!
//! A *flow* (the paper's `flow_ij`) is the unidirectional traffic from
//! one node to another; a *packet* is a fixed-size unit of that flow
//! (4 flits in the paper's setup); a *flit* is the link-level transfer
//! unit. Networks in this workspace move flits; the simulation driver
//! and the statistics operate on packets.

use std::fmt;

/// Identifies a node (processing element + router) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its integer index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the integer index, usable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifies a flow (a source–destination traffic stream with a QoS
/// reservation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(u32);

impl FlowId {
    /// Creates a flow id from its integer index.
    pub fn new(index: u32) -> Self {
        FlowId(index)
    }

    /// Returns the integer index, usable for array indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u32> for FlowId {
    fn from(v: u32) -> Self {
        FlowId(v)
    }
}

/// Globally unique packet identifier (flow id + per-flow sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Sequence number within the flow, starting at 0.
    pub seq: u64,
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.flow, self.seq)
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information in real hardware.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases resources in wormhole switching.
    Tail,
    /// A single-flit packet is simultaneously head and tail.
    HeadTail,
}

impl FlitKind {
    /// Kind of the flit at `pos` in a packet of `len` flits.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len` or `len == 0`.
    pub fn for_position(pos: u16, len: u16) -> FlitKind {
        assert!(len > 0 && pos < len, "flit position out of range");
        match (pos, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (p, l) if p + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }

    /// Whether this flit ends its packet.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// Whether this flit starts its packet.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }
}

/// A packet as seen by the simulation driver.
///
/// Networks are free to decompose packets into flits internally; the
/// timestamps here are what the statistics consume:
///
/// * `created_at` — cycle the traffic source generated the packet
///   (entry into the source queue),
/// * `injected_at` — cycle the first flit left the source queue into
///   the network proper,
/// * `ejected_at` — cycle the last flit was delivered to the
///   destination PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier (flow + sequence).
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len_flits: u16,
    /// Cycle of generation (source-queue entry).
    pub created_at: u64,
    /// Cycle of network injection (source-queue exit), if it happened.
    pub injected_at: Option<u64>,
    /// Cycle of complete ejection at the destination, if it happened.
    pub ejected_at: Option<u64>,
}

impl Packet {
    /// Creates a fresh packet at generation time `created_at`.
    pub fn new(id: PacketId, src: NodeId, dst: NodeId, len_flits: u16, created_at: u64) -> Self {
        assert!(len_flits > 0, "packets must contain at least one flit");
        Packet {
            id,
            src,
            dst,
            len_flits,
            created_at,
            injected_at: None,
            ejected_at: None,
        }
    }

    /// Total latency (generation to full ejection), if delivered.
    ///
    /// This includes source-queue time, matching how the paper reports
    /// packet latency (GSF latencies of thousands of cycles in Case
    /// Study I can only arise with source-queue time included).
    pub fn total_latency(&self) -> Option<u64> {
        self.ejected_at.map(|e| e - self.created_at)
    }

    /// In-network latency (injection to full ejection), if delivered.
    pub fn network_latency(&self) -> Option<u64> {
        match (self.injected_at, self.ejected_at) {
            (Some(i), Some(e)) => Some(e - i),
            _ => None,
        }
    }
}

/// A generated packet waiting in its source queue, before the network
/// starts sending it.
///
/// It keeps what the network needs to send the packet and what the
/// statistics need afterwards. The queue holding it implies the flow
/// and the source node, and a waiting packet has no `injected_at` or
/// `ejected_at` yet, so [`Waiting::into_packet`] rebuilds the
/// [`Packet`] exactly. Networks put the rebuilt packet in their
/// [`PacketStore`](crate::slab::PacketStore) only when they start
/// sending it, so an unbounded backlog costs this record per packet
/// and no slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waiting {
    /// Sequence number within the flow.
    pub seq: u64,
    /// Cycle of generation.
    pub created_at: u64,
    /// Destination node.
    pub dst: NodeId,
    /// Length in flits.
    pub len_flits: u16,
}

const _: () = assert!(std::mem::size_of::<Waiting>() <= 24);

impl Waiting {
    /// The record of a packet that has just been generated.
    #[must_use]
    pub fn of(packet: &Packet) -> Self {
        debug_assert!(
            packet.injected_at.is_none() && packet.ejected_at.is_none(),
            "a waiting packet has not been injected"
        );
        Waiting {
            seq: packet.id.seq,
            created_at: packet.created_at,
            dst: packet.dst,
            len_flits: packet.len_flits,
        }
    }

    /// The packet again, given the flow and source node its queue
    /// implies.
    #[must_use]
    pub fn into_packet(self, flow: FlowId, src: NodeId) -> Packet {
        Packet {
            id: PacketId {
                flow,
                seq: self.seq,
            },
            src,
            dst: self.dst,
            len_flits: self.len_flits,
            created_at: self.created_at,
            injected_at: None,
            ejected_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_record_rebuilds_its_packet() {
        let p = Packet::new(
            PacketId {
                flow: FlowId::new(3),
                seq: 41,
            },
            NodeId::new(7),
            NodeId::new(12),
            5,
            900,
        );
        let w = Waiting::of(&p);
        assert_eq!(w.into_packet(p.id.flow, p.src), p);
    }

    #[test]
    fn node_and_flow_ids_display() {
        assert_eq!(NodeId::new(5).to_string(), "n5");
        assert_eq!(FlowId::new(7).to_string(), "f7");
        let pid = PacketId {
            flow: FlowId::new(2),
            seq: 9,
        };
        assert_eq!(pid.to_string(), "f2#9");
    }

    #[test]
    fn flit_kinds_cover_packet() {
        assert_eq!(FlitKind::for_position(0, 4), FlitKind::Head);
        assert_eq!(FlitKind::for_position(1, 4), FlitKind::Body);
        assert_eq!(FlitKind::for_position(2, 4), FlitKind::Body);
        assert_eq!(FlitKind::for_position(3, 4), FlitKind::Tail);
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::HeadTail);
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flit_kind_bounds_checked() {
        let _ = FlitKind::for_position(4, 4);
    }

    #[test]
    fn packet_latencies() {
        let mut p = Packet::new(
            PacketId {
                flow: FlowId::new(0),
                seq: 0,
            },
            NodeId::new(0),
            NodeId::new(63),
            4,
            100,
        );
        assert_eq!(p.total_latency(), None);
        p.injected_at = Some(110);
        p.ejected_at = Some(150);
        assert_eq!(p.total_latency(), Some(50));
        assert_eq!(p.network_latency(), Some(40));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = Packet::new(
            PacketId {
                flow: FlowId::new(0),
                seq: 0,
            },
            NodeId::new(0),
            NodeId::new(1),
            0,
            0,
        );
    }
}
