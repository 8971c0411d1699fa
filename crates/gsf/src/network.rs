//! The GSF network model: a frame-priority policy over the shared VC
//! fabric ([`noc_sim::fabric::VcFabric`]).
//!
//! Structurally GSF is a credit-based VC wormhole network; the fabric
//! owns that datapath, and this policy supplies the three GSF-specific
//! changes:
//!
//! 1. **Source framing** — each packet is stamped with the earliest
//!    active frame in which its flow still has quota (see
//!    [`crate::framing`]); a flow whose quota is exhausted in every
//!    active frame stalls at the source.
//! 2. **Frame-priority arbitration** — both VC allocation and switch
//!    allocation prefer flits of older frames.
//! 3. **Strict VC separation** — a virtual channel is reallocated
//!    only after it has completely drained (credits fully returned),
//!    so flits of different packets never share a VC
//!    ([`RouterPolicy::DRAIN_BEFORE_REUSE`]). This models the
//!    flow-control inefficiency the paper's Figure 6 attributes to
//!    GSF.
//!
//! The head frame is recycled by a modeled barrier network: once no
//! flit of the oldest frame remains in the network, the window slides
//! after `barrier_delay` cycles. While the barrier is in flight the
//! head frame is closed to new injections.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use noc_sim::fabric::{MaskIter, PolicyCtx, RouterPolicy, SwitchGrant, VcFabric, VcRouter};
use noc_sim::flit::{FlowId, Packet, Waiting};
use noc_sim::telemetry::{NoopProbe, Probe};
use noc_sim::Network;

use crate::config::GsfConfig;
use crate::framing::Framing;

/// One node's frame-tagged source queue: packets awaiting streaming,
/// as (frame, arrival sequence, flow, record), min-ordered by (frame,
/// arrival sequence) — GSF streams oldest frames first. The (frame,
/// seq) key is unique, so the flow and the record never take part in
/// an ordering decision. The frame window bounds what a flow can tag,
/// so the heap is bounded too.
type TaggedHeap = BinaryHeap<Reverse<(u64, u64, FlowId, Waiting)>>;

/// VC-allocation scratch, reused every cycle.
#[derive(Debug, Default, Clone)]
struct GsfScratch {
    /// Per-output VC-allocation requests: (frame, input slot).
    req: Vec<(u64, usize)>,
}

/// The GSF scheduling policy: frame-tagged source queues drained
/// oldest frame first, frame-priority VC and switch allocation, strict
/// VC separation.
///
/// The tagged source heaps are the fabric-owned
/// [`RouterPolicy::Source`]s; everything here is global window state
/// touched only by the serial hooks.
#[derive(Debug, Clone)]
struct GsfPolicy {
    framing: Framing,
    /// Packets that could not be tagged yet (every active frame's
    /// quota exhausted), per node and flow, FIFO. Each node's list is
    /// sorted by flow id, so the retag scan is deterministic with no
    /// per-shift sort. Drained queues stay in the list with their
    /// capacity — a flow that backs up once tends to back up again.
    untagged: Vec<Vec<(u32, VecDeque<Waiting>)>>,
    /// Arrival sequence counter for FIFO tie-breaks within a frame.
    tag_seq: u64,
}

impl GsfPolicy {
    /// Tags a freshly enqueued or previously untagged packet with the
    /// earliest active frame that has quota, charging the flow's
    /// reservation and registering its flits as alive in that frame.
    fn tag_packet(
        &mut self,
        node: usize,
        flow: FlowId,
        waiting: Waiting,
        ctx: &mut PolicyCtx<'_, TaggedHeap>,
    ) -> bool {
        let Some(frame) = self.framing.claim(flow, waiting.len_flits) else {
            return false;
        };
        let seq = self.tag_seq;
        self.tag_seq += 1;
        ctx.sources[node].push(Reverse((frame, seq, flow, waiting)));
        ctx.nic_work.insert(node);
        true
    }

    /// After a window shift, untagged backlog may fit the fresh frame.
    /// Flows retag in ascending flow-id order (the list is sorted), so
    /// the frame-tag sequence is deterministic.
    fn retag_backlog(&mut self, ctx: &mut PolicyCtx<'_, TaggedHeap>) {
        for node in 0..self.untagged.len() {
            for fi in 0..self.untagged[node].len() {
                let flow = FlowId::new(self.untagged[node][fi].0);
                while let Some(&waiting) = self.untagged[node][fi].1.front() {
                    if !self.tag_packet(node, flow, waiting, ctx) {
                        break;
                    }
                    self.untagged[node][fi].1.pop_front();
                }
            }
        }
    }
}

impl RouterPolicy for GsfPolicy {
    type Tag = u64;
    type Source = TaggedHeap;
    type Scratch = GsfScratch;
    const DRAIN_BEFORE_REUSE: bool = true;

    fn new_source(&self) -> TaggedHeap {
        BinaryHeap::new()
    }

    fn pre_inject(&mut self, now: u64, ctx: &mut PolicyCtx<'_, TaggedHeap>) {
        if self.framing.recycle(now) {
            self.retag_backlog(ctx);
        }
    }

    fn on_enqueue(&mut self, node: usize, packet: &Packet, ctx: &mut PolicyCtx<'_, TaggedHeap>) {
        let flow = packet.id.flow;
        assert!(
            flow.index() < self.framing.num_flows(),
            "packet flow id outside configured reservations"
        );
        // GSF tags packets with frames as they enter the source
        // queue, consuming the flow's quota up-front; packets that
        // find every active frame exhausted wait untagged.
        let fid = flow.index() as u32;
        // A nonempty per-flow queue means a packet of this flow is
        // already parked; tagging out of order would reorder the flow.
        let at = self.untagged[node].binary_search_by_key(&fid, |&(f, _)| f);
        let parked = matches!(at, Ok(i) if !self.untagged[node][i].1.is_empty());
        let waiting = Waiting::of(packet);
        if parked || !self.tag_packet(node, flow, waiting, ctx) {
            match at {
                Ok(i) => self.untagged[node][i].1.push_back(waiting),
                Err(i) => self.untagged[node].insert(i, (fid, VecDeque::from([waiting]))),
            }
        }
    }

    fn pop_source(source: &mut TaggedHeap) -> (FlowId, Waiting, u64) {
        let Reverse((frame, _, flow, waiting)) = source.pop().expect("source packet");
        (flow, waiting, frame)
    }

    fn source_idle(source: &TaggedHeap) -> bool {
        source.is_empty()
    }

    /// VC allocation with frame priority: requests are served oldest
    /// frame first.
    fn vc_allocate(
        scratch: &mut GsfScratch,
        router: &mut VcRouter<u64>,
        out: usize,
        num_vcs: usize,
    ) {
        // The request mask enumerates the heads waiting for a VC here
        // in ascending slot order.
        scratch.req.clear();
        for slot in router.va_requests(out) {
            scratch
                .req
                .push((router.inputs[slot].head_tag().expect("nonempty"), slot));
        }
        scratch.req.sort_unstable();
        // Oldest request takes the lowest free VC, and so on.
        let free = MaskIter::rotated(router.out_free[out], 0);
        for (&(_, slot), vc) in scratch.req.iter().zip(free) {
            router.grant_vc(slot, out, vc, num_vcs);
        }
    }

    /// Switch allocation with frame priority: the oldest-frame
    /// candidate wins, round-robin order breaking ties.
    fn pick_winner(router: &VcRouter<u64>, out_port: usize, num_vcs: usize) -> SwitchGrant {
        // The candidates come in rotating-priority order from the
        // round-robin pointer, and `min_by_key` keeps the first of
        // equal minima: the first oldest-frame candidate in that order.
        let slot = router
            .sa_candidates(out_port, router.rr_sa[out_port])
            .min_by_key(|&slot| router.inputs[slot].head_tag().expect("nonempty"))
            .expect("called with a candidate");
        SwitchGrant {
            in_port: slot / num_vcs,
            in_vc: slot % num_vcs,
            out_vc: router.inputs[slot].out_vc.expect("candidate has a VC"),
            slot,
        }
    }

    fn on_eject_flit(&mut self, flit: &noc_sim::fabric::VcFlit<u64>) {
        self.framing.on_flit_ejected(flit.tag);
    }
}

/// The Globally-Synchronized Frames network.
///
/// Construct with [`GsfNetwork::new`], providing per-flow frame
/// reservations in flits (usually from
/// [`noc_traffic::Scenario::reservations`] with the configured
/// [`GsfConfig::frame_size`]).
#[derive(Debug, Clone)]
pub struct GsfNetwork<Pr: Probe = NoopProbe> {
    cfg: GsfConfig,
    fabric: VcFabric<GsfPolicy, Pr>,
}

impl GsfNetwork {
    /// Builds the network for flows with the given per-frame
    /// reservations (flits per frame, indexed by flow id), with
    /// telemetry disabled.
    ///
    /// # Panics
    ///
    /// Panics if any reservation is zero or exceeds the frame size, or
    /// if `cfg` fails [`GsfConfig::validate`].
    pub fn new(cfg: GsfConfig, reservations: &[u32]) -> Self {
        Self::with_probe(cfg, reservations, NoopProbe)
    }
}

impl<Pr: Probe> GsfNetwork<Pr> {
    /// Like [`GsfNetwork::new`], additionally reporting telemetry
    /// events to `probe`; retrieve the merged probe with
    /// [`GsfNetwork::into_probe`] after the run.
    ///
    /// # Panics
    ///
    /// As [`GsfNetwork::new`].
    pub fn with_probe(cfg: GsfConfig, reservations: &[u32], probe: Pr) -> Self {
        let n = cfg.topo.num_nodes();
        let policy = GsfPolicy {
            framing: Framing::new(
                reservations,
                cfg.frame_size,
                cfg.frame_window,
                cfg.barrier_delay,
            ),
            untagged: vec![Vec::new(); n],
            tag_seq: 0,
        };
        GsfNetwork {
            cfg,
            fabric: VcFabric::with_probe(cfg.vc_params(), policy, probe),
        }
    }

    /// Consumes the network, returning its telemetry probe.
    #[must_use]
    pub fn into_probe(self) -> Pr {
        self.fabric.into_probe()
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &GsfConfig {
        &self.cfg
    }

    /// Current head (oldest active) frame number.
    pub fn head_frame(&self) -> u64 {
        self.fabric.policy().framing.head_frame()
    }

    /// Completed global window shifts so far.
    pub fn recycles(&self) -> u64 {
        self.fabric.policy().framing.recycles()
    }
}

impl<Pr: Probe> Network for GsfNetwork<Pr> {
    fn num_nodes(&self) -> usize {
        self.fabric.num_nodes()
    }

    fn cycle(&self) -> u64 {
        self.fabric.cycle()
    }

    fn enqueue(&mut self, packet: Packet) {
        self.fabric.enqueue(packet);
    }

    fn step(&mut self, out: &mut Vec<Packet>) {
        self.fabric.step(out);
    }

    fn in_flight(&self) -> usize {
        self.fabric.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::flit::{FlowId, NodeId, PacketId};
    use noc_sim::routing::Direction;

    fn packet(flow: u32, seq: u64, src: u32, dst: u32, at: u64) -> Packet {
        Packet::new(
            PacketId {
                flow: FlowId::new(flow),
                seq,
            },
            NodeId::new(src),
            NodeId::new(dst),
            4,
            at,
        )
    }

    fn drain<Pr: Probe>(net: &mut GsfNetwork<Pr>, limit: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        let mut guard = 0;
        while net.in_flight() > 0 {
            net.step(&mut out);
            guard += 1;
            assert!(guard < limit, "network failed to drain in {limit} cycles");
        }
        out
    }

    #[test]
    fn single_packet_delivered() {
        let mut net = GsfNetwork::new(GsfConfig::default(), &[100]);
        net.enqueue(packet(0, 0, 0, 63, 0));
        let out = drain(&mut net, 1_000);
        assert_eq!(out.len(), 1);
        assert!(out[0].total_latency().unwrap() >= 14 * 3);
    }

    #[test]
    fn quota_throttles_flow() {
        // Reservation of 4 flits/frame = 1 packet per frame; with a
        // window of 6 the source can burst 6 packets, then must wait
        // for recycles.
        let cfg = GsfConfig::default();
        let mut net = GsfNetwork::new(cfg, &[4]);
        for seq in 0..12 {
            net.enqueue(packet(0, seq, 0, 1, 0));
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), 12);
        let recycles = net.recycles();
        // 12 packets with 1/frame and a burst window of 6 requires at
        // least 6 window shifts.
        assert!(recycles >= 6, "only {recycles} recycles");
    }

    #[test]
    fn frames_recycle_when_idle() {
        let mut net = GsfNetwork::new(GsfConfig::default(), &[100]);
        let mut out = Vec::new();
        for _ in 0..200 {
            net.step(&mut out);
        }
        // With an empty network the barrier fires continuously.
        assert!(net.recycles() >= 5);
    }

    #[test]
    fn older_frames_win_arbitration() {
        // Two flows to the same destination; flow 0 has a tiny quota,
        // flow 1 a huge one. Flow 1 floods first; flow 0's packet is
        // tagged with the head frame and must not starve.
        let cfg = GsfConfig::default();
        let mut net = GsfNetwork::new(cfg, &[2000, 2000]);
        for seq in 0..100 {
            net.enqueue(packet(1, seq, 1, 9, 0));
        }
        net.enqueue(packet(0, 0, 0, 9, 0));
        let out = drain(&mut net, 50_000);
        let victim = out.iter().find(|p| p.id.flow == FlowId::new(0)).unwrap();
        // All are frame 0; the victim shares the bandwidth instead of
        // waiting behind the whole flood.
        assert!(
            victim.ejected_at.unwrap() < 350,
            "victim finished at {}",
            victim.ejected_at.unwrap()
        );
    }

    #[test]
    fn no_vc_sharing_between_packets() {
        // The debug_assert in the fabric's arrival path checks the
        // invariant; run a congested workload to exercise it.
        let mut net = GsfNetwork::new(GsfConfig::default(), &[500, 500, 500]);
        for seq in 0..50 {
            net.enqueue(packet(0, seq, 0, 63, 0));
            net.enqueue(packet(1, seq, 48, 63, 0));
            net.enqueue(packet(2, seq, 56, 63, 0));
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), 150);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut net = GsfNetwork::new(GsfConfig::default(), &[500, 500]);
            for seq in 0..30 {
                net.enqueue(packet(0, seq, 0, 63, 0));
                net.enqueue(packet(1, seq, 7, 56, 0));
            }
            drain(&mut net, 100_000)
                .iter()
                .map(|p| (p.id, p.ejected_at.unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// With 8-flit reservations the framing window throttles every
    /// source, so parked packets reach the NICs only through
    /// `PolicyCtx::nic_work` wakes as frames recycle. Flits still leave
    /// through the local port in ascending node order, one per node per
    /// cycle: all-to-all traffic drains, ordered by (cycle,
    /// destination).
    #[test]
    fn throttled_all_to_all_drains_in_node_order_within_a_cycle() {
        let mut net = GsfNetwork::new(GsfConfig::small(), &[8; 16]);
        let mut seq = 0;
        for src in 0..16u32 {
            for dst in (0..16u32).filter(|&dst| dst != src) {
                net.enqueue(packet(src, seq, src, dst, 0));
                seq += 1;
            }
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), 240);
        let key = |p: &Packet| (p.ejected_at.unwrap(), p.dst.index());
        for pair in out.windows(2) {
            assert!(key(&pair[0]) < key(&pair[1]), "{pair:?}");
        }
        for p in &out {
            assert!(p.injected_at.unwrap() < p.ejected_at.unwrap(), "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "reservations must be positive")]
    fn zero_reservation_rejected() {
        let _ = GsfNetwork::new(GsfConfig::default(), &[0]);
    }

    #[test]
    fn backlog_tags_up_front_and_drains_in_frame_order() {
        // Quota of 8 flits = 2 packets per frame; a 30-packet backlog
        // tags 12 packets (window of 6 frames), parks the rest
        // untagged, and everything still delivers.
        let mut net = GsfNetwork::new(GsfConfig::default(), &[8]);
        for seq in 0..30 {
            net.enqueue(packet(0, seq, 0, 1, 0));
        }
        let out = drain(&mut net, 200_000);
        assert_eq!(out.len(), 30);
        // Delivery respects enqueue order for a single flow (frames
        // are claimed in order).
        let mut ejects: Vec<(u64, u64)> = out
            .iter()
            .map(|p| (p.id.seq, p.ejected_at.unwrap()))
            .collect();
        ejects.sort_unstable();
        for w in ejects.windows(2) {
            assert!(w[0].1 <= w[1].1, "seq {} overtook {}", w[1].0, w[0].0);
        }
    }

    /// Tagged or not, a packet waits in its source queue as a record
    /// and enters the fabric's slab only when its NIC starts streaming
    /// it: one NIC streams one packet at a time.
    #[test]
    fn waiting_packets_stay_out_of_the_slab() {
        let mut net = GsfNetwork::new(GsfConfig::default(), &[8]);
        for seq in 0..100 {
            net.enqueue(packet(0, seq, 0, 1, 0));
        }
        assert_eq!(net.fabric.packets().len(), 0);
        assert_eq!(net.in_flight(), 100);
        net.step(&mut Vec::new());
        assert_eq!(net.fabric.packets().len(), 1);
        assert_eq!(net.in_flight(), 100);
    }

    #[test]
    fn untagged_backlog_throttles_source_throughput() {
        // With the head frame held open by a congested ejection link,
        // the per-frame quota bounds a flow's accepted rate.
        let mut net = GsfNetwork::new(GsfConfig::default(), &[40, 2000]);
        // Flow 1 floods the destination, slowing frame recycling.
        for seq in 0..300 {
            net.enqueue(packet(1, seq, 8, 9, 0));
        }
        for seq in 0..100 {
            net.enqueue(packet(0, seq, 0, 9, 0));
        }
        let out = drain(&mut net, 400_000);
        assert_eq!(out.len(), 400);
        // Flow 0's quota is 40 flits = 10 packets/frame: with ~2000
        // flits of flow 1 per frame window ahead of it, flow 0 cannot
        // finish before several window turns.
        let last_f0 = out
            .iter()
            .filter(|p| p.id.flow == FlowId::new(0))
            .map(|p| p.ejected_at.unwrap())
            .max()
            .unwrap();
        assert!(
            last_f0 > 1_000,
            "flow 0 finished implausibly fast: {last_f0}"
        );
    }

    #[test]
    fn link_flits_probe_counts_traffic() {
        use noc_sim::fabric::PORTS;
        use noc_sim::telemetry::LiveProbe;
        let mut net = GsfNetwork::with_probe(GsfConfig::default(), &[100], LiveProbe::new(16));
        net.enqueue(packet(0, 0, 0, 2, 0));
        let _ = drain(&mut net, 10_000);
        let report = net.into_probe().finish();
        let flits = |node: usize, dir: Direction| {
            let lidx = node * PORTS + dir.index();
            report.link_flits.get(lidx).copied().unwrap_or(0)
        };
        assert_eq!(flits(0, Direction::East), 4);
        assert_eq!(flits(2, Direction::Local), 4);
        assert_eq!(flits(5, Direction::East), 0);
    }

    #[test]
    fn barrier_delay_paces_idle_recycling() {
        let fast = {
            let mut net = GsfNetwork::new(
                GsfConfig {
                    barrier_delay: 1,
                    ..GsfConfig::default()
                },
                &[100],
            );
            let mut out = Vec::new();
            for _ in 0..1_000 {
                net.step(&mut out);
            }
            net.recycles()
        };
        let slow = {
            let mut net = GsfNetwork::new(
                GsfConfig {
                    barrier_delay: 100,
                    ..GsfConfig::default()
                },
                &[100],
            );
            let mut out = Vec::new();
            for _ in 0..1_000 {
                net.step(&mut out);
            }
            net.recycles()
        };
        assert!(
            fast > 5 * slow,
            "barrier delay not respected: {fast} vs {slow}"
        );
    }
}
