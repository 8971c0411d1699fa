//! The shared credit-based virtual-channel datapath.

use std::collections::VecDeque;

use crate::checkpoint::{Cap, CapDeque};
use crate::engine::Network;
use crate::error::ConfigError;
use crate::flit::{FlitKind, NodeId, Packet};
use crate::par::{partition, shard_map, Mailbox, SendPtr, ShardRange, WorkerPool};
use crate::slab::{PacketRef, PacketStore};
use crate::telemetry::{BufKind, NoopProbe, Phase, PhaseClock, Probe};
use crate::topology::Topology;
use crate::worklist::ActiveSet;

use super::links::LinkTable;
use super::policy::{PolicyCtx, RouterPolicy, SwitchGrant};
use super::wires::{DelayedWires, TimedFifo};
use super::{debug_assert_delivered_once, LOCAL, PORTS};

/// A flit inside the VC datapath, carrying the policy's per-flit tag.
///
/// Flits move a [`PacketRef`] handle, not the packet itself — the
/// packet lives in the fabric's [`PacketStore`] slab from admission
/// to delivery.
#[derive(Debug, Clone, Copy)]
pub struct VcFlit<T> {
    /// Handle of the owning packet.
    pub pref: PacketRef,
    /// Destination node.
    pub dst: NodeId,
    /// Position within the packet (head/body/tail).
    pub kind: FlitKind,
    /// Policy payload (e.g. the GSF frame number).
    pub tag: T,
}

/// One input virtual-channel buffer.
#[derive(Debug, Clone)]
pub struct VcBuf<T> {
    /// Buffered flits, FIFO; pre-sized at construction, and forks
    /// keep that capacity.
    pub q: CapDeque<VcFlit<T>>,
    /// Output port computed for the packet at the front, if any.
    pub route: Option<usize>,
    /// Downstream VC allocated to that packet, if any.
    pub out_vc: Option<usize>,
}

impl<T> VcBuf<T> {
    fn with_capacity(cap: usize) -> Self {
        VcBuf {
            q: Cap(VecDeque::with_capacity(cap)),
            route: None,
            out_vc: None,
        }
    }
}

impl<T: Copy> VcBuf<T> {
    /// Tag of the flit at the front, if any.
    #[inline]
    #[must_use]
    pub fn head_tag(&self) -> Option<T> {
        self.q.front().map(|f| f.tag)
    }
}

/// Marks an output VC that no input slot currently holds.
const NO_HOLDER: u8 = u8::MAX;

/// A mask with one bit per VC of a port, all set (`num_vcs <= 12`).
#[inline]
fn all_vcs(num_vcs: usize) -> u64 {
    (1u64 << num_vcs) - 1
}

/// Per-router VC state: input buffers, downstream VC ownership,
/// credits, and arbitration pointers.
///
/// This is the superset the policies need — wormhole uses `rr_va` and
/// ignores `out_draining`; GSF is the reverse. Policies read these
/// fields directly in their allocation hooks and change them only
/// through [`VcRouter::grant_vc`].
///
/// All per-(port, vc) state is stored flat with stride `num_vcs`: the
/// *slot* of input VC `(port, vc)` is `port * num_vcs + vc`, and the
/// same flat index addresses `credits`/`holder` for output
/// `(port, vc)`. What arbitration asks every cycle — who requests,
/// who could win, which VC is free — is kept as one `u64` mask per
/// output port, maintained at the events that change it, so a port
/// where nothing can be granted costs a load and a compare.
#[derive(Debug, Clone)]
pub struct VcRouter<T> {
    /// Input VC buffers; slot `port * num_vcs + vc`.
    pub inputs: Vec<VcBuf<T>>,
    /// Per-output bitmask over downstream VCs free for allocation:
    /// bit `vc` is set iff no packet owns the VC reached through
    /// output slot `port * num_vcs + vc`.
    pub out_free: [u64; PORTS],
    /// Per-output bitmask over downstream VCs whose tail was already
    /// forwarded but which are still draining: owned (not in
    /// `out_free`) until their credits have fully returned. Only ever
    /// non-zero under [`RouterPolicy::DRAIN_BEFORE_REUSE`].
    pub out_draining: [u64; PORTS],
    /// Free flit slots in the downstream VC at output slot
    /// `port * num_vcs + vc`.
    pub credits: Vec<u32>,
    /// The input slot holding the downstream VC at output slot
    /// `port * num_vcs + vc` — from its grant to its tail flit — or
    /// `NO_HOLDER`. Lets a returning credit find the `sa_credit` bit
    /// it re-enables.
    holder: Vec<u8>,
    /// Per-output round-robin pointer for VC allocation.
    pub rr_va: [usize; PORTS],
    /// Per-output round-robin pointer for switch allocation.
    pub rr_sa: [usize; PORTS],
    /// Per-output bitmask over input slots awaiting VC allocation:
    /// bit `slot` is set iff `inputs[slot].route == Some(out)` and
    /// `inputs[slot].out_vc.is_none()`. The head flit that produced
    /// the route is still at the front of such a slot (it cannot move
    /// without a downstream VC), so every set bit is a live request.
    pub va_req: [u64; PORTS],
    /// Per-output bitmask over input slots with a flit to forward:
    /// bit `slot` is set iff `inputs[slot].route == Some(out)`,
    /// `inputs[slot].out_vc.is_some()`, and the buffer is non-empty.
    pub sa_ready: [u64; PORTS],
    /// Per-output bitmask over input slots whose downstream VC can
    /// take a flit: bit `slot` is set iff `inputs[slot].route ==
    /// Some(out)`, `inputs[slot].out_vc == Some(vc)`, and `out` is the
    /// ejection port or `credits[out * num_vcs + vc] > 0`. The switch
    /// candidates of `out` are exactly `sa_ready[out] & sa_credit[out]`.
    pub sa_credit: [u64; PORTS],
}

impl<T> VcRouter<T> {
    /// An idle router with `num_vcs` VCs per port, each `vc_capacity`
    /// flits deep. Public so arbitration equivalence tests can build
    /// routers directly; networks get theirs from [`VcFabric::new`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= num_vcs` and `PORTS * num_vcs <= 64` (see
    /// [`VcParams::validate`]).
    #[must_use]
    pub fn new(num_vcs: usize, vc_capacity: usize) -> Self {
        assert!(
            num_vcs >= 1 && PORTS * num_vcs <= 64,
            "arbitration masks hold one bit per input slot: \
             {PORTS} ports * {num_vcs} VCs must fit in a u64"
        );
        VcRouter {
            inputs: (0..PORTS * num_vcs)
                .map(|_| VcBuf::with_capacity(vc_capacity))
                .collect(),
            out_free: [all_vcs(num_vcs); PORTS],
            out_draining: [0; PORTS],
            credits: vec![vc_capacity as u32; PORTS * num_vcs],
            holder: vec![NO_HOLDER; PORTS * num_vcs],
            rr_va: [0; PORTS],
            rr_sa: [0; PORTS],
            va_req: [0; PORTS],
            sa_ready: [0; PORTS],
            sa_credit: [0; PORTS],
        }
    }

    /// Grants downstream VC `vc` at output `out` to the packet at
    /// input slot `slot`: marks the output VC owned and held by
    /// `slot`, records the allocation on the input, and moves the
    /// slot's mask bit from the VC-allocation request mask to the
    /// switch masks.
    ///
    /// The policies' VC allocators must route every grant through
    /// here so the masks stay exact.
    #[inline]
    pub fn grant_vc(&mut self, slot: usize, out: usize, vc: usize, num_vcs: usize) {
        debug_assert_eq!(self.inputs[slot].route, Some(out), "grant without route");
        debug_assert!(self.inputs[slot].out_vc.is_none(), "double VC grant");
        debug_assert!(self.out_free[out] & (1 << vc) != 0, "granted an owned VC");
        debug_assert!(
            self.inputs[slot]
                .q
                .front()
                .is_some_and(|f| f.kind.is_head()),
            "VC granted to a slot whose front is not a head flit"
        );
        let oslot = out * num_vcs + vc;
        self.out_free[out] &= !(1 << vc);
        self.holder[oslot] = slot as u8;
        self.inputs[slot].out_vc = Some(vc);
        let bit = 1u64 << slot;
        self.va_req[out] &= !bit;
        // The head that requested the VC is still at the front, so
        // the slot can request the switch immediately.
        self.sa_ready[out] |= bit;
        if out == LOCAL || self.credits[oslot] > 0 {
            self.sa_credit[out] |= bit;
        }
    }

    /// Buffers `flit` in input slot `slot` of the router at `node`.
    ///
    /// A slot without a route is empty (a packet's route is cleared
    /// by its tail, and whatever queued behind that tail gets its own
    /// on the spot), so a flit landing in one is the head of a new
    /// packet at the buffer's front: its route is computed here and
    /// now. A flit
    /// landing in a slot that holds its downstream VC makes the slot
    /// switch-ready (again, if it had drained empty mid-packet).
    #[inline]
    fn accept(&mut self, slot: usize, flit: VcFlit<T>, node: usize, topo: &Topology) {
        let dst = flit.dst;
        let buf = &mut self.inputs[slot];
        buf.q.push_back(flit);
        match (buf.route, buf.out_vc) {
            (None, _) => {
                debug_assert_eq!(buf.q.len(), 1, "slot without a route was not empty");
                self.route_front(slot, topo.route(node, dst));
            }
            (Some(out), Some(_)) => self.sa_ready[out] |= 1u64 << slot,
            (Some(_), None) => {}
        }
    }

    /// Records `out` as the route of the head flit at the front of
    /// input slot `slot`, which has none yet: the slot now requests a
    /// downstream VC there.
    #[inline]
    fn route_front(&mut self, slot: usize, out: usize) {
        let buf = &mut self.inputs[slot];
        debug_assert!(buf.route.is_none(), "slot already has a route");
        debug_assert!(
            buf.q.front().is_some_and(|f| f.kind.is_head()),
            "a slot without a route must start with a head flit"
        );
        buf.route = Some(out);
        self.va_req[out] |= 1u64 << slot;
    }

    /// The slots requesting a VC at output `out`, in ascending slot
    /// order.
    #[inline]
    #[must_use]
    pub fn va_requests(&self, out: usize) -> MaskIter {
        MaskIter {
            hi: self.va_req[out],
            lo: 0,
        }
    }

    /// The slots that can forward a flit through output `out` this
    /// cycle (one buffered, downstream VC allocated and not out of
    /// credit), in rotating-priority order starting from slot
    /// `start`: slots `>= start` ascending, then slots `< start`
    /// ascending.
    #[inline]
    #[must_use]
    pub fn sa_candidates(&self, out: usize, start: usize) -> MaskIter {
        MaskIter::rotated(self.sa_ready[out] & self.sa_credit[out], start)
    }
}

/// Iterator over the set bits of a u64 slot mask, optionally rotated
/// so bits at or above a start position come first (each half in
/// ascending order). Yields slot indices via `trailing_zeros`.
#[derive(Debug, Clone, Copy)]
pub struct MaskIter {
    /// Bits at or above the rotation point, drained first.
    hi: u64,
    /// Bits below the rotation point, drained second.
    lo: u64,
}

impl MaskIter {
    /// Iterates `mask` starting from bit `start`, wrapping around.
    #[inline]
    #[must_use]
    pub fn rotated(mask: u64, start: usize) -> Self {
        let hi_bits = (!0u64).checked_shl(start as u32).unwrap_or(0);
        MaskIter {
            hi: mask & hi_bits,
            lo: mask & !hi_bits,
        }
    }
}

impl Iterator for MaskIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let word = if self.hi != 0 {
            &mut self.hi
        } else {
            &mut self.lo
        };
        if *word == 0 {
            return None;
        }
        let slot = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(slot)
    }
}

/// A packet streaming from a NIC into its router, one flit per cycle.
#[derive(Debug, Clone)]
pub struct Streaming<T> {
    pref: PacketRef,
    dst: NodeId,
    len: u16,
    pos: u16,
    vc: usize,
    tag: T,
}

/// Per-node source NIC state: the packet currently streaming and the
/// local-VC credit/ownership tracking. (What *waits* to stream — the
/// source queue — belongs to the policy.)
#[derive(Debug, Clone)]
pub struct VcNic<T> {
    current: Option<Streaming<T>>,
    /// Free slots in each local input VC of the attached router.
    credits: Vec<u32>,
    /// Bitmask over local VCs no NIC packet owns (free to stream a
    /// new packet into).
    free: u64,
    /// Bitmask over local VCs whose packet finished but whose credits
    /// have not fully returned: still owned (only under
    /// `DRAIN_BEFORE_REUSE`).
    draining: u64,
    rr: usize,
}

impl<T> VcNic<T> {
    fn new(num_vcs: usize, vc_capacity: usize) -> Self {
        VcNic {
            current: None,
            credits: vec![vc_capacity as u32; num_vcs],
            free: all_vcs(num_vcs),
            draining: 0,
            rr: 0,
        }
    }
}

/// Physical parameters of the VC datapath, shared by every policy.
#[derive(Debug, Clone, Copy)]
pub struct VcParams {
    /// Network topology (mesh or torus); fixes the routing.
    pub topo: Topology,
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Flit slots per VC buffer.
    pub vc_capacity: usize,
    /// Router pipeline + link traversal, in cycles.
    pub hop_latency: u64,
    /// Upstream credit return delay, in cycles (at least 1: a credit
    /// freed in one cycle's switch traversal is applied by the next
    /// cycle's credit phase at the earliest).
    pub credit_delay: u64,
    /// Shards stepped concurrently each cycle (1 = single-threaded;
    /// clamped to the node count). Results are bit-identical at every
    /// value — see [`crate::par`].
    pub threads: usize,
}

impl VcParams {
    /// Checks the parameters the datapath cannot run without.
    ///
    /// # Errors
    ///
    /// Fails unless there is at least one VC per port, every input
    /// slot of a router fits one bit of a `u64` arbitration mask
    /// (`PORTS * num_vcs <= 64`), VC buffers hold at least one flit
    /// (an empty buffer never has a credit to spend, so nothing would
    /// ever move), and a hop and a credit return each take at least
    /// one cycle (a zero credit delay would silently run as one).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_vcs == 0 {
            return Err(ConfigError::new("need at least one virtual channel"));
        }
        if PORTS * self.num_vcs > 64 {
            return Err(ConfigError::new(format!(
                "{PORTS} ports * {} virtual channels do not fit a 64-bit arbitration mask",
                self.num_vcs
            )));
        }
        if self.vc_capacity == 0 {
            return Err(ConfigError::new("VC buffers must hold at least one flit"));
        }
        if self.hop_latency == 0 {
            return Err(ConfigError::new("hops take at least one cycle"));
        }
        if self.credit_delay == 0 {
            return Err(ConfigError::new("credit returns take at least one cycle"));
        }
        Ok(())
    }
}

/// A cross-shard flit push awaiting the barrier merge:
/// `(widx, (vc, flit))` for [`DelayedWires::push`] on the
/// destination shard.
type WirePush<T> = (usize, (usize, VcFlit<T>));

/// State owned exclusively by one shard of nodes: its wires, credit
/// returns, worklists, policy scratch, and the outboxes/deferred
/// events the cycle barrier merges.
#[derive(Debug, Clone)]
struct ShardState<P: RouterPolicy, Pr: Probe> {
    /// This shard's telemetry probe (a [`Probe::fork`] of the
    /// fabric's). Only events for this shard's node range land here;
    /// [`VcFabric::into_probe`] absorbs the forks in shard order.
    probe: Pr,
    /// In-flight flits per (node, input port), as `(vc, flit)`.
    /// Globally indexed `node * PORTS + port`; only links of nodes in
    /// this shard's range are ever populated.
    wires: DelayedWires<(usize, VcFlit<P::Tag>)>,
    /// Credit returns for this shard's nodes: `(node, port, vc)`;
    /// `port == LOCAL` means the NIC credit pool of `node`.
    credits_in_flight: TimedFifo<(usize, usize, usize)>,
    /// This shard's NICs with a packet streaming or queued.
    nic_work: ActiveSet,
    /// This shard's routers with at least one buffered input flit.
    router_work: ActiveSet,
    /// Per-shard policy allocation scratch.
    scratch: P::Scratch,
    /// Cross-shard flit pushes `(widx, (vc, flit))`, one lane per
    /// destination shard.
    wire_out: Mailbox<WirePush<P::Tag>>,
    /// Cross-shard credit returns `(node, port, vc)`, one lane per
    /// destination shard.
    credit_out: Mailbox<(usize, usize, usize)>,
    /// Flits ejected by this shard's routers this cycle, in ascending
    /// node order; applied serially at the barrier.
    ejects: Vec<VcFlit<P::Tag>>,
    /// Packets whose first flit entered the network this cycle;
    /// `injected_at` is stamped at the barrier (the slab is read-only
    /// during the parallel phase).
    stamps: Vec<PacketRef>,
}

impl<P: RouterPolicy, Pr: Probe> ShardState<P, Pr> {
    fn new(n: usize, shards: usize, params: &VcParams, probe: Pr) -> Self {
        // At most one flit enters a link per cycle, `hop_latency`
        // cycles ahead: the wires are a wheel of that horizon. Credits
        // obey the same bound per (port, vc); pre-sizing their queue
        // to it means warmup never reallocates.
        let credit_cap = n * PORTS * (params.credit_delay as usize + 1);
        ShardState {
            probe,
            wires: DelayedWires::new(n * PORTS, params.hop_latency),
            credits_in_flight: TimedFifo::with_capacity(credit_cap),
            nic_work: ActiveSet::new(n),
            router_work: ActiveSet::new(n),
            scratch: P::Scratch::default(),
            wire_out: Mailbox::new(shards),
            credit_out: Mailbox::new(shards),
            ejects: Vec::new(),
            stamps: Vec::new(),
        }
    }
}

/// One shard's mutable view of the fabric for a single cycle: the
/// node-range slices of the global per-node arrays plus the shard's
/// own [`ShardState`]. All slices cover exactly `range` (local index
/// `node - range.lo`).
struct ShardCtx<'a, P: RouterPolicy, Pr: Probe> {
    range: ShardRange,
    routers: &'a mut [VcRouter<P::Tag>],
    nics: &'a mut [VcNic<P::Tag>],
    sources: &'a mut [P::Source],
    buffered: &'a mut [u32],
    aux: &'a mut ShardState<P, Pr>,
    packets: &'a PacketStore,
    params: VcParams,
    links: &'a LinkTable,
    shard_of: &'a [u32],
}

impl<P: RouterPolicy, Pr: Probe> ShardCtx<'_, P, Pr> {
    /// The per-shard phases of the cycle for this shard's nodes. Every write
    /// lands in shard-owned state; cross-shard effects go to the
    /// outboxes/deferred-event lists for the barrier.
    fn run_cycle(&mut self, now: u64) {
        self.sample_occupancy(now);
        let mut clock = PhaseClock::start::<Pr>();
        self.deliver_arrivals(now);
        clock.lap(&mut self.aux.probe, Phase::DeliverArrivals);
        self.apply_credits(now);
        clock.lap(&mut self.aux.probe, Phase::ApplyCredits);
        self.nic_inject();
        clock.lap(&mut self.aux.probe, Phase::NicInject);
        self.vc_allocate();
        clock.lap(&mut self.aux.probe, Phase::VcAllocate);
        self.switch_traverse(now);
        clock.lap(&mut self.aux.probe, Phase::SwitchTraverse);
    }

    /// Emits one occupancy sample per input VC buffer when the probe's
    /// sampling window is due. The whole scan is statically removed
    /// for [`NoopProbe`] builds (`Pr::ENABLED` is `false`), so the
    /// telemetry-off hot loop does not even test the cycle counter.
    fn sample_occupancy(&mut self, now: u64) {
        if !Pr::ENABLED || !self.aux.probe.sample_due(now) {
            return;
        }
        let num_vcs = self.params.num_vcs;
        let lo = self.range.lo;
        for (l, router) in self.routers.iter().enumerate() {
            let base = (lo + l) * PORTS;
            for (slot, buf) in router.inputs.iter().enumerate() {
                let port = slot / num_vcs;
                self.aux
                    .probe
                    .on_occupancy(BufKind::Vc, base + port, buf.q.len() as u32);
            }
        }
    }

    fn deliver_arrivals(&mut self, now: u64) {
        let Self {
            aux,
            routers,
            buffered,
            range,
            params,
            ..
        } = self;
        let cap = params.vc_capacity;
        let num_vcs = params.num_vcs;
        let lo = range.lo;
        let router_work = &mut aux.router_work;
        aux.wires.drain_due(now, |widx, (vc, flit)| {
            let node = widx / PORTS;
            let port = widx % PORTS;
            let router = &mut routers[node - lo];
            let slot = port * num_vcs + vc;
            debug_assert!(
                router.inputs[slot].q.len() < cap,
                "credit protocol violated: buffer overflow"
            );
            debug_assert!(
                !P::DRAIN_BEFORE_REUSE || router.inputs[slot].q.iter().all(|f| f.pref == flit.pref),
                "strict VC separation forbids mixing packets in one VC"
            );
            router.accept(slot, flit, node, &params.topo);
            buffered[node - lo] += 1;
            router_work.insert(node);
        });
    }

    fn apply_credits(&mut self, now: u64) {
        let cap = self.params.vc_capacity as u32;
        let num_vcs = self.params.num_vcs;
        let lo = self.range.lo;
        while let Some((node, port, vc)) = self.aux.credits_in_flight.pop_due(now) {
            let vbit = 1u64 << vc;
            if port == LOCAL {
                let nic = &mut self.nics[node - lo];
                nic.credits[vc] += 1;
                if P::DRAIN_BEFORE_REUSE && nic.draining & vbit != 0 && nic.credits[vc] == cap {
                    nic.draining &= !vbit;
                    nic.free |= vbit;
                }
            } else {
                let r = &mut self.routers[node - lo];
                let oslot = port * num_vcs + vc;
                r.credits[oslot] += 1;
                if r.credits[oslot] == 1 && r.holder[oslot] != NO_HOLDER {
                    // The holder's flits can move again.
                    r.sa_credit[port] |= 1u64 << r.holder[oslot];
                }
                if P::DRAIN_BEFORE_REUSE
                    && r.out_draining[port] & vbit != 0
                    && r.credits[oslot] == cap
                {
                    r.out_draining[port] &= !vbit;
                    r.out_free[port] |= vbit;
                }
            }
        }
    }

    fn nic_inject(&mut self) {
        let num_vcs = self.params.num_vcs;
        let lo = self.range.lo;
        let mut cursor = 0;
        while let Some(node) = self.aux.nic_work.first_from(cursor) {
            cursor = node + 1;
            let l = node - lo;
            let nic = &mut self.nics[l];
            if nic.current.is_none() && P::peek_source(&self.sources[l]).is_some() {
                // Allocate a free local VC, round-robin; only then
                // commit the packet.
                if let Some(vc) = MaskIter::rotated(nic.free, nic.rr).next() {
                    let (pref, tag) = P::pop_source(&mut self.sources[l]);
                    let (dst, len) = {
                        let p = self.packets.get(pref);
                        (p.dst, p.len_flits)
                    };
                    nic.free &= !(1u64 << vc);
                    nic.rr = if vc + 1 == num_vcs { 0 } else { vc + 1 };
                    nic.current = Some(Streaming {
                        pref,
                        dst,
                        len,
                        pos: 0,
                        vc,
                        tag,
                    });
                }
            }
            if let Some(cur) = &mut nic.current {
                if nic.credits[cur.vc] > 0 {
                    let kind = FlitKind::for_position(cur.pos, cur.len);
                    let flit = VcFlit {
                        pref: cur.pref,
                        dst: cur.dst,
                        kind,
                        tag: cur.tag,
                    };
                    nic.credits[cur.vc] -= 1;
                    if cur.pos == 0 {
                        // The slab is shared read-only across shards;
                        // the barrier applies the stamp.
                        self.aux.stamps.push(cur.pref);
                    }
                    cur.pos += 1;
                    let vc = cur.vc;
                    let done = cur.pos == cur.len;
                    if done {
                        if P::DRAIN_BEFORE_REUSE {
                            nic.draining |= 1u64 << vc;
                        } else {
                            nic.free |= 1u64 << vc;
                        }
                        nic.current = None;
                    }
                    self.routers[l].accept(LOCAL * num_vcs + vc, flit, node, &self.params.topo);
                    self.buffered[l] += 1;
                    self.aux.router_work.insert(node);
                } else {
                    // A packet is mid-stream but the local VC has no
                    // credit: the source is head-of-line blocked.
                    self.aux.probe.on_nic_stall(node);
                }
            }
            if nic.current.is_none() && P::source_idle(&self.sources[l]) {
                self.aux.nic_work.remove(node);
            }
        }
    }

    fn vc_allocate(&mut self) {
        let num_vcs = self.params.num_vcs;
        let lo = self.range.lo;
        let mut cursor = 0;
        while let Some(node) = self.aux.router_work.first_from(cursor) {
            cursor = node + 1;
            let router = &mut self.routers[node - lo];
            // Allocation needs a request and a free VC. Gathering the
            // outputs that have both without branching makes a router
            // where nothing can be granted — every router of a
            // saturated tree, most cycles — one predictable skip.
            let mut open = 0u32;
            for out in 0..PORTS {
                open |= u32::from(router.va_req[out] != 0 && router.out_free[out] != 0) << out;
            }
            while open != 0 {
                let out = open.trailing_zeros() as usize;
                open &= open - 1;
                P::vc_allocate(&mut self.aux.scratch, router, out, num_vcs);
            }
        }
    }

    fn switch_traverse(&mut self, now: u64) {
        let num_vcs = self.params.num_vcs;
        let total = PORTS * num_vcs;
        let lo = self.range.lo;
        let mut cursor = 0;
        while let Some(node) = self.aux.router_work.first_from(cursor) {
            cursor = node + 1;
            let l = node - lo;
            for out_port in 0..PORTS {
                let router = &mut self.routers[l];
                // No input VC has a flit for this output: nothing to
                // arbitrate.
                if router.sa_ready[out_port] == 0 {
                    continue;
                }
                if router.sa_ready[out_port] & router.sa_credit[out_port] == 0 {
                    // Flits are waiting for this output but every one
                    // of their downstream VCs is out of credit: the
                    // link idles under load.
                    self.aux.probe.on_link_stall(node * PORTS + out_port);
                    continue;
                }
                let SwitchGrant {
                    in_port,
                    in_vc: v,
                    out_vc: ov,
                    slot,
                } = P::pick_winner(router, out_port, num_vcs);
                self.aux.probe.on_link_flits(node * PORTS + out_port, 1);
                router.rr_sa[out_port] = if slot + 1 == total { 0 } else { slot + 1 };
                let flit = router.inputs[slot]
                    .q
                    .pop_front()
                    .expect("winner has a flit");
                self.buffered[l] -= 1;
                if self.buffered[l] == 0 {
                    self.aux.router_work.remove(node);
                }
                let bit = 1u64 << slot;
                let oslot = out_port * num_vcs + ov;
                if out_port != LOCAL {
                    router.credits[oslot] -= 1;
                    if router.credits[oslot] == 0 {
                        router.sa_credit[out_port] &= !bit;
                    }
                }
                if flit.kind.is_tail() {
                    if P::DRAIN_BEFORE_REUSE && out_port != LOCAL {
                        // The downstream VC stays owned until drained
                        // (credits fully returned). Ejected flits
                        // leave no downstream buffer to drain.
                        router.out_draining[out_port] |= 1u64 << ov;
                    } else {
                        router.out_free[out_port] |= 1u64 << ov;
                    }
                    router.holder[oslot] = NO_HOLDER;
                    router.sa_ready[out_port] &= !bit;
                    router.sa_credit[out_port] &= !bit;
                    let buf = &mut router.inputs[slot];
                    buf.route = None;
                    buf.out_vc = None;
                    // Whatever is queued behind the tail is the head
                    // of the next packet, now at the front.
                    if let Some(next) = buf.q.front() {
                        let out = self.params.topo.route(node, next.dst);
                        router.route_front(slot, out);
                    }
                } else if router.inputs[slot].q.is_empty() {
                    // Mid-packet with nothing buffered: the slot keeps
                    // its route and VC but cannot request the switch
                    // until the next flit arrives.
                    router.sa_ready[out_port] &= !bit;
                }
                // Return the freed input-slot credit upstream.
                let due = now + self.params.credit_delay;
                if in_port == LOCAL {
                    self.aux.credits_in_flight.push(due, (node, LOCAL, v));
                } else {
                    let up_link = self.links.linked(node * PORTS + in_port);
                    let (up, up_port) = (up_link / PORTS, up_link % PORTS);
                    if self.range.contains(up) {
                        self.aux.credits_in_flight.push(due, (up, up_port, v));
                    } else {
                        self.aux
                            .credit_out
                            .push(self.shard_of[up] as usize, (up, up_port, v));
                    }
                }
                if out_port == LOCAL {
                    // Ejection accounting (slab removal, policy hooks,
                    // the delivery list) is serialized at the barrier;
                    // pushes here are in ascending node order.
                    self.aux.ejects.push(flit);
                } else {
                    let widx = self.links.linked(node * PORTS + out_port);
                    let next = widx / PORTS;
                    if self.range.contains(next) {
                        self.aux
                            .wires
                            .push(widx, now + self.params.hop_latency, (ov, flit));
                    } else {
                        self.aux
                            .wire_out
                            .push(self.shard_of[next] as usize, (widx, (ov, flit)));
                    }
                }
            }
        }
    }
}

/// The complete credit-based VC datapath, parameterized by a
/// [`RouterPolicy`].
///
/// Cycle processing order:
///
/// 1. the policy's serial [`RouterPolicy::pre_inject`] hook runs,
/// 2. every shard (all nodes, [`VcParams::threads`] shards stepped
///    concurrently) then runs, per router:
///    1. link arrivals are written into input VC buffers,
///    2. returned credits are applied (releasing drained VCs under
///       [`RouterPolicy::DRAIN_BEFORE_REUSE`]),
///    3. NICs stream source-queue packets into their router's local
///       input port (one flit/cycle, one VC per packet; packet order
///       from the policy),
///    4. VC allocation (policy),
///    5. switch allocation (policy) + traversal: each output port
///       forwards at most one flit, consuming a credit; the freed
///       input slot's credit travels upstream with a configurable
///       delay,
/// 3. the cycle barrier merges cross-shard flits/credits in ascending
///    global link index order and applies deferred injection stamps
///    and ejections in ascending node order.
///
/// There is no route-computation phase: a head flit gets its route at
/// the moment it becomes the front of an input slot that has none —
/// when it arrives in an empty one (steps 2.1 and 2.3), or when the
/// tail ahead of it is forwarded (step 2.5). The route is a pure function of the
/// router and the destination and is first read by the next VC
/// allocation, which both sites precede.
///
/// Host time follows grants, not occupancy: every question arbitration
/// asks is a per-output mask on [`VcRouter`] kept exact at the events
/// that change it, so an output with no request, no free VC or no
/// credit costs a load and a compare however many flits wait behind
/// it.
///
/// All iteration is in ascending node/link index order with live
/// worklist semantics, bit-identical to the full scans it replaced —
/// at any shard count (see [`crate::par`] for the argument).
#[derive(Debug, Clone)]
pub struct VcFabric<P: RouterPolicy, Pr: Probe = NoopProbe> {
    policy: P,
    /// The fabric-level telemetry probe. Serial-phase events (packet
    /// admission, ejection, end-of-cycle) land here; per-shard events
    /// land in each shard's fork and merge in [`VcFabric::into_probe`].
    probe: Pr,
    params: VcParams,
    /// The other end of every link.
    links: LinkTable,
    cycle: u64,
    routers: Vec<VcRouter<P::Tag>>,
    nics: Vec<VcNic<P::Tag>>,
    /// Per-node source queues (policy-defined order).
    sources: Vec<P::Source>,
    /// Every in-flight packet, from admission to its last ejected flit.
    packets: PacketStore,
    /// Buffered input flits per router (maintains the shards'
    /// `router_work`).
    buffered: Vec<u32>,
    /// Contiguous node ranges, one per shard.
    ranges: Vec<ShardRange>,
    /// Node → shard index.
    shard_of: Vec<u32>,
    /// Shard-owned stepping state (always at least one shard; the
    /// single-threaded path is the one-shard case with no pool).
    shards: Vec<ShardState<P, Pr>>,
    /// Worker pool, present only when `threads > 1`.
    pool: Option<WorkerPool>,
    /// Relay for policy wake-ups (see [`PolicyCtx::woken`]).
    woken: Vec<usize>,
    /// Barrier merge scratch for cross-shard flits.
    wire_scratch: Vec<WirePush<P::Tag>>,
    /// Barrier merge scratch for cross-shard credits.
    credit_scratch: Vec<(usize, usize, usize)>,
}

impl<P: RouterPolicy> VcFabric<P> {
    /// Builds the datapath for `params`, scheduled by `policy`, with
    /// telemetry disabled ([`NoopProbe`] — zero cost, bit-identical
    /// to a build without probe plumbing).
    pub fn new(params: VcParams, policy: P) -> Self {
        Self::with_probe(params, policy, NoopProbe)
    }
}

impl<P: RouterPolicy, Pr: Probe> VcFabric<P, Pr> {
    /// Builds the datapath for `params`, scheduled by `policy`,
    /// reporting telemetry events to `probe` (each shard gets a
    /// [`Probe::fork`]; retrieve the merged result with
    /// [`VcFabric::into_probe`] after the run).
    ///
    /// # Panics
    ///
    /// Panics with the message of [`VcParams::validate`] if `params`
    /// fail it.
    pub fn with_probe(params: VcParams, policy: P, probe: Pr) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        let n = params.topo.num_nodes();
        let ranges = partition(n, params.threads);
        let k = ranges.len();
        VcFabric {
            routers: (0..n)
                .map(|_| VcRouter::new(params.num_vcs, params.vc_capacity))
                .collect(),
            nics: (0..n)
                .map(|_| VcNic::new(params.num_vcs, params.vc_capacity))
                .collect(),
            sources: (0..n).map(|_| policy.new_source()).collect(),
            packets: PacketStore::new(),
            buffered: vec![0; n],
            shard_of: shard_map(&ranges),
            shards: (0..k)
                .map(|_| ShardState::new(n, k, &params, probe.fork()))
                .collect(),
            pool: (k > 1).then(|| WorkerPool::new(k - 1)),
            ranges,
            woken: Vec::new(),
            wire_scratch: Vec::new(),
            credit_scratch: Vec::new(),
            links: LinkTable::new(&params.topo),
            cycle: 0,
            policy,
            probe,
            params,
        }
    }

    /// Consumes the fabric, merging every shard's probe fork into the
    /// main probe (ascending shard order — the deterministic merge
    /// order telemetry shard-invariance relies on) and returning it.
    #[must_use]
    pub fn into_probe(self) -> Pr {
        let mut probe = self.probe;
        for shard in self.shards {
            probe.absorb(shard.probe);
        }
        probe
    }

    /// The scheduling policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Inserts every node the last policy hook woke into its shard's
    /// NIC worklist.
    fn apply_woken(&mut self) {
        let Self {
            woken,
            shards,
            shard_of,
            ..
        } = self;
        for node in woken.drain(..) {
            shards[shard_of[node] as usize].nic_work.insert(node);
        }
    }

    /// Steps every shard sequentially on the calling thread (the
    /// `threads == 1` path — same phase code as the parallel path,
    /// no pool, no unsafe).
    fn step_shards_serial(&mut self, now: u64) {
        for s in 0..self.shards.len() {
            let range = self.ranges[s];
            let Self {
                routers,
                nics,
                sources,
                buffered,
                shards,
                packets,
                params,
                links,
                shard_of,
                ..
            } = self;
            ShardCtx::<P, Pr> {
                range,
                routers: &mut routers[range.lo..range.hi],
                nics: &mut nics[range.lo..range.hi],
                sources: &mut sources[range.lo..range.hi],
                buffered: &mut buffered[range.lo..range.hi],
                aux: &mut shards[s],
                packets,
                params: *params,
                links,
                shard_of,
            }
            .run_cycle(now);
        }
    }

    /// Steps all shards concurrently on the worker pool.
    fn step_shards_parallel(&mut self, now: u64) {
        let routers = SendPtr::new(self.routers.as_mut_ptr());
        let nics = SendPtr::new(self.nics.as_mut_ptr());
        let sources = SendPtr::new(self.sources.as_mut_ptr());
        let buffered = SendPtr::new(self.buffered.as_mut_ptr());
        let shards = SendPtr::new(self.shards.as_mut_ptr());
        let ranges: &[ShardRange] = &self.ranges;
        let shard_of: &[u32] = &self.shard_of;
        let packets: &PacketStore = &self.packets;
        let params = self.params;
        let links: &LinkTable = &self.links;
        let k = ranges.len();
        let pool = self.pool.as_mut().expect("parallel step without a pool");
        pool.run(k, &|s| {
            let range = ranges[s];
            let lo = range.lo;
            let len = range.len();
            // SAFETY: shard ranges are disjoint and cover `0..n`, and
            // the pool hands each shard index to exactly one task, so
            // the slices below never overlap across concurrent tasks;
            // `pool.run` returns only after every task (and worker)
            // has left the job, so no access outlives the borrows the
            // pointers were created from. `SendPtr` requires the
            // pointee to be `Send`, which the `RouterPolicy`
            // associated-type bounds guarantee.
            let mut ctx = unsafe {
                ShardCtx::<P, Pr> {
                    range,
                    routers: std::slice::from_raw_parts_mut(routers.get().add(lo), len),
                    nics: std::slice::from_raw_parts_mut(nics.get().add(lo), len),
                    sources: std::slice::from_raw_parts_mut(sources.get().add(lo), len),
                    buffered: std::slice::from_raw_parts_mut(buffered.get().add(lo), len),
                    aux: &mut *shards.get().add(s),
                    packets,
                    params,
                    links,
                    shard_of,
                }
            };
            ctx.run_cycle(now);
        });
    }

    /// The cycle barrier: merge cross-shard traffic (ascending global
    /// link index order), then apply deferred injection stamps and
    /// ejections in ascending node order — reproducing exactly the
    /// single-threaded event order.
    fn barrier(&mut self, now: u64, out: &mut Vec<Packet>) {
        let k = self.shards.len();
        if k > 1 {
            let hop_due = now + self.params.hop_latency;
            let credit_due = now + self.params.credit_delay;
            for shard in &mut self.shards {
                shard.wire_out.flip();
                shard.credit_out.flip();
            }
            for dst in 0..k {
                debug_assert!(self.wire_scratch.is_empty() && self.credit_scratch.is_empty());
                for src in 0..k {
                    if src != dst {
                        self.wire_scratch
                            .append(self.shards[src].wire_out.lane_mut(dst));
                        self.credit_scratch
                            .append(self.shards[src].credit_out.lane_mut(dst));
                    }
                }
                // At most one flit enters a given wire per cycle (each
                // wire has a single upstream producer), so link
                // indices are unique and this order is total. The same
                // holds for credits per (node, port, vc) — and credit
                // application is commutative besides.
                self.wire_scratch.sort_unstable_by_key(|&(widx, _)| widx);
                self.credit_scratch.sort_unstable();
                let shard = &mut self.shards[dst];
                for (widx, item) in self.wire_scratch.drain(..) {
                    shard.wires.push(widx, hop_due, item);
                }
                for c in self.credit_scratch.drain(..) {
                    shard.credits_in_flight.push(credit_due, c);
                }
            }
        }
        {
            // Injection stamps before ejections: a source-equals-
            // destination packet can inject and eject in one cycle.
            let Self {
                shards, packets, ..
            } = self;
            for shard in shards.iter_mut() {
                for pref in shard.stamps.drain(..) {
                    packets.get_mut(pref).injected_at = Some(now);
                }
            }
        }
        for s in 0..k {
            for i in 0..self.shards[s].ejects.len() {
                let flit = self.shards[s].ejects[i];
                self.policy.on_eject_flit(&flit);
                let total = self.packets.get(flit.pref).len_flits;
                if let Some(packet) = self
                    .packets
                    .on_piece(flit.dst.index(), flit.pref, total, now)
                {
                    self.policy.on_eject_packet(packet.id);
                    self.probe.on_delivered(&packet);
                    out.push(packet);
                }
            }
            self.shards[s].ejects.clear();
        }
    }

    /// Full-scan cross-check of every worklist and mask invariant
    /// (debug builds only): the active sets must contain exactly the
    /// indices a naive scan would find work at, every arbitration mask
    /// must equal what a scan of the raw router state (`inputs`,
    /// `credits`, VC ownership) yields — so the policies arbitrate
    /// over exactly the requests, candidates and free VCs an
    /// all-slots, all-VCs scan with per-candidate credit tests would
    /// hand them — and all barrier buffers must be empty between
    /// cycles.
    #[cfg(debug_assertions)]
    fn debug_verify_worklists(&self) {
        let num_vcs = self.params.num_vcs;
        let cap = self.params.vc_capacity as u32;
        for (s, shard) in self.shards.iter().enumerate() {
            shard.wires.debug_verify();
            debug_assert!(shard.wire_out.is_clear(), "wire outbox not drained");
            debug_assert!(shard.credit_out.is_clear(), "credit outbox not drained");
            debug_assert!(shard.ejects.is_empty(), "ejects not applied");
            debug_assert!(shard.stamps.is_empty(), "stamps not applied");
            let range = self.ranges[s];
            for n in range.lo..range.hi {
                let nic = &self.nics[n];
                let active = nic.current.is_some() || !P::source_idle(&self.sources[n]);
                debug_assert_eq!(shard.nic_work.contains(n), active, "nic_work[{n}]");
                // A local VC is owned while a packet streams into it
                // and, under drain-before-reuse, until the credits of
                // the last packet streamed into it are all back.
                debug_assert_eq!(nic.free & nic.draining, 0, "nic[{n}] free and draining");
                debug_assert_eq!(
                    (nic.free | nic.draining) >> num_vcs,
                    0,
                    "nic[{n}] mask width"
                );
                for vc in 0..num_vcs {
                    let streaming = nic.current.as_ref().is_some_and(|cur| cur.vc == vc);
                    let draining = nic.draining & (1 << vc) != 0;
                    debug_assert!(
                        !(streaming && draining),
                        "nic[{n}] vc {vc} reused undrained"
                    );
                    debug_assert_eq!(
                        nic.free & (1 << vc) != 0,
                        !streaming && !draining,
                        "nic[{n}].free vc {vc}"
                    );
                    debug_assert!(
                        !draining || (P::DRAIN_BEFORE_REUSE && nic.credits[vc] < cap),
                        "nic[{n}] vc {vc} draining with all credits back"
                    );
                }

                let router = &self.routers[n];
                let count: u32 = router.inputs.iter().map(|buf| buf.q.len() as u32).sum();
                debug_assert_eq!(self.buffered[n], count, "buffered[{n}]");
                debug_assert_eq!(shard.router_work.contains(n), count > 0, "router_work[{n}]");
                let mut va_req = [0u64; PORTS];
                let mut sa_ready = [0u64; PORTS];
                let mut sa_credit = [0u64; PORTS];
                let mut candidates = [0u64; PORTS];
                let mut held = [0u64; PORTS];
                let mut holder = [NO_HOLDER; 64];
                for (slot, buf) in router.inputs.iter().enumerate() {
                    let bit = 1u64 << slot;
                    // What event-driven routing rests on: a flit at a
                    // slot's front is never left without a route.
                    debug_assert!(
                        buf.route.is_some() || buf.q.is_empty(),
                        "router {n} slot {slot}: flit at the front without a route"
                    );
                    debug_assert!(
                        buf.route.is_some() || buf.out_vc.is_none(),
                        "router {n} slot {slot}: VC without a route"
                    );
                    let Some(out) = buf.route else { continue };
                    let Some(vc) = buf.out_vc else {
                        va_req[out] |= bit;
                        continue;
                    };
                    let oslot = out * num_vcs + vc;
                    debug_assert_eq!(holder[oslot], NO_HOLDER, "router {n}: VC held twice");
                    holder[oslot] = slot as u8;
                    held[out] |= 1 << vc;
                    // The parent's per-candidate test, verbatim.
                    let has_credit = out == LOCAL || router.credits[oslot] > 0;
                    if has_credit {
                        sa_credit[out] |= bit;
                    }
                    if !buf.q.is_empty() {
                        sa_ready[out] |= bit;
                        if has_credit {
                            candidates[out] |= bit;
                        }
                    }
                }
                debug_assert_eq!(router.va_req, va_req, "va_req[{n}]");
                debug_assert_eq!(router.sa_ready, sa_ready, "sa_ready[{n}]");
                debug_assert_eq!(router.sa_credit, sa_credit, "sa_credit[{n}]");
                debug_assert_eq!(router.holder[..], holder[..PORTS * num_vcs], "holder[{n}]");
                for out in 0..PORTS {
                    debug_assert_eq!(
                        router.sa_ready[out] & router.sa_credit[out],
                        candidates[out],
                        "switch candidates of router {n} output {out}"
                    );
                    // A downstream VC is owned while an input slot
                    // holds it or while it drains, and free otherwise.
                    let draining = router.out_draining[out];
                    debug_assert_eq!(held[out] & draining, 0, "router {n}: held VC draining");
                    debug_assert_eq!(
                        router.out_free[out],
                        all_vcs(num_vcs) & !held[out] & !draining,
                        "out_free[{n}][{out}]"
                    );
                    for vc in 0..num_vcs {
                        debug_assert!(
                            draining & (1 << vc) == 0
                                || (P::DRAIN_BEFORE_REUSE
                                    && out != LOCAL
                                    && router.credits[out * num_vcs + vc] < cap),
                            "router {n} output {out} vc {vc} draining with all credits back"
                        );
                    }
                }
            }
        }
    }
}

impl<P: RouterPolicy, Pr: Probe> Network for VcFabric<P, Pr> {
    fn num_nodes(&self) -> usize {
        self.routers.len()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn enqueue(&mut self, packet: Packet) {
        let node = packet.src.index();
        self.probe.on_generated(&packet);
        {
            let Self {
                policy,
                packets,
                sources,
                woken,
                ..
            } = self;
            let pref = packets.insert(packet);
            policy.on_enqueue(
                node,
                pref,
                &mut PolicyCtx {
                    packets,
                    sources,
                    woken,
                },
            );
        }
        self.apply_woken();
    }

    fn step(&mut self, out: &mut Vec<Packet>) {
        #[cfg(debug_assertions)]
        self.debug_verify_worklists();
        let delivered_before = out.len();
        let now = self.cycle;
        let mut clock = PhaseClock::start::<Pr>();
        {
            let Self {
                policy,
                packets,
                sources,
                woken,
                ..
            } = self;
            policy.pre_inject(
                now,
                &mut PolicyCtx {
                    packets,
                    sources,
                    woken,
                },
            );
        }
        self.apply_woken();
        clock.lap(&mut self.probe, Phase::PreInject);
        if self.pool.is_some() {
            self.step_shards_parallel(now);
        } else {
            self.step_shards_serial(now);
        }
        // The shards timed their own phases; restart the lap so the
        // barrier is not charged for them.
        let mut clock = PhaseClock::start::<Pr>();
        self.barrier(now, out);
        clock.lap(&mut self.probe, Phase::Barrier);
        self.probe.on_cycle(now);
        self.cycle = now + 1;
        debug_assert_delivered_once(out, delivered_before);
    }

    /// Jumps `cycles` forward in O(1) datapath work when the fabric is
    /// fully quiescent. Declines (returns 0) whenever *any* state
    /// still evolves under per-cycle stepping: packets in the slab,
    /// flits on wires, or credits in flight (credit returns trail the
    /// last delivery by up to `credit_delay` cycles — normal stepping
    /// covers that window, after which the fabric re-offers the jump).
    ///
    /// Everything a quiescent per-cycle run would still do is
    /// replicated exactly: the policy's per-cycle clock via
    /// [`RouterPolicy::fast_forward`], all-zero occupancy samples at
    /// every due telemetry window (same shard/router/slot emission
    /// order as `ShardCtx::sample_occupancy`), and the main probe's
    /// cycle count via [`Probe::tick_many`]. With telemetry disabled
    /// (`Pr::ENABLED == false`) the sample loop is statically removed
    /// and the jump is O(1).
    fn fast_forward(&mut self, cycles: u64) -> u64 {
        if cycles == 0 || !self.packets.is_empty() {
            return 0;
        }
        for shard in &self.shards {
            if shard.wires.any_active() || !shard.credits_in_flight.is_empty() {
                return 0;
            }
        }
        #[cfg(debug_assertions)]
        for (s, shard) in self.shards.iter().enumerate() {
            debug_assert!(shard.nic_work.is_empty(), "quiescent NIC worklist");
            debug_assert!(shard.router_work.is_empty(), "quiescent router worklist");
            let range = self.ranges[s];
            for n in range.lo..range.hi {
                debug_assert!(self.nics[n].current.is_none(), "NIC streaming mid-jump");
                debug_assert!(P::source_idle(&self.sources[n]), "source queue not idle");
                debug_assert_eq!(self.buffered[n], 0, "buffered flits mid-jump");
                debug_assert!(
                    self.routers[n].inputs.iter().all(|buf| buf.q.is_empty()),
                    "VC buffer not empty mid-jump"
                );
            }
        }
        let now = self.cycle;
        self.policy.fast_forward(now, cycles);
        if Pr::ENABLED {
            let num_vcs = self.params.num_vcs;
            for c in now..now + cycles {
                for (s, shard) in self.shards.iter_mut().enumerate() {
                    if !shard.probe.sample_due(c) {
                        continue;
                    }
                    let range = self.ranges[s];
                    for node in range.lo..range.hi {
                        let base = node * PORTS;
                        for slot in 0..PORTS * num_vcs {
                            let port = slot / num_vcs;
                            shard.probe.on_occupancy(BufKind::Vc, base + port, 0);
                        }
                    }
                }
            }
        }
        self.probe.tick_many(now, cycles);
        self.cycle = now + cycles;
        cycles
    }

    fn in_flight(&self) -> usize {
        self.packets.len()
    }
}
