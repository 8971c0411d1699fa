//! The shared credit-based virtual-channel datapath.

use std::collections::VecDeque;

use crate::checkpoint::{Cap, CapDeque};
use crate::engine::Network;
use crate::error::ConfigError;
use crate::flit::{FlitKind, NodeId, Packet};
use crate::slab::{PacketRef, PacketStore};
use crate::telemetry::{BufKind, NoopProbe, Phase, PhaseClock, Probe};
use crate::topology::Topology;
use crate::worklist::ActiveSet;

use super::links::LinkTable;
use super::policy::{PolicyCtx, RouterPolicy, SwitchGrant};
use super::wires::{DelayedWires, TimedFifo};
use super::{debug_assert_delivered_once, LOCAL, MAX_PARAM, PORTS};

/// A flit inside the VC datapath, carrying the policy's per-flit tag.
///
/// Flits move a [`PacketRef`] handle, not the packet itself — the
/// packet lives in the fabric's [`PacketStore`] slab from the moment
/// its NIC starts streaming it to delivery.
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

    /// Whether output `out` keeps its router on the worklist: it has a
    /// switch candidate, a VC request with a free VC to grant it, or,
    /// when `stalls` are counted, a flit that waits for credit or a VC
    /// request that waits for a VC (whose stall or wait a visit
    /// records).
    #[inline]
    fn keeps_busy(&self, out: usize, stalls: bool) -> bool {
        // Non-short-circuit `&` / `|`: no branch to mispredict.
        let ready = self.sa_ready[out];
        let req = self.va_req[out];
        (ready & self.sa_credit[out] != 0)
            | ((req != 0) & (self.out_free[out] != 0))
            | (stalls & (ready | req != 0))
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
    /// Accepted and ignored: the VC fabric steps on one thread. Kept
    /// only so configs that set it still compile; ROADMAP item 5(c)
    /// deletes it with every other `threads` field.
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
    /// ever move), a hop and a credit return each take at least one
    /// cycle (a zero credit delay would silently run as one), and
    /// buffer depth, hop latency and credit delay are at most
    /// [`MAX_PARAM`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_vcs == 0 {
            return Err(ConfigError::new("need at least one virtual channel"));
        }
        if self.num_vcs > 64 / PORTS {
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
        let sizes = [self.vc_capacity as u64, self.hop_latency, self.credit_delay];
        if sizes.iter().any(|&v| v > MAX_PARAM) {
            return Err(ConfigError::new(format!(
                "VC capacity, hop latency and credit delay must be at most {MAX_PARAM}"
            )));
        }
        Ok(())
    }
}

/// The complete credit-based VC datapath, parameterized by a
/// [`RouterPolicy`].
///
/// Cycle processing order:
///
/// 1. the policy's [`RouterPolicy::pre_inject`] hook runs,
/// 2. occupancy is sampled when the probe's window is due,
/// 3. link arrivals are written into input VC buffers,
/// 4. returned credits are applied (releasing drained VCs under
///    [`RouterPolicy::DRAIN_BEFORE_REUSE`]),
/// 5. NICs stream source-queue packets into their router's local
///    input port (one flit/cycle, one VC per packet; packet order from
///    the policy), stamping `injected_at` on a packet's first flit,
/// 6. VC allocation (policy),
/// 7. switch allocation (policy) + traversal: each output port
///    forwards at most one flit, consuming a credit; the freed input
///    slot's credit travels upstream with a configurable delay, and a
///    flit leaving through the local port is ejected on the spot.
///
/// There is no route-computation phase: a head flit gets its route at
/// the moment it becomes the front of an input slot that has none —
/// when it arrives in an empty one (steps 3 and 5), or when the tail
/// ahead of it is forwarded (step 7). The route is a pure function of
/// the router and the destination and is first read by the next VC
/// allocation, which both sites precede.
///
/// Host time follows grants, not occupancy: every question arbitration
/// asks is a per-output mask on [`VcRouter`] kept exact at the events
/// that change it, so an output with no request, no free VC or no
/// credit costs a load and a compare however many flits wait behind
/// it; and a router or NIC that can move nothing leaves its worklist
/// until the event that unblocks it, so a blocked one costs nothing.
///
/// All iteration is in ascending node/link index order with live
/// worklist semantics, bit-identical to the full scans it replaced.
#[derive(Debug, Clone)]
pub struct VcFabric<P: RouterPolicy, Pr: Probe = NoopProbe> {
    policy: P,
    /// The telemetry probe; every event of the cycle lands here.
    probe: Pr,
    params: VcParams,
    /// The other end of every link.
    links: LinkTable,
    cycle: u64,
    routers: Vec<VcRouter<P::Tag>>,
    nics: Vec<VcNic<P::Tag>>,
    /// Per-node source queues (policy-defined order).
    sources: Vec<P::Source>,
    /// Every packet a NIC has started streaming, until its last flit
    /// ejects.
    packets: PacketStore,
    /// Packets enqueued whose NIC has not started streaming them: the
    /// records in `sources`.
    waiting: usize,
    /// In-flight flits per (node, input port), as `(vc, flit)`,
    /// indexed `node * PORTS + port`.
    wires: DelayedWires<(usize, VcFlit<P::Tag>)>,
    /// Credit returns `(node, port, vc)`; `port == LOCAL` means the
    /// NIC credit pool of `node`.
    credits_in_flight: TimedFifo<(usize, usize, usize)>,
    /// Every NIC that can move: one streaming a packet with credit on
    /// its VC, or an idle one with a free local VC and a packet queued
    /// (and, while the probe counts stalls, every NIC streaming a
    /// packet). A visit that finds it blocked removes it; a local
    /// credit that ends a VC's wait for credit or drains it, and
    /// `on_enqueue` and `pre_inject`, put it back. Every member has a
    /// packet streaming or queued.
    nic_work: ActiveSet,
    /// Every router that can move: one with a switch candidate or a VC
    /// request at an output with a free VC (and, while the probe counts
    /// stalls, every router with a switch-ready flit). Its
    /// `switch_traverse` visit removes a router that can grant nothing;
    /// a flit accepted from a link or the NIC, a credit that re-enables
    /// a switch-ready slot and a drained VC at an output with requests
    /// put it back. Every member holds a buffered flit.
    router_work: ActiveSet,
    /// Policy VC-allocation scratch, reused every cycle.
    scratch: P::Scratch,
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
    /// reporting telemetry events to `probe` (retrieve it with
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
        // At most one flit enters a link per cycle, `hop_latency`
        // cycles ahead: the wires are a wheel of that horizon. Credits
        // obey the same bound per (port, vc); pre-sizing their queue
        // to it means warmup never reallocates.
        let credit_cap = n * PORTS * (params.credit_delay as usize + 1);
        VcFabric {
            routers: (0..n)
                .map(|_| VcRouter::new(params.num_vcs, params.vc_capacity))
                .collect(),
            nics: (0..n)
                .map(|_| VcNic::new(params.num_vcs, params.vc_capacity))
                .collect(),
            sources: (0..n).map(|_| policy.new_source()).collect(),
            packets: PacketStore::new(),
            waiting: 0,
            wires: DelayedWires::new(n * PORTS, params.hop_latency),
            credits_in_flight: TimedFifo::with_capacity(credit_cap),
            nic_work: ActiveSet::new(n),
            router_work: ActiveSet::new(n),
            scratch: P::Scratch::default(),
            links: LinkTable::new(&params.topo),
            cycle: 0,
            policy,
            probe,
            params,
        }
    }

    /// Consumes the fabric, returning its probe.
    #[must_use]
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// The scheduling policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The packets whose NIC has started streaming them and whose last
    /// flit has not ejected yet. Packets still waiting in a source
    /// queue are not here.
    #[must_use]
    pub fn packets(&self) -> &PacketStore {
        &self.packets
    }

    /// Emits one occupancy sample per input VC buffer when the probe's
    /// sampling window is due. The whole scan is statically removed
    /// for [`NoopProbe`] builds (`Pr::ENABLED` is `false`), so the
    /// telemetry-off hot loop does not even test the cycle counter.
    fn sample_occupancy(&mut self, now: u64) {
        if !Pr::ENABLED || !self.probe.sample_due(now) {
            return;
        }
        let num_vcs = self.params.num_vcs;
        for (node, router) in self.routers.iter().enumerate() {
            for (slot, buf) in router.inputs.iter().enumerate() {
                let port = slot / num_vcs;
                self.probe
                    .on_occupancy(BufKind::Vc, node * PORTS + port, buf.q.len() as u32);
            }
        }
    }

    fn deliver_arrivals(&mut self, now: u64) {
        let Self {
            wires,
            routers,
            router_work,
            params,
            ..
        } = self;
        let cap = params.vc_capacity;
        let num_vcs = params.num_vcs;
        wires.drain_due(now, |widx, (vc, flit)| {
            let node = widx / PORTS;
            let port = widx % PORTS;
            let router = &mut routers[node];
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
            router_work.insert(node);
        });
    }

    fn apply_credits(&mut self, now: u64) {
        let cap = self.params.vc_capacity as u32;
        let num_vcs = self.params.num_vcs;
        while let Some((node, port, vc)) = self.credits_in_flight.pop_due(now) {
            let vbit = 1u64 << vc;
            if port == LOCAL {
                let nic = &mut self.nics[node];
                nic.credits[vc] += 1;
                // A first credit may unblock the streaming packet, and
                // a drained VC a queued one.
                let mut wake = nic.credits[vc] == 1;
                if P::DRAIN_BEFORE_REUSE && nic.draining & vbit != 0 && nic.credits[vc] == cap {
                    nic.draining &= !vbit;
                    nic.free |= vbit;
                    wake = true;
                }
                if wake && (nic.current.is_some() || !P::source_idle(&self.sources[node])) {
                    self.nic_work.insert(node);
                }
            } else {
                let r = &mut self.routers[node];
                let oslot = port * num_vcs + vc;
                r.credits[oslot] += 1;
                let mut wake = false;
                if r.credits[oslot] == 1 && r.holder[oslot] != NO_HOLDER {
                    // The holder's flits can move again.
                    let bit = 1u64 << r.holder[oslot];
                    r.sa_credit[port] |= bit;
                    wake = r.sa_ready[port] & bit != 0;
                }
                if P::DRAIN_BEFORE_REUSE
                    && r.out_draining[port] & vbit != 0
                    && r.credits[oslot] == cap
                {
                    r.out_draining[port] &= !vbit;
                    r.out_free[port] |= vbit;
                    wake |= r.va_req[port] != 0;
                }
                if wake {
                    self.router_work.insert(node);
                }
            }
        }
    }

    fn nic_inject(&mut self, now: u64) {
        let num_vcs = self.params.num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.nic_work.first_from(cursor) {
            cursor = node + 1;
            let nic = &mut self.nics[node];
            if nic.current.is_none() && !P::source_idle(&self.sources[node]) {
                // Allocate a free local VC, round-robin; only then
                // commit the packet, which enters the slab here.
                if let Some(vc) = MaskIter::rotated(nic.free, nic.rr).next() {
                    let (flow, waiting, tag) = P::pop_source(&mut self.sources[node]);
                    let (dst, len) = (waiting.dst, waiting.len_flits);
                    let pref = self
                        .packets
                        .insert(waiting.into_packet(flow, NodeId::new(node as u32)));
                    self.waiting -= 1;
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
                        self.packets.get_mut(cur.pref).injected_at = Some(now);
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
                    self.routers[node].accept(LOCAL * num_vcs + vc, flit, node, &self.params.topo);
                    self.router_work.insert(node);
                } else {
                    // A packet is mid-stream but the local VC has no
                    // credit: the source is head-of-line blocked.
                    self.probe.on_nic_stall(node);
                }
            }
            // Blocked until a credit returns or a packet is queued;
            // while stalls are counted, a streaming NIC stays to count
            // its own.
            let blocked = match &nic.current {
                Some(cur) => nic.credits[cur.vc] == 0 && !Pr::ENABLED,
                None => nic.free == 0 || P::source_idle(&self.sources[node]),
            };
            if blocked {
                self.nic_work.remove(node);
            }
        }
    }

    /// VC allocation at every router on the worklist, in ascending
    /// node order.
    fn vc_allocate(&mut self) {
        let num_vcs = self.params.num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.router_work.first_from(cursor) {
            cursor = node + 1;
            let router = &mut self.routers[node];
            // Allocation needs a request and a free VC. Gathering the
            // outputs that have both without branching makes a router
            // where nothing can be granted — every router of a
            // saturated tree, most cycles — one predictable skip. A
            // request with every VC held is a wait the probe counts.
            let mut open = 0u32;
            for out in 0..PORTS {
                let (req, free) = (router.va_req[out] != 0, router.out_free[out] != 0);
                open |= u32::from(req && free) << out;
                if Pr::ENABLED && req && !free {
                    self.probe.on_vc_wait(node * PORTS + out);
                }
            }
            while open != 0 {
                let out = open.trailing_zeros() as usize;
                open &= open - 1;
                P::vc_allocate(&mut self.scratch, router, out, num_vcs);
            }
        }
    }

    fn switch_traverse(&mut self, now: u64, out: &mut Vec<Packet>) {
        let num_vcs = self.params.num_vcs;
        let total = PORTS * num_vcs;
        let mut cursor = 0;
        while let Some(node) = self.router_work.first_from(cursor) {
            cursor = node + 1;
            // Whether the router can grant anything next cycle, output
            // by output once this visit is done with it.
            let mut busy = false;
            for out_port in 0..PORTS {
                let router = &mut self.routers[node];
                // No input VC has a flit for this output: nothing to
                // arbitrate.
                if router.sa_ready[out_port] == 0 {
                    busy |= router.keeps_busy(out_port, Pr::ENABLED);
                    continue;
                }
                if router.sa_ready[out_port] & router.sa_credit[out_port] == 0 {
                    // Flits are waiting for this output but every one
                    // of their downstream VCs is out of credit: the
                    // link idles under load.
                    self.probe.on_link_stall(node * PORTS + out_port);
                    busy |= router.keeps_busy(out_port, Pr::ENABLED);
                    continue;
                }
                let SwitchGrant {
                    in_port,
                    in_vc: v,
                    out_vc: ov,
                    slot,
                } = P::pick_winner(router, out_port, num_vcs);
                self.probe.on_link_flits(node * PORTS + out_port, 1);
                router.rr_sa[out_port] = if slot + 1 == total { 0 } else { slot + 1 };
                let flit = router.inputs[slot]
                    .q
                    .pop_front()
                    .expect("winner has a flit");
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
                    // of the next packet, now at the front. Its VC
                    // request may be at an output this loop has passed,
                    // whose free VCs no longer change in this visit.
                    if let Some(next) = buf.q.front() {
                        let out = self.params.topo.route(node, next.dst);
                        router.route_front(slot, out);
                        busy |= router.out_free[out] != 0;
                    }
                } else if router.inputs[slot].q.is_empty() {
                    // Mid-packet with nothing buffered: the slot keeps
                    // its route and VC but cannot request the switch
                    // until the next flit arrives.
                    router.sa_ready[out_port] &= !bit;
                }
                busy |= router.keeps_busy(out_port, Pr::ENABLED);
                // Return the freed input-slot credit upstream.
                let (up, up_port) = if in_port == LOCAL {
                    (node, LOCAL)
                } else {
                    let up_link = self.links.linked(node * PORTS + in_port);
                    (up_link / PORTS, up_link % PORTS)
                };
                self.credits_in_flight
                    .push(now + self.params.credit_delay, (up, up_port, v));
                if out_port == LOCAL {
                    self.eject(&flit, now, out);
                } else {
                    let widx = self.links.linked(node * PORTS + out_port);
                    self.wires
                        .push(widx, now + self.params.hop_latency, (ov, flit));
                }
            }
            if !busy {
                self.router_work.remove(node);
            }
        }
    }

    /// Hands a flit leaving through a local port to the policy and,
    /// when it is its packet's last, the packet to the probe and `out`.
    fn eject(&mut self, flit: &VcFlit<P::Tag>, now: u64, out: &mut Vec<Packet>) {
        self.policy.on_eject_flit(flit);
        let total = self.packets.get(flit.pref).len_flits;
        if let Some(packet) = self
            .packets
            .on_piece(flit.dst.index(), flit.pref, total, now)
        {
            self.probe.on_delivered(&packet);
            out.push(packet);
        }
    }

    /// Full-scan cross-check of every worklist and mask invariant
    /// (debug builds only): every arbitration mask must equal what a
    /// scan of the raw router state (`inputs`, `credits`, VC
    /// ownership) yields — so the policies arbitrate over exactly the
    /// requests, candidates and free VCs an all-slots, all-VCs scan
    /// with per-candidate credit tests would hand them — and the
    /// active sets must contain every index that can move by those
    /// recomputed masks, and only indices with something buffered or
    /// queued.
    #[cfg(debug_assertions)]
    fn debug_verify_worklists(&self) {
        let num_vcs = self.params.num_vcs;
        let cap = self.params.vc_capacity as u32;
        self.wires.debug_verify();
        for n in 0..self.routers.len() {
            let nic = &self.nics[n];
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
            let occupied = nic.current.is_some() || !P::source_idle(&self.sources[n]);
            let can_move = match &nic.current {
                Some(cur) => nic.credits[cur.vc] > 0 || Pr::ENABLED,
                None => occupied && nic.free != 0,
            };
            let member = self.nic_work.contains(n);
            debug_assert!(member || !can_move, "nic_work misses NIC {n}");
            debug_assert!(occupied || !member, "nic_work holds idle NIC {n}");

            let router = &self.routers[n];
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
            let mut can_move = false;
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
                let free = all_vcs(num_vcs) & !held[out] & !draining;
                debug_assert_eq!(router.out_free[out], free, "out_free[{n}][{out}]");
                can_move |= candidates[out] != 0
                    || (va_req[out] != 0 && free != 0)
                    || (Pr::ENABLED && (sa_ready[out] | va_req[out]) != 0);
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
            let member = self.router_work.contains(n);
            let occupied = router.inputs.iter().any(|buf| !buf.q.is_empty());
            debug_assert!(member || !can_move, "router_work misses router {n}");
            debug_assert!(occupied || !member, "router_work holds empty router {n}");
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
        self.waiting += 1;
        self.policy.on_enqueue(
            node,
            &packet,
            &mut PolicyCtx {
                sources: &mut self.sources,
                nic_work: &mut self.nic_work,
            },
        );
    }

    fn step(&mut self, out: &mut Vec<Packet>) {
        #[cfg(debug_assertions)]
        self.debug_verify_worklists();
        let delivered_before = out.len();
        let now = self.cycle;
        let mut clock = PhaseClock::start::<Pr>();
        self.policy.pre_inject(
            now,
            &mut PolicyCtx {
                sources: &mut self.sources,
                nic_work: &mut self.nic_work,
            },
        );
        clock.lap(&mut self.probe, Phase::PreInject);
        self.sample_occupancy(now);
        self.deliver_arrivals(now);
        clock.lap(&mut self.probe, Phase::DeliverArrivals);
        self.apply_credits(now);
        clock.lap(&mut self.probe, Phase::ApplyCredits);
        self.nic_inject(now);
        clock.lap(&mut self.probe, Phase::NicInject);
        self.vc_allocate();
        clock.lap(&mut self.probe, Phase::VcAllocate);
        self.switch_traverse(now, out);
        clock.lap(&mut self.probe, Phase::SwitchTraverse);
        self.probe.on_cycle(now);
        self.cycle = now + 1;
        debug_assert_delivered_once(out, delivered_before);
    }

    fn in_flight(&self) -> usize {
        self.packets.len() + self.waiting
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, PacketId, Waiting};

    /// A minimal policy: FIFO sources, each VC request takes the lowest
    /// free VC, and the first switch candidate from the round-robin
    /// pointer wins.
    #[derive(Debug, Clone)]
    struct Fifo;

    impl RouterPolicy for Fifo {
        type Tag = ();
        type Source = VecDeque<(FlowId, Waiting)>;
        type Scratch = ();
        const DRAIN_BEFORE_REUSE: bool = false;

        fn new_source(&self) -> Self::Source {
            VecDeque::new()
        }

        fn on_enqueue(
            &mut self,
            node: usize,
            packet: &Packet,
            ctx: &mut PolicyCtx<'_, Self::Source>,
        ) {
            ctx.sources[node].push_back((packet.id.flow, Waiting::of(packet)));
            ctx.nic_work.insert(node);
        }

        fn pop_source(source: &mut Self::Source) -> (FlowId, Waiting, ()) {
            let (flow, waiting) = source.pop_front().expect("source packet");
            (flow, waiting, ())
        }

        fn source_idle(source: &Self::Source) -> bool {
            source.is_empty()
        }

        fn vc_allocate((): &mut (), router: &mut VcRouter<()>, out: usize, num_vcs: usize) {
            let free = MaskIter::rotated(router.out_free[out], 0);
            for (slot, vc) in router.va_requests(out).zip(free) {
                router.grant_vc(slot, out, vc, num_vcs);
            }
        }

        fn pick_winner(router: &VcRouter<()>, out_port: usize, num_vcs: usize) -> SwitchGrant {
            let slot = router
                .sa_candidates(out_port, router.rr_sa[out_port])
                .next()
                .expect("called with a candidate");
            SwitchGrant {
                in_port: slot / num_vcs,
                in_vc: slot % num_vcs,
                out_vc: router.inputs[slot].out_vc.expect("candidate has a VC"),
                slot,
            }
        }
    }

    /// On a saturated tree toward one node most routers hold flits they
    /// cannot forward and most NICs a packet they cannot stream: the
    /// worklists hold fewer of them than are occupied, and the blocked
    /// ones still deliver everything once woken.
    #[test]
    fn blocked_routers_and_nics_leave_their_worklists() {
        let params = VcParams {
            topo: Topology::mesh(4, 4),
            num_vcs: 2,
            vc_capacity: 4,
            hop_latency: 3,
            credit_delay: 3,
            threads: 1,
        };
        let mut fabric = VcFabric::new(params, Fifo);
        let hotspot = 15u32;
        let mut seq = 0;
        for src in 0..hotspot {
            for _ in 0..20 {
                let id = PacketId {
                    flow: FlowId::new(src),
                    seq,
                };
                fabric.enqueue(Packet::new(
                    id,
                    NodeId::new(src),
                    NodeId::new(hotspot),
                    4,
                    0,
                ));
                seq += 1;
            }
        }
        let mut out = Vec::new();
        for _ in 0..300 {
            fabric.step(&mut out);
        }
        let holding = fabric
            .routers
            .iter()
            .filter(|r| r.inputs.iter().any(|buf| !buf.q.is_empty()))
            .count();
        let streaming = (0..fabric.nics.len())
            .filter(|&n| fabric.nics[n].current.is_some() || !fabric.sources[n].is_empty())
            .count();
        assert!(
            fabric.router_work.len() < holding,
            "{} listed routers, {holding} holding flits",
            fabric.router_work.len()
        );
        assert!(
            fabric.nic_work.len() < streaming,
            "{} listed NICs, {streaming} with packets",
            fabric.nic_work.len()
        );
        while fabric.in_flight() > 0 {
            fabric.step(&mut out);
            assert!(fabric.cycle() < 20_000, "the hotspot tree did not drain");
        }
        assert_eq!(out.len(), seq as usize);
    }
}
