//! The policy interface of the shared VC datapath.

use crate::flit::PacketId;
use crate::slab::{PacketRef, PacketStore};

use super::vc::{VcFlit, VcRouter};

/// A switch-allocation grant: which input VC forwards through an
/// output port this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchGrant {
    /// Winning input port.
    pub in_port: usize,
    /// Winning input VC.
    pub in_vc: usize,
    /// The downstream VC the flit travels on.
    pub out_vc: usize,
    /// The winner's arbitration slot (`in_port * num_vcs + in_vc`) —
    /// the flat index of the winning buffer in
    /// [`VcRouter::inputs`]; the fabric advances the port's
    /// round-robin pointer past it.
    pub slot: usize,
}

/// Fabric state a *serial* policy hook may touch
/// ([`RouterPolicy::pre_inject`], [`RouterPolicy::on_enqueue`]).
///
/// `S` is the policy's [`RouterPolicy::Source`] type; the fabric owns
/// one source per node and hands the whole slice to the hook.
#[derive(Debug)]
pub struct PolicyCtx<'a, S> {
    /// Read access to every in-flight packet (lengths, destinations).
    pub packets: &'a PacketStore,
    /// Per-node source queues, indexed by node.
    pub sources: &'a mut [S],
    /// Nodes whose source NIC gained streamable work during this hook:
    /// push the node index here and the fabric marks the right shard's
    /// NIC worklist. (A relay rather than the worklist itself, because
    /// under sharded stepping each shard owns its own worklist.)
    pub woken: &'a mut Vec<usize>,
}

/// A scheduling/flow-control policy over the shared VC datapath
/// ([`super::VcFabric`]).
///
/// The fabric owns the invariant machinery — wires, credits, buffers,
/// NIC streaming, ejection, worklists. A policy supplies what
/// distinguishes one network from another:
///
/// * **source queueing** — what order packets leave a node's source
///   queue, and any admission stamping (e.g. GSF frame tags),
/// * **VC allocation** — which head flits get a downstream VC,
/// * **switch allocation** — which input VC each output port serves,
/// * **reuse semantics** — whether a downstream VC frees on the tail
///   flit or only after draining ([`RouterPolicy::DRAIN_BEFORE_REUSE`]),
/// * **per-cycle bookkeeping** — e.g. GSF's barrier frame recycling
///   in [`RouterPolicy::pre_inject`].
///
/// Packets are referenced by [`PacketRef`] slab handles everywhere on
/// the datapath; resolve one through [`PolicyCtx::packets`] when flow
/// or length information is needed.
///
/// # Serial vs. per-shard hooks
///
/// The fabric steps shards of nodes concurrently (see [`crate::par`]),
/// so the hooks split into two groups:
///
/// * **Serial hooks** take `&mut self` and run on the coordinator
///   between cycles or at the cycle barrier: [`RouterPolicy::pre_inject`],
///   [`RouterPolicy::on_enqueue`], [`RouterPolicy::on_eject_flit`],
///   [`RouterPolicy::on_eject_packet`]. Globally shared policy state
///   (GSF's framing window, untagged backlog, tag counter) lives in
///   `self` and is only touched here.
/// * **Per-shard hooks** are associated functions with *no* `self`:
///   they may only touch the per-node [`RouterPolicy::Source`], the
///   per-shard [`RouterPolicy::Scratch`], and the router they are
///   handed — state a shard owns exclusively. This is what makes
///   parallel stepping race-free by construction.
///
/// Flit-reservation networks (LOFT) replace VC flow control and
/// build on the fabric substrate directly instead of this trait — see
/// the module docs for where each network sits.
pub trait RouterPolicy {
    /// Per-flit policy payload carried through the network (`()` for
    /// plain wormhole, the frame number for GSF).
    type Tag: Copy + std::fmt::Debug + Send;

    /// Per-node source-queue state: what waits to stream at a node,
    /// in the policy's order (a FIFO for wormhole, a frame-ordered
    /// heap for GSF). Owned by the node's shard during stepping.
    /// `Clone` so a fabric can be snapshotted for checkpoint/fork
    /// (see `noc_sim::checkpoint`).
    type Source: std::fmt::Debug + Send + Clone;

    /// Per-shard scratch reused across cycles by
    /// [`RouterPolicy::vc_allocate`] (e.g. GSF's request vector).
    /// `()` when the allocator needs none. `Clone` for the same
    /// snapshot reason as [`RouterPolicy::Source`].
    type Scratch: Default + std::fmt::Debug + Send + Clone;

    /// Reuse semantics for downstream VCs. `false`: the tail flit
    /// frees the VC immediately (wormhole). `true`: the VC stays
    /// owned until its credits fully return (GSF's strict VC
    /// separation), and NIC-side VCs drain the same way.
    const DRAIN_BEFORE_REUSE: bool;

    /// An empty source queue for one node.
    fn new_source(&self) -> Self::Source;

    /// Runs once per cycle, serially, before the shards step (GSF
    /// recycles frames here). Default: nothing.
    ///
    /// This hook must not depend on the *current* cycle's link
    /// arrivals or credit returns — under sharded stepping those are
    /// processed after it (they only touch router/NIC state, which
    /// this hook cannot reach anyway).
    fn pre_inject(&mut self, now: u64, ctx: &mut PolicyCtx<'_, Self::Source>) {
        let _ = (now, ctx);
    }

    /// A packet entered the network at `node`: queue it at the source
    /// (and push `node` into `ctx.woken` if it is ready to stream).
    /// Serial.
    fn on_enqueue(&mut self, node: usize, pref: PacketRef, ctx: &mut PolicyCtx<'_, Self::Source>);

    /// The packet that would stream next from this source queue, if
    /// any. The fabric only commits (via [`RouterPolicy::pop_source`])
    /// once a free VC is found. Per-shard.
    fn peek_source(source: &Self::Source) -> Option<PacketRef>;

    /// Removes and returns the packet just peeked, with its tag.
    /// Per-shard.
    fn pop_source(source: &mut Self::Source) -> (PacketRef, Self::Tag);

    /// Whether this source queue holds nothing ready to stream (the
    /// NIC worklist predicate, together with the streaming state the
    /// fabric tracks itself). Per-shard.
    fn source_idle(source: &Self::Source) -> bool;

    /// Virtual-channel allocation for one output port: hand free
    /// downstream VCs (`router.out_free[out]`) to head flits waiting
    /// for one there ([`VcRouter::va_requests`]), every grant through
    /// [`VcRouter::grant_vc`]. The fabric calls this only for an
    /// output with at least one request and one free VC, so there is
    /// always a grant to make. Per-shard.
    fn vc_allocate(
        scratch: &mut Self::Scratch,
        router: &mut VcRouter<Self::Tag>,
        out: usize,
        num_vcs: usize,
    );

    /// Switch allocation for one output port: pick the input VC that
    /// forwards this cycle among [`VcRouter::sa_candidates`] — the
    /// slots with a flit buffered for `out_port`, a downstream VC
    /// allocated and (except for ejection) credit to spend on it. The
    /// candidates arrive credit-filtered, so the policy only orders
    /// them; the fabric calls this only when there is at least one,
    /// and the return is the grant. Per-shard.
    fn pick_winner(router: &VcRouter<Self::Tag>, out_port: usize, num_vcs: usize) -> SwitchGrant;

    /// A flit was ejected at its destination. Serial (ejections are
    /// deferred to the cycle barrier and applied in ascending node
    /// order). Default: nothing.
    fn on_eject_flit(&mut self, flit: &VcFlit<Self::Tag>) {
        let _ = flit;
    }

    /// A packet fully ejected (its last flit just arrived). Default:
    /// nothing.
    fn on_eject_packet(&mut self, id: PacketId) {
        let _ = id;
    }

    /// The fabric is jumping `cycles` quiescent cycles starting at
    /// `now` (see `VcFabric::fast_forward`): advance any
    /// purely time-dependent policy state in closed form, exactly as
    /// `cycles` idle [`RouterPolicy::pre_inject`] calls would have.
    /// Serial. Default: nothing (stateless policies like wormhole
    /// have no clock of their own).
    fn fast_forward(&mut self, now: u64, cycles: u64) {
        let _ = (now, cycles);
    }
}
