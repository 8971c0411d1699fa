//! The policy interface of the shared VC datapath.

use crate::flit::{FlowId, Packet, Waiting};
use crate::worklist::ActiveSet;

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

/// Fabric state handed to the policy hooks that queue packets
/// ([`RouterPolicy::pre_inject`], [`RouterPolicy::on_enqueue`]).
///
/// `S` is the policy's [`RouterPolicy::Source`] type; the fabric owns
/// one source per node and hands the whole slice to the hook.
#[derive(Debug)]
pub struct PolicyCtx<'a, S> {
    /// Per-node source queues, indexed by node.
    pub sources: &'a mut [S],
    /// The NIC worklist: insert every node whose source gained
    /// streamable work during this hook.
    pub nic_work: &'a mut ActiveSet,
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
/// A packet waits in its source queue as a [`Waiting`] record, which
/// carries its destination and length; the queue implies its flow and
/// node. The fabric puts the packet in its slab when the NIC starts
/// streaming it, and from then on flits carry a
/// [`PacketRef`](crate::slab::PacketRef) handle to it. No policy hook
/// reads the slab.
///
/// # Hooks with and without `self`
///
/// * Hooks that take `&mut self` — [`RouterPolicy::pre_inject`],
///   [`RouterPolicy::on_enqueue`], [`RouterPolicy::on_eject_flit`] —
///   own the globally shared policy state (GSF's framing window,
///   untagged backlog, tag counter).
/// * The per-router hooks are associated functions with *no* `self`:
///   they may only touch the per-node [`RouterPolicy::Source`], the
///   fabric's [`RouterPolicy::Scratch`], and the router they are
///   handed. So ejecting a flit in the middle of switch traversal
///   cannot change a later switch grant.
///
/// Flit-reservation networks (LOFT) replace VC flow control and
/// build on the fabric substrate directly instead of this trait — see
/// the module docs for where each network sits.
pub trait RouterPolicy {
    /// Per-flit policy payload carried through the network (`()` for
    /// plain wormhole, the frame number for GSF).
    type Tag: Copy + std::fmt::Debug;

    /// Per-node source-queue state: what waits to stream at a node,
    /// in the policy's order (a FIFO for wormhole, a frame-ordered
    /// heap for GSF). `Clone` so a fabric can be snapshotted for
    /// checkpoint/fork (see `noc_sim::checkpoint`).
    type Source: std::fmt::Debug + Clone;

    /// Scratch reused across cycles by
    /// [`RouterPolicy::vc_allocate`] (e.g. GSF's request vector).
    /// `()` when the allocator needs none. `Clone` for the same
    /// snapshot reason as [`RouterPolicy::Source`].
    type Scratch: Default + std::fmt::Debug + Clone;

    /// Reuse semantics for downstream VCs. `false`: the tail flit
    /// frees the VC immediately (wormhole). `true`: the VC stays
    /// owned until its credits fully return (GSF's strict VC
    /// separation), and NIC-side VCs drain the same way.
    const DRAIN_BEFORE_REUSE: bool;

    /// An empty source queue for one node.
    fn new_source(&self) -> Self::Source;

    /// Runs once per cycle, first, before this cycle's link arrivals
    /// and credit returns are applied (GSF recycles frames here).
    /// Default: nothing.
    fn pre_inject(&mut self, now: u64, ctx: &mut PolicyCtx<'_, Self::Source>) {
        let _ = (now, ctx);
    }

    /// A packet entered the network at `node`: queue its
    /// [`Waiting`] record at the source (and insert `node` into
    /// `ctx.nic_work` if it is ready to stream).
    fn on_enqueue(&mut self, node: usize, packet: &Packet, ctx: &mut PolicyCtx<'_, Self::Source>);

    /// Removes and returns the packet that streams next from this
    /// source queue, with its flow and tag. The fabric calls this only
    /// when the queue is not [idle](RouterPolicy::source_idle) and a
    /// free VC is found.
    fn pop_source(source: &mut Self::Source) -> (FlowId, Waiting, Self::Tag);

    /// Whether this source queue holds nothing ready to stream (part
    /// of the NIC worklist predicate, with the streaming state, credits
    /// and free VCs the fabric tracks itself).
    fn source_idle(source: &Self::Source) -> bool;

    /// Virtual-channel allocation for one output port: hand free
    /// downstream VCs (`router.out_free[out]`) to head flits waiting
    /// for one there ([`VcRouter::va_requests`]), every grant through
    /// [`VcRouter::grant_vc`]. The fabric calls this only for an
    /// output with at least one request and one free VC, so there is
    /// always a grant to make.
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
    /// and the return is the grant.
    fn pick_winner(router: &VcRouter<Self::Tag>, out_port: usize, num_vcs: usize) -> SwitchGrant;

    /// A flit was ejected at its destination, during switch traversal
    /// and in ascending node order. Default: nothing.
    fn on_eject_flit(&mut self, flit: &VcFlit<Self::Tag>) {
        let _ = flit;
    }
}
