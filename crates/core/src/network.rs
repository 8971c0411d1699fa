//! The LOFT network: look-ahead plane + data plane.
//!
//! # Structure
//!
//! Every output link in the system — the per-node *injection* link
//! (NIC → router), every router-to-router link, and the *ejection*
//! link (router → PE) — owns one [`LinkScheduler`] (the LSF machinery
//! of [`crate::lsf`]). Two physical networks share those schedulers:
//!
//! * the **look-ahead network** moves one-word look-ahead flits, one
//!   per data quantum. A look-ahead flit visits the scheduler of each
//!   link on its path in order, books a departure slot
//!   (Algorithms 1–2), records it in the input reservation table it
//!   came through, and returns a virtual credit to the upstream link.
//!   A look-ahead flit that cannot book (its flow's window is
//!   exhausted) stalls in the router's output queue, back-pressuring
//!   the look-ahead network — this is how LSF throttles flows to their
//!   reservations.
//! * the **data network** moves 2-flit quanta. At every slot each
//!   output link forwards the *emergent* quantum (the one booked for
//!   this slot) if present; otherwise, with speculative switching
//!   enabled, it forwards the arrived quantum with the earliest
//!   booked slot. A quantum that is the first booking in the table
//!   travels into the downstream *non-speculative* buffer (space
//!   guaranteed by the virtual-credit discipline, Theorem I); any
//!   other quantum goes to the small *speculative* buffer and is
//!   denied the link when that buffer is full — out-of-order flits
//!   can therefore never block scheduled traffic (Section 4.3.1).
//!
//! When a link has no pending bookings and the downstream
//! non-speculative buffer is empty, the link performs a **local
//! status reset** (Section 4.3.2): every credit and reservation
//! returns to its power-up value, so idle regions of the network
//! recycle frames at full speed regardless of congestion elsewhere.
//!
//! # Fabric layering
//!
//! LOFT is a flit-reservation router, not a VC router, so it does not
//! implement [`noc_sim::fabric::RouterPolicy`]; instead it builds
//! directly on the fabric substrate: [`DelayedWires`] due-time wheels
//! carry both planes' in-flight traffic, [`PacketStore`] owns
//! in-flight packets and ejection accounting, the
//! [`Topology`](noc_sim::Topology) routes and fixes the link index
//! space, and a [`LinkTable`] answers where each link leads, for link
//! traversal and virtual-credit returns alike. A look-ahead flit
//! carries the output port its sender routed it to, so arrival does
//! not route again. The look-ahead channel is LOFT's own:
//! `crate::lookahead::LookaheadQueues`, one arrival-ordered FIFO per
//! output port with per-flow fair bypass.
//!
//! # Timing model
//!
//! One slot = `flits_per_quantum` cycles. Data hops cost
//! `hop_latency` cycles (3-stage router + link folded together);
//! look-ahead hops cost `la_hop_latency` cycles. Virtual-credit
//! returns are applied the cycle they are produced (the one-cycle
//! wire is folded into the scheduling pipeline).
//!
//! Link schedulers are not ticked: every access goes through
//! `LoftNetwork::sched`, which first brings the scheduler to the
//! current slot ([`LinkScheduler::advance_to`]). Links with a pending
//! booking are touched by the data plane every slot, so they never
//! lag; any other link catches up in at most one window of work.

use noc_sim::checkpoint::CapDeque;
use noc_sim::fabric::{debug_assert_delivered_once, DelayedWires, LinkTable, LOCAL, PORTS};
use noc_sim::flit::{FlowId, NodeId, Packet};
use noc_sim::slab::{PacketRef, PacketStore};
use noc_sim::telemetry::{BufKind, NoopProbe, Phase, PhaseClock, Probe};
use noc_sim::{ActiveSet, Network};

use crate::config::LoftConfig;
use crate::lookahead::LookaheadQueues;
use crate::lsf::{LinkScheduler, LsfParams, PendingQuantum};
use crate::port::{DataPort, ResIdx};

/// A quantum chosen to forward on a link: its booked slot there, the
/// input port holding it, and its reservation entry at that port.
type Choice = (u64, u8, ResIdx);

#[derive(Debug, Clone, Copy)]
struct LaFlit {
    flow: FlowId,
    dst: NodeId,
    /// Departure slot booked at the previous link.
    dep_slot: u64,
    /// Input port at the router the flit is bound for or held at.
    in_port: u8,
    /// Output port the flit leaves that router through: the port its
    /// reservation entry there was allocated for.
    out_port: u8,
    /// The quantum's entry in that port's reservation store, allocated
    /// by the sender together with the flit.
    res_idx: ResIdx,
}

/// A data quantum in flight on a link (availability time lives in the
/// wire's due field).
#[derive(Debug, Clone, Copy)]
struct DataQuantum {
    /// The quantum's entry in the receiving port's reservation store.
    res_idx: ResIdx,
    /// Destination buffer at the receiver: speculative or not.
    spec: bool,
    /// Handle of the owning packet.
    pref: PacketRef,
}

#[derive(Debug, Clone)]
struct SrcQuantum {
    qid: u64,
    dst: NodeId,
    pref: PacketRef,
}

/// Per-node source NIC.
///
/// The PE→router link has no contention (a single PE feeds it), so —
/// matching the paper's server model of Figure 2, where the
/// scheduling points are router output links — it carries no LSF
/// scheduler. The NIC launches one look-ahead flit per cycle and
/// streams the corresponding data quanta into the router's local
/// input port, one per slot, as buffer space permits.
///
/// The queues reach their high-water capacity during warmup, which
/// forks keep ([`CapDeque`]).
#[derive(Debug, Clone)]
struct SourceNic {
    /// Quanta awaiting look-ahead launch, per flow sourced here,
    /// parallel to `rr_flows` — the launch scan indexes both by
    /// round-robin position, so no keyed lookup is needed.
    flow_q: Vec<CapDeque<SrcQuantum>>,
    /// Total quanta across all of `flow_q` (the launch worklist's
    /// activity predicate).
    queued: usize,
    /// Round-robin over flows for look-ahead launch; `rr_flows[i]`
    /// owns `flow_q[i]`.
    rr_flows: Vec<u32>,
    rr: usize,
    /// Quanta whose look-ahead has launched, awaiting their data
    /// transfer into the router (FIFO, one per slot): the entry in the
    /// local port's reservation store and the owning packet's handle.
    staged: CapDeque<(ResIdx, PacketRef)>,
}

impl SourceNic {
    fn new() -> Self {
        SourceNic {
            flow_q: Vec::new(),
            queued: 0,
            rr_flows: Vec::new(),
            rr: 0,
            staged: CapDeque::default(),
        }
    }
}

/// The LOFT network (LSF + FRS). See the crate and module docs.
///
/// Generic over a telemetry [`Probe`]; the default [`NoopProbe`]
/// compiles all instrumentation away (see `noc_sim::telemetry`).
#[derive(Debug, Clone)]
pub struct LoftNetwork<Pr: Probe = NoopProbe> {
    cfg: LoftConfig,
    /// The other end of every link.
    links: LinkTable,
    /// The telemetry probe: every event, from every phase.
    probe: Pr,
    cycle: u64,
    /// Router link schedulers, index `node * 5 + port`.
    link_sched: Vec<LinkScheduler>,
    /// Data-plane input ports, index `node * 5 + port`.
    data_ports: Vec<DataPort>,
    /// Round-robin pointers for speculative output arbitration.
    rr_spec: Vec<usize>,
    nics: Vec<SourceNic>,
    /// In-flight packets (slab-owned) + ejection progress. Quanta
    /// carry their packet's [`PacketRef`] through the data plane, so
    /// ejection accounting needs no side map.
    packets: PacketStore,
    /// Look-ahead flits currently in the look-ahead plane, per flow
    /// (capped by `la_flow_window`).
    la_outstanding: Vec<u32>,
    /// Look-ahead flits in flight to their next input port.
    la_wires: DelayedWires<LaFlit>,
    /// Data quanta in flight to their next input port.
    data_wires: DelayedWires<DataQuantum>,
    /// The look-ahead channel queue of every output port.
    la_queues: LookaheadQueues<LaFlit>,
    // ---- active-set worklists (see `noc_sim::worklist`) ----------
    /// Links with a pending booking (`pending_len() > 0`): a quantum
    /// can only forward on the link where it is booked, so these are
    /// the only links the data plane visits — every slot, which keeps
    /// their schedulers at the clock.
    pending_links: ActiveSet,
    /// Nodes with queued source quanta awaiting look-ahead launch.
    launch_work: ActiveSet,
    /// Nodes with staged quanta awaiting injection.
    stage_work: ActiveSet,
    /// Links to re-examine for a local status reset: a reset becomes
    /// possible only when a link's last pending quantum forwards or
    /// its downstream non-speculative buffer drains back to capacity,
    /// so only those events queue a check — idle and saturated links
    /// alike cost nothing per cycle. Always empty with
    /// [`LoftConfig::local_status_reset`] off.
    reset_check: ActiveSet,
}

impl LoftNetwork {
    /// Builds the network for flows with the given per-frame
    /// reservations in **flits** (`R_ij`, usually from
    /// [`noc_traffic::Scenario::reservations`] with
    /// [`LoftConfig::frame_size`]).
    ///
    /// # Panics
    ///
    /// Panics with the message of [`LoftConfig::validate`] if `cfg`
    /// fails it, or if any reservation is zero.
    pub fn new(cfg: LoftConfig, reservations_flits: &[u32]) -> Self {
        Self::with_probe(cfg, reservations_flits, NoopProbe)
    }
}

impl<Pr: Probe> LoftNetwork<Pr> {
    /// Like [`LoftNetwork::new`] with an attached telemetry probe;
    /// retrieve it after the run with [`LoftNetwork::into_probe`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`LoftNetwork::new`].
    pub fn with_probe(cfg: LoftConfig, reservations_flits: &[u32], probe: Pr) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            reservations_flits.iter().all(|&r| r > 0),
            "reservations must be positive"
        );
        let n = cfg.topo.num_nodes();
        let params = LsfParams {
            frame_quanta: cfg.frame_quanta(),
            frame_window: cfg.frame_window,
            flits_per_quantum: cfg.flits_per_quantum,
            buffer_quanta: cfg.nonspec_quanta(),
            sink: false,
        };
        let link_sched = (0..n * PORTS)
            .map(|i| {
                let p = LsfParams {
                    sink: i % PORTS == LOCAL,
                    ..params
                };
                LinkScheduler::new(p, reservations_flits)
            })
            .collect();
        let res_cap = cfg.reservation_store_capacity() as usize;
        LoftNetwork {
            probe,
            data_ports: (0..n * PORTS)
                .map(|_| {
                    DataPort::new(
                        cfg.nonspec_quanta() as i64,
                        cfg.spec_quanta() as i64,
                        res_cap,
                    )
                })
                .collect(),
            rr_spec: vec![0; n * PORTS],
            nics: (0..n).map(|_| SourceNic::new()).collect(),
            packets: PacketStore::new(),
            la_outstanding: vec![0; reservations_flits.len()],
            la_wires: DelayedWires::new(n * PORTS, cfg.la_hop_latency),
            data_wires: DelayedWires::new(n * PORTS, cfg.dep_offset()),
            la_queues: LookaheadQueues::new(n * PORTS, reservations_flits.len()),
            pending_links: ActiveSet::new(n * PORTS),
            launch_work: ActiveSet::new(n),
            stage_work: ActiveSet::new(n),
            reset_check: ActiveSet::new(n * PORTS),
            link_sched,
            links: LinkTable::new(&cfg.topo),
            cycle: 0,
            cfg,
        }
    }

    /// The configuration the network was built with.
    pub fn config(&self) -> &LoftConfig {
        &self.cfg
    }

    /// Consumes the network, returning its telemetry probe.
    pub fn into_probe(self) -> Pr {
        self.probe
    }

    /// One-line diagnostic snapshot of a node's injection side (for
    /// debugging and tests).
    pub fn debug_injection(&self, node: usize) -> String {
        let nic = &self.nics[node];
        let queued: usize = nic.flow_q.iter().map(|q| q.len()).sum();
        let ridx = node * PORTS + LOCAL;
        format!(
            "inj n{node}: queued={} staged={} local_nonspec_free={} outstanding={:?}",
            queued,
            nic.staged.len(),
            self.data_ports[ridx].nonspec_free,
            nic.rr_flows
                .iter()
                .map(|&f| self.la_outstanding[f as usize])
                .collect::<Vec<_>>()
        )
    }

    /// One-line diagnostic snapshot of a router output link (for
    /// debugging and tests): pending bookings, look-ahead queue
    /// length, reset count, and the downstream buffer occupancy.
    pub fn debug_link(&self, node: usize, port: usize) -> String {
        let lidx = node * PORTS + port;
        let sched = &self.link_sched[lidx];
        let downstream = if port == LOCAL {
            "PE".to_string()
        } else {
            match self.links.peer(lidx) {
                Some(ridx) => {
                    let p = &self.data_ports[ridx];
                    format!(
                        "nonspec_free={}/{} spec_free={}/{}",
                        p.nonspec_free,
                        self.cfg.nonspec_quanta(),
                        p.spec_free,
                        self.cfg.spec_quanta()
                    )
                }
                None => "edge".to_string(),
            }
        };
        format!(
            "link n{node}.{port}: pending={} la_queue={} resets={} head={} {}",
            sched.pending_len(),
            self.la_queues.raw_len(lidx),
            sched.resets(),
            // Not `sched.head_frame()`: a scheduler without a pending
            // booking may lag until its next access.
            self.slot() / self.cfg.frame_quanta() as u64,
            downstream
        )
    }

    /// The slot of the last stepped cycle: the clock no scheduler is
    /// ahead of between steps.
    fn slot(&self) -> u64 {
        self.cycle.saturating_sub(1) / self.cfg.flits_per_quantum as u64
    }

    /// Link `lidx`'s scheduler, brought to the current cycle's slot:
    /// the one way to reach a scheduler's clock-dependent state.
    fn sched(&mut self, lidx: usize) -> &mut LinkScheduler {
        let slot = self.cycle / self.cfg.flits_per_quantum as u64;
        let sched = &mut self.link_sched[lidx];
        sched.advance_to(slot);
        sched
    }

    fn quanta_per_packet(&self, len_flits: u16) -> u64 {
        (len_flits as u64).div_ceil(self.cfg.flits_per_quantum as u64)
    }

    // ---------------- look-ahead plane ------------------------------

    /// Launches at most one look-ahead flit per node per cycle (the
    /// look-ahead injection link is one flit wide), round-robin over
    /// the node's flows. The flit's first booking happens at the
    /// first router output port; the data quantum is staged to follow
    /// it into the router's local input buffer.
    fn la_launch(&mut self, now: u64) {
        let la_hop = self.cfg.la_hop_latency;
        let q = self.cfg.flits_per_quantum as u64;
        let mut cursor = 0;
        while let Some(node) = self.launch_work.first_from(cursor) {
            cursor = node + 1;
            if self.nics[node].staged.len() >= self.cfg.la_flow_window as usize {
                continue; // data staging backlog: hold the look-aheads
            }
            let len = self.nics[node].rr_flows.len();
            for k in 0..len {
                let fi = (self.nics[node].rr + k) % len;
                let fid = self.nics[node].rr_flows[fi];
                if self.la_outstanding[fid as usize] >= self.cfg.la_flow_window {
                    continue; // the flow's look-ahead window is full
                }
                let nic = &mut self.nics[node];
                let Some(SrcQuantum { qid, dst, pref }) = nic.flow_q[fi].pop_front() else {
                    continue;
                };
                nic.queued -= 1;
                nic.rr = (nic.rr + k + 1) % len;
                // The data quantum will leave the NIC one slot per
                // staged predecessor from now; the look-ahead carries
                // that planned slot as its upstream departure time.
                let plan = now / q + 1 + nic.staged.len() as u64;
                let out_port = self.cfg.topo.route(node, dst) as u8;
                let res_idx = self.data_ports[node * PORTS + LOCAL].reserve((fid, qid), out_port);
                nic.staged.push_back((res_idx, pref));
                if self.nics[node].queued == 0 {
                    self.launch_work.remove(node);
                }
                self.la_outstanding[fid as usize] += 1;
                self.stage_work.insert(node);
                self.la_wires.push(
                    node * PORTS + LOCAL,
                    now + la_hop,
                    LaFlit {
                        flow: FlowId::new(fid),
                        dst,
                        dep_slot: plan,
                        in_port: LOCAL as u8,
                        out_port,
                        res_idx,
                    },
                );
                break;
            }
        }
    }

    /// Moves arriving look-ahead flits into the look-ahead channel
    /// queue of their next output port. The sender already allocated
    /// each flit's reservation entry here, so no input port is
    /// touched.
    ///
    /// The channel queues are per-flow fair (see
    /// [`Self::la_schedule`]), so delivery is not capacity-limited:
    /// the per-flow look-ahead window (`la_flow_window`) already
    /// bounds how many flits any one flow can pile up here.
    fn la_deliver(&mut self, now: u64) {
        let Self {
            la_wires,
            la_queues,
            ..
        } = self;
        la_wires.drain_due(now, |widx, la| {
            let node = widx / PORTS;
            la_queues.push(node * PORTS + la.out_port as usize, la.flow.index(), la);
        });
    }

    /// Runs output scheduling on every look-ahead channel queue: at
    /// most one look-ahead flit per port per cycle books a slot and
    /// moves on. A flit whose flow has exhausted its window does not
    /// block the queue — later flits of *other* flows may bypass it
    /// (the virtual channels of the paper's look-ahead router), while
    /// per-flow order is preserved: [`LookaheadQueues::book_first`]
    /// offers each flow's oldest flit once, oldest first.
    fn la_schedule(&mut self, now: u64) {
        let la_hop = self.cfg.la_hop_latency;
        let dep_off = self.cfg.dep_offset();
        let mut cursor = 0;
        while let Some(qidx) = self.la_queues.first_from(cursor) {
            cursor = qidx + 1;
            let node = qidx / PORTS;
            let dirty = self.sched(qidx).take_dirty();
            if self.la_queues.is_blocked(qidx) && !dirty {
                self.probe.on_sched_deny(qidx);
                continue;
            }
            let booked = {
                let Self {
                    la_queues,
                    link_sched,
                    ..
                } = self;
                // Already at the clock: `take_dirty` went through
                // `sched` this cycle.
                la_queues.book_first(qidx, |la| {
                    link_sched[qidx].schedule(
                        la.flow,
                        la.dep_slot + dep_off,
                        PendingQuantum {
                            in_port: la.in_port,
                            res_idx: la.res_idx,
                        },
                    )
                })
            };
            let Some((la, slot)) = booked else {
                self.probe.on_sched_deny(qidx);
                continue;
            };
            self.probe.on_sched_book(qidx);
            // The booking adds a pending quantum: feed the
            // data-plane worklist.
            self.pending_links.insert(qidx);
            // Booked onward: allocate the quantum's entry at the
            // next router's input port, which the look-ahead is
            // sent to now. Ejection needs none.
            let pidx = node * PORTS + la.in_port as usize;
            let onward = (la.out_port as usize != LOCAL).then(|| {
                let ridx = self.links.linked(qidx);
                let key = self.data_ports[pidx].key(la.res_idx);
                let next_out = self.cfg.topo.route(ridx / PORTS, la.dst) as u8;
                let idx = self.data_ports[ridx].reserve(key, next_out);
                (ridx, next_out, idx)
            });
            // Input reservation table: record the booked slot.
            self.data_ports[pidx].record_booking(la.res_idx, slot, onward.map_or(0, |o| o.2));
            // Return the virtual credit upstream: the upstream
            // link now knows when its consumed buffer frees. The
            // local input port is fed by the NIC, which uses
            // actual-space flow control instead of a scheduler.
            if la.in_port as usize != LOCAL {
                let up = self.links.linked(pidx);
                self.sched(up).return_credit(slot);
            }
            // Ejection booked: the look-ahead flit is consumed
            // and the flow's look-ahead window slot frees up.
            let Some((ridx, next_out, res_idx)) = onward else {
                self.la_outstanding[la.flow.index()] -= 1;
                continue;
            };
            self.la_wires.push(
                ridx,
                now + la_hop,
                LaFlit {
                    dep_slot: slot,
                    in_port: (ridx % PORTS) as u8,
                    out_port: next_out,
                    res_idx,
                    ..la
                },
            );
        }
    }

    // ---------------- data plane ------------------------------------

    /// Delivers every data quantum due at `slot` into its input port.
    fn deliver_data(&mut self, slot: u64) {
        let ports = &mut self.data_ports;
        self.data_wires.drain_due(slot, |widx, w| {
            ports[widx].record_arrival(w.res_idx, w.spec, w.pref);
        });
    }

    /// Streams each NIC's oldest staged quantum into its router's
    /// local input port when that port has non-speculative space,
    /// stamping `injected_at` on a packet's first quantum.
    fn nic_inject(&mut self, slot: u64) {
        let at = slot * self.cfg.flits_per_quantum as u64;
        let due = slot + self.cfg.dep_offset();
        let mut cursor = 0;
        while let Some(node) = self.stage_work.first_from(cursor) {
            cursor = node + 1;
            let pidx = node * PORTS + LOCAL;
            if self.data_ports[pidx].nonspec_free == 0 {
                self.probe.on_nic_stall(node);
                continue;
            }
            let nic = &mut self.nics[node];
            let (res_idx, pref) = nic.staged.pop_front().expect("stage_work implies staged");
            if nic.staged.is_empty() {
                self.stage_work.remove(node);
            }
            self.data_ports[pidx].nonspec_free -= 1;
            self.packets.get_mut(pref).injected_at.get_or_insert(at);
            self.data_wires.push(
                pidx,
                due,
                DataQuantum {
                    res_idx,
                    spec: false,
                    pref,
                },
            );
        }
    }

    /// One slot of data movement on every link with a pending
    /// booking, in ascending (node, port) order. Both the emergent
    /// and the speculative candidate of a link are quanta booked on
    /// it (`DataPort`'s `ready[out]` only holds booked entries), so
    /// [`Self::move_on_link`] cannot act anywhere else.
    fn data_move(&mut self, slot: u64, out: &mut Vec<Packet>) {
        let mut cursor = 0;
        while let Some(lidx) = self.pending_links.first_from(cursor) {
            cursor = lidx + 1;
            self.move_on_link(lidx / PORTS, lidx % PORTS, slot, out);
        }
    }

    fn move_on_link(&mut self, node: usize, out_port: usize, slot: u64, out: &mut Vec<Packet>) {
        // `data_move` gets here every slot while the link holds a
        // booking: this access is what keeps such a scheduler current.
        let sched = self.sched(node * PORTS + out_port);
        // Emergent quantum: booked for this slot (or earlier — a
        // booking can run late when its buffer was transiently full).
        let emergent = sched
            .first_pending()
            .filter(|&(s, _)| s <= slot)
            .map(|(s, p)| (s, p.in_port, p.res_idx));
        let present = emergent.filter(|&(_, in_port, res_idx)| {
            self.data_ports[node * PORTS + in_port as usize].arrived_at(res_idx)
        });
        let choice = match present {
            Some(c) => Some(c),
            None if self.cfg.speculative_switching => self.pick_speculative(node, out_port),
            None => None,
        };
        if let Some(choice) = choice {
            self.forward(node, out_port, slot, choice, out);
        }
    }

    /// Picks the speculative candidate: per input port the arrived
    /// quantum with the earliest booked slot, then round-robin across
    /// ports.
    fn pick_speculative(&mut self, node: usize, out_port: usize) -> Option<Choice> {
        let lidx = node * PORTS + out_port;
        let start = self.rr_spec[lidx];
        let best = (0..PORTS).map(|k| (start + k) % PORTS).find_map(|p| {
            let (dep, idx) = self.data_ports[node * PORTS + p].ready_min(out_port)?;
            Some((dep, p as u8, idx))
        });
        if best.is_some() {
            self.rr_spec[lidx] = (start + 1) % PORTS;
        }
        best
    }

    fn forward(
        &mut self,
        node: usize,
        out_port: usize,
        slot: u64,
        (dep, in_port, res_idx): Choice,
        out: &mut Vec<Packet>,
    ) {
        let lidx = node * PORTS + out_port;
        let is_first = self.link_sched[lidx]
            .first_pending()
            .map(|(s, _)| s == dep)
            .unwrap_or(false);
        // Resolve the receiving side and check space.
        let target = if out_port == LOCAL {
            None // ejection: the PE absorbs at link rate
        } else {
            Some((self.links.linked(lidx), !is_first))
        };
        if let Some((ridx, spec)) = target {
            let port = &self.data_ports[ridx];
            let space = if spec {
                port.spec_free > 0
            } else {
                port.nonspec_free > 0
            };
            if !space {
                self.probe.on_link_stall(lidx);
                return; // denied this slot; retry later
            }
        }
        self.probe.on_link_flits(lidx, self.cfg.flits_per_quantum);
        // Commit: clear the booking and remove the quantum from its
        // holding place.
        let reset = self.cfg.local_status_reset;
        let sched = self.sched(lidx);
        sched.complete(dep);
        if sched.can_reset() {
            self.pending_links.remove(lidx);
            if reset {
                self.reset_check.insert(lidx);
            }
        }
        let pidx = node * PORTS + in_port as usize;
        let port = &mut self.data_ports[pidx];
        let (arr_spec, arr_pref, next_idx) = port.release(res_idx, dep);
        if arr_spec {
            port.spec_free += 1;
        } else {
            port.nonspec_free += 1;
            // The buffer the upstream scheduler's reset waits on just
            // gained a slot: if it is full again, queue the check.
            if reset
                && port.nonspec_free == self.cfg.nonspec_quanta() as i64
                && in_port as usize != LOCAL
            {
                self.reset_check.insert(self.links.linked(pidx));
            }
        }
        match target {
            None => self.eject(node, arr_pref, slot, out),
            Some((ridx, spec)) => {
                if spec {
                    self.data_ports[ridx].spec_free -= 1;
                } else {
                    self.data_ports[ridx].nonspec_free -= 1;
                }
                self.data_wires.push(
                    ridx,
                    slot + self.cfg.dep_offset(),
                    DataQuantum {
                        res_idx: next_idx,
                        spec,
                        pref: arr_pref,
                    },
                );
            }
        }
    }

    fn eject(&mut self, node: usize, pref: PacketRef, slot: u64, out: &mut Vec<Packet>) {
        let total = self.quanta_per_packet(self.packets.get(pref).len_flits) as u16;
        let q = self.cfg.flits_per_quantum as u64;
        let ejected_at = slot * q + self.cfg.hop_latency + q - 1;
        if let Some(packet) = self.packets.on_piece(node, pref, total, ejected_at) {
            self.probe.on_delivered(&packet);
            out.push(packet);
        }
    }

    /// Full-scan cross-check of every active-set worklist (debug
    /// builds only): each set must contain exactly the indices a
    /// naive scan of the underlying state would act on. Runs once
    /// per cycle from [`Network::step`] under `debug_assertions`.
    #[cfg(debug_assertions)]
    fn debug_verify_worklists(&self) {
        self.la_wires.debug_verify();
        self.la_queues.debug_verify();
        self.data_wires.debug_verify();
        for i in 0..self.link_sched.len() {
            let sched = &self.link_sched[i];
            debug_assert!(
                sched.current_slot() <= self.slot(),
                "link {i} ahead of the clock"
            );
            if sched.pending_len() > 0 {
                debug_assert_eq!(
                    sched.current_slot(),
                    self.slot(),
                    "link {i} with a pending booking missed a slot"
                );
            }
            debug_assert_eq!(
                self.pending_links.contains(i),
                sched.pending_len() > 0,
                "pending_links out of sync at link {i}"
            );
            // No reset may be missed: a stale link that could reset
            // right now must have a queued check.
            // The local port and edge ports have no downstream buffer.
            let downstream_empty = self.links.peer(i).is_none_or(|ridx| {
                self.data_ports[ridx].nonspec_free == self.cfg.nonspec_quanta() as i64
            });
            if self.cfg.local_status_reset
                && !sched.is_fresh()
                && sched.can_reset()
                && downstream_empty
            {
                debug_assert!(
                    self.reset_check.contains(i),
                    "eligible reset not queued for link {i}"
                );
            }
        }
        for node in 0..self.nics.len() {
            for in_port in 0..PORTS {
                let port = &self.data_ports[node * PORTS + in_port];
                port.debug_verify();
                // What the link-granular `data_move` rests on: a
                // quantum is ready only towards a link it is booked on.
                for out in 0..PORTS {
                    debug_assert!(
                        port.ready_min(out).is_none()
                            || self.link_sched[node * PORTS + out].pending_len() > 0,
                        "ready quantum at n{node}.{in_port} for unbooked output {out}"
                    );
                }
            }
            let nic = &self.nics[node];
            debug_assert_eq!(
                nic.queued,
                nic.flow_q.iter().map(|q| q.len()).sum::<usize>(),
                "queued miscounts NIC {node}"
            );
            debug_assert_eq!(
                self.launch_work.contains(node),
                nic.queued > 0,
                "launch_work out of sync at node {node}"
            );
            debug_assert_eq!(
                self.stage_work.contains(node),
                !nic.staged.is_empty(),
                "stage_work out of sync at node {node}"
            );
        }
    }

    /// Emits one occupancy sample per FRS buffer and source NIC when
    /// the probe's sampling window is due. Runs serially at the top
    /// of the cycle, before any state moves; fully gated on
    /// [`Probe::ENABLED`] so the telemetry-off build skips the scan.
    fn sample_occupancy(&mut self, now: u64) {
        if !Pr::ENABLED || !self.probe.sample_due(now) {
            return;
        }
        let Self {
            probe,
            data_ports,
            nics,
            cfg,
            ..
        } = self;
        let nonspec_cap = cfg.nonspec_quanta() as i64;
        let spec_cap = cfg.spec_quanta() as i64;
        for (pidx, port) in data_ports.iter().enumerate() {
            probe.on_occupancy(
                BufKind::NonSpec,
                pidx,
                (nonspec_cap - port.nonspec_free) as u32,
            );
            probe.on_occupancy(BufKind::Spec, pidx, (spec_cap - port.spec_free) as u32);
        }
        for (node, nic) in nics.iter().enumerate() {
            let backlog = nic.staged.len() + nic.queued;
            probe.on_occupancy(BufKind::Source, node, backlog as u32);
        }
    }

    /// Local status reset on every eligible idle link. Eligibility
    /// can only *begin* at one of the events feeding `reset_check`
    /// (last pending quantum forwarded, or downstream buffer drained
    /// to capacity), so processing that event set each cycle resets
    /// every link on the first cycle it qualifies — identical
    /// behaviour to scanning every non-fresh link, without the scan.
    fn reset_idle_links(&mut self) {
        let nonspec_cap = self.cfg.nonspec_quanta() as i64;
        let mut cursor = 0;
        while let Some(lidx) = self.reset_check.first_from(cursor) {
            cursor = lidx + 1;
            self.reset_check.remove(lidx);
            if self.link_sched[lidx].is_fresh() || !self.link_sched[lidx].can_reset() {
                continue;
            }
            // The PE sink (the local port, which has no peer) drains at
            // link rate; edge ports are never used anyway.
            let downstream_empty = self
                .links
                .peer(lidx)
                .is_none_or(|ridx| self.data_ports[ridx].nonspec_free == nonspec_cap);
            if downstream_empty {
                self.sched(lidx).local_reset();
                self.probe.on_link_reset(lidx);
            }
        }
    }
}

impl<Pr: Probe> Network for LoftNetwork<Pr> {
    fn num_nodes(&self) -> usize {
        self.nics.len()
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn enqueue(&mut self, packet: Packet) {
        assert!(packet.src != packet.dst, "self-addressed packet");
        self.probe.on_generated(&packet);
        let node = packet.src.index();
        let quanta = self.quanta_per_packet(packet.len_flits);
        let dst = packet.dst;
        let (fid, seq) = (packet.id.flow.index() as u32, packet.id.seq);
        let pref = self.packets.insert(packet);
        let nic = &mut self.nics[node];
        // Linear scan over the node's own flows: enqueue runs once
        // per packet, and a node sources only a handful of flows.
        let fi = match nic.rr_flows.iter().position(|&f| f == fid) {
            Some(i) => i,
            None => {
                nic.rr_flows.push(fid);
                nic.flow_q.push(CapDeque::default());
                nic.rr_flows.len() - 1
            }
        };
        let q = &mut nic.flow_q[fi];
        for half in 0..quanta {
            let qid = seq * quanta + half;
            q.push_back(SrcQuantum { qid, dst, pref });
        }
        nic.queued += quanta as usize;
        self.launch_work.insert(node);
    }

    fn step(&mut self, out: &mut Vec<Packet>) {
        #[cfg(debug_assertions)]
        self.debug_verify_worklists();
        let delivered_before = out.len();
        let now = self.cycle;
        self.sample_occupancy(now);
        let mut clock = PhaseClock::start::<Pr>();
        let q = self.cfg.flits_per_quantum as u64;
        if now.is_multiple_of(q) {
            let slot = now / q;
            self.deliver_data(slot);
            self.nic_inject(slot);
            clock.lap(&mut self.probe, Phase::DataPhase);
            self.data_move(slot, out);
            clock.lap(&mut self.probe, Phase::DataMove);
        }
        // Reset checks run every cycle: an idle instant between two
        // slots is enough for a link to recycle its window.
        if self.cfg.local_status_reset {
            self.reset_idle_links();
            clock.lap(&mut self.probe, Phase::ResetIdleLinks);
        }
        self.la_deliver(now);
        clock.lap(&mut self.probe, Phase::LaDeliver);
        self.la_schedule(now);
        clock.lap(&mut self.probe, Phase::LaSchedule);
        self.la_launch(now);
        clock.lap(&mut self.probe, Phase::LaLaunch);
        self.probe.on_cycle(now);
        self.cycle = now + 1;
        debug_assert_delivered_once(out, delivered_before);
    }

    /// Jumps `cycles` forward without stepping when the network is
    /// quiescent — no packet in the slab — and no reset decision is
    /// due. A quiescent LOFT cycle then does exactly two things —
    /// sample occupancy when the telemetry window is due, and tick the
    /// cycle counter — both replicated here: `sample_occupancy` for
    /// every skipped cycle (every buffer is idle, so each sample is
    /// zero), and [`Probe::tick_many`]. Link schedulers are untouched:
    /// nothing is pending on them, so each catches up on its next
    /// access.
    ///
    /// With [`LoftConfig::local_status_reset`] on, every scheduler is
    /// back in its power-up state by then; with it off, schedulers keep
    /// their used tables, which `advance_to` steps exactly.
    fn fast_forward(&mut self, cycles: u64) -> u64 {
        if cycles == 0 || !self.packets.is_empty() || !self.reset_check.is_empty() {
            return 0;
        }
        #[cfg(debug_assertions)]
        {
            if self.cfg.local_status_reset {
                for (i, sched) in self.link_sched.iter().enumerate() {
                    debug_assert!(sched.is_fresh(), "quiescent link {i} missed its reset");
                }
            }
            debug_assert!(!self.data_wires.any_active(), "data quanta in flight");
            debug_assert!(!self.la_wires.any_active(), "look-aheads in flight");
            debug_assert!(self.la_queues.first_from(0).is_none(), "queued look-aheads");
            debug_assert!(self.stage_work.is_empty(), "staged quanta mid-jump");
            debug_assert!(self.launch_work.is_empty(), "queued source quanta");
            debug_assert!(self.la_outstanding.iter().all(|&c| c == 0));
            debug_assert!(self.pending_links.is_empty(), "data work mid-jump");
            for nic in &self.nics {
                debug_assert!(nic.staged.is_empty() && nic.queued == 0, "NIC not idle");
            }
            for port in &self.data_ports {
                debug_assert_eq!(
                    port.nonspec_free,
                    self.cfg.nonspec_quanta() as i64,
                    "non-spec buffer not drained"
                );
                debug_assert_eq!(
                    port.spec_free,
                    self.cfg.spec_quanta() as i64,
                    "spec buffer not drained"
                );
            }
        }
        let now = self.cycle;
        if Pr::ENABLED {
            for c in now..now + cycles {
                self.sample_occupancy(c);
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

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::flit::PacketId;
    use noc_sim::routing::Direction;
    use noc_sim::telemetry::LiveProbe;
    use noc_sim::topology::Topology;

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

    /// A network recording into a [`LiveProbe`].
    fn probed(cfg: LoftConfig, reservations: &[u32]) -> LoftNetwork<LiveProbe> {
        LoftNetwork::with_probe(cfg, reservations, LiveProbe::new(16))
    }

    /// Local status resets so far, network-wide.
    fn resets(net: &LoftNetwork<LiveProbe>) -> u64 {
        net.clone().into_probe().finish().link_resets.iter().sum()
    }

    fn drain<Pr: Probe>(net: &mut LoftNetwork<Pr>, limit: u64) -> Vec<Packet> {
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
    fn single_packet_crosses_mesh() {
        let mut net = LoftNetwork::new(LoftConfig::default(), &[64]);
        net.enqueue(packet(0, 0, 0, 63, 0));
        let out = drain(&mut net, 2_000);
        assert_eq!(out.len(), 1);
        let lat = out[0].total_latency().unwrap();
        assert!(lat >= 14 * 3, "latency {lat} below physical minimum");
        assert!(lat < 300, "uncontended latency {lat} too high");
    }

    #[test]
    fn neighbor_packet_is_fast() {
        let mut net = LoftNetwork::new(LoftConfig::default(), &[64]);
        net.enqueue(packet(0, 0, 0, 1, 0));
        let out = drain(&mut net, 500);
        let lat = out[0].total_latency().unwrap();
        assert!(lat <= 40, "one-hop latency was {lat}");
    }

    #[test]
    fn all_packets_delivered_small_mesh() {
        let mut net = LoftNetwork::new(LoftConfig::small(), &[4; 240]);
        let mut flow = 0;
        for src in 0..16u32 {
            for dst in 0..16u32 {
                if src != dst {
                    net.enqueue(packet(flow, 0, src, dst, 0));
                    flow += 1;
                }
            }
        }
        let out = drain(&mut net, 100_000);
        assert_eq!(out.len(), 240);
        for p in &out {
            assert!(p.injected_at.unwrap() <= p.ejected_at.unwrap());
        }
    }

    #[test]
    fn backlog_throughput_matches_link_rate() {
        // One flow with a full-frame reservation and a deep backlog:
        // the link should stream about one flit per cycle.
        let cfg = LoftConfig::default();
        let mut net = LoftNetwork::new(cfg, &[256]);
        for seq in 0..200 {
            net.enqueue(packet(0, seq, 0, 1, 0));
        }
        let out = drain(&mut net, 10_000);
        let end = out.iter().map(|p| p.ejected_at.unwrap()).max().unwrap();
        // 200 packets × 4 flits = 800 flits; at 1 flit/cycle the
        // stream needs ≥ 800 cycles and should not need many more.
        assert!(end >= 800, "end {end}");
        assert!(end < 1_400, "took {end} cycles for 800 flits");
    }

    #[test]
    fn reservation_shares_bandwidth_under_contention() {
        // Two flows contend for one ejection link with a 3:1
        // reservation split and deep backlogs.
        let cfg = LoftConfig::default();
        let mut net = LoftNetwork::new(cfg, &[192, 64]);
        for seq in 0..120 {
            net.enqueue(packet(0, seq, 0, 9, 0));
        }
        for seq in 0..40 {
            net.enqueue(packet(1, seq, 1, 9, 0));
        }
        let out = drain(&mut net, 30_000);
        // Measure when each flow finished its first 30 packets: the
        // 3:1 flow should be roughly 3× faster per packet.
        let done_at = |flow: u32, k: usize| {
            let mut t: Vec<u64> = out
                .iter()
                .filter(|p| p.id.flow == FlowId::new(flow))
                .map(|p| p.ejected_at.unwrap())
                .collect();
            t.sort_unstable();
            t[k - 1]
        };
        let fast = done_at(0, 90);
        let slow = done_at(1, 30);
        // Flow 0 got 3× the packets in about the same time.
        let ratio = slow as f64 / fast as f64;
        assert!(
            (0.6..1.7).contains(&ratio),
            "3:1 pacing broken: fast(90pk)={fast}, slow(30pk)={slow}"
        );
    }

    #[test]
    fn spec_zero_disables_resets() {
        let mut net = probed(LoftConfig::with_spec_buffer(0), &[64]);
        net.enqueue(packet(0, 0, 0, 63, 0));
        let _ = drain(&mut net, 10_000);
        assert_eq!(resets(&net), 0);
    }

    #[test]
    fn speculative_switching_cuts_latency() {
        // A lightly loaded network: with optimizations on, data flits
        // forward as soon as possible instead of at their booked
        // slots.
        let lat_of = |cfg: LoftConfig| {
            let mut net = LoftNetwork::new(cfg, &[8]);
            net.enqueue(packet(0, 0, 0, 63, 0));
            let out = drain(&mut net, 20_000);
            out[0].total_latency().unwrap()
        };
        let with_spec = lat_of(LoftConfig::with_spec_buffer(12));
        let without = lat_of(LoftConfig::with_spec_buffer(0));
        assert!(
            with_spec <= without,
            "speculation should not hurt: {with_spec} vs {without}"
        );
    }

    #[test]
    fn local_reset_restores_quota_on_idle_links() {
        // A small reservation with local reset: an isolated flow can
        // exceed R/F throughput because idle links keep recycling.
        let run = |reset: bool| {
            let cfg = LoftConfig {
                local_status_reset: reset,
                ..LoftConfig::default()
            };
            // R = 8 flits per 256-flit frame = 1/32 of the link.
            let mut net = LoftNetwork::new(cfg, &[8]);
            for seq in 0..50 {
                net.enqueue(packet(0, seq, 0, 1, 0));
            }
            let out = drain(&mut net, 400_000);
            out.iter().map(|p| p.ejected_at.unwrap()).max().unwrap()
        };
        let with_reset = run(true);
        let without = run(false);
        // 50 packets × 4 flits at R/F = 1/32 of a flit/cycle would
        // need ~6400 cycles without reset; with reset the flow can
        // use the idle link at full speed.
        assert!(
            with_reset * 3 < without,
            "local reset ineffective: {with_reset} vs {without}"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut net = LoftNetwork::new(LoftConfig::default(), &[16, 16]);
            for seq in 0..25 {
                net.enqueue(packet(0, seq, 0, 63, 0));
                net.enqueue(packet(1, seq, 7, 56, 0));
            }
            drain(&mut net, 200_000)
                .iter()
                .map(|p| (p.id, p.ejected_at.unwrap()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn works_on_small_torus() {
        let cfg = LoftConfig {
            topo: Topology::torus(4, 4),
            frame_size: 64,
            nonspec_buffer: 64,
            ..LoftConfig::default()
        };
        let mut net = LoftNetwork::new(cfg, &[8, 8]);
        net.enqueue(packet(0, 0, 0, 15, 0));
        net.enqueue(packet(1, 0, 5, 2, 0));
        let out = drain(&mut net, 20_000);
        assert_eq!(out.len(), 2);
    }

    #[test]
    #[should_panic(expected = "reservations must be positive")]
    fn zero_reservation_rejected() {
        let _ = LoftNetwork::new(LoftConfig::default(), &[0]);
    }

    #[test]
    fn ejection_rate_is_one_flit_per_cycle() {
        // Two flows flood one destination with full-frame shares: the
        // destination can only sink 1 flit/cycle, so 100 packets of
        // 4 flits need at least 400 cycles.
        let mut net = LoftNetwork::new(LoftConfig::default(), &[128, 128]);
        for seq in 0..50 {
            net.enqueue(packet(0, seq, 0, 9, 0));
            net.enqueue(packet(1, seq, 1, 9, 0));
        }
        let out = drain(&mut net, 50_000);
        let end = out.iter().map(|p| p.ejected_at.unwrap()).max().unwrap();
        assert!(end >= 400, "400 flits ejected in only {end} cycles");
    }

    #[test]
    fn idle_links_reset_under_demand_gaps() {
        let mut net = probed(LoftConfig::default(), &[16]);
        // Two bursts with a long idle gap between them.
        for seq in 0..10 {
            net.enqueue(packet(0, seq, 0, 1, 0));
        }
        let mut out = Vec::new();
        for _ in 0..2_000 {
            net.step(&mut out);
        }
        assert!(resets(&net) > 0, "no resets during idle gaps");
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn la_flow_window_bounds_outstanding_lookaheads() {
        // A tiny window throttles a single flow's pipelining but all
        // packets still arrive.
        let cfg = LoftConfig {
            la_flow_window: 1,
            ..LoftConfig::default()
        };
        let mut net = LoftNetwork::new(cfg, &[256]);
        for seq in 0..20 {
            net.enqueue(packet(0, seq, 0, 63, 0));
        }
        let narrow = drain(&mut net, 100_000)
            .iter()
            .map(|p| p.ejected_at.unwrap())
            .max()
            .unwrap();
        let mut net = LoftNetwork::new(LoftConfig::default(), &[256]);
        for seq in 0..20 {
            net.enqueue(packet(0, seq, 0, 63, 0));
        }
        let wide = drain(&mut net, 100_000)
            .iter()
            .map(|p| p.ejected_at.unwrap())
            .max()
            .unwrap();
        assert!(
            wide < narrow,
            "wider look-ahead window should pipeline better: {wide} vs {narrow}"
        );
    }

    #[test]
    fn link_flits_probe_counts_traffic() {
        let mut net = probed(LoftConfig::default(), &[64]);
        net.enqueue(packet(0, 0, 0, 2, 0)); // 0 → 1 → 2, eastbound
        let _ = drain(&mut net, 5_000);
        let (east, local) = (Direction::East.index(), Direction::Local.index());
        let report = net.into_probe().finish();
        let flits = |lidx: usize| report.link_flits.get(lidx).copied().unwrap_or(0);
        assert_eq!(flits(east), 4);
        assert_eq!(flits(PORTS + east), 4);
        assert_eq!(flits(2 * PORTS + local), 4);
        assert_eq!(flits(3 * PORTS + east), 0);
        assert_eq!(report.flows.len(), 1);
        assert_eq!(report.flows[0].packets, 1);
        assert!(report.cycles > 0);
        // The FRS buffers were sampled: some nonspec occupancy was seen.
        assert!(
            report
                .occupancy(noc_sim::telemetry::BufKind::NonSpec, 2 * PORTS + local)
                .count()
                > 0
        );
    }

    /// A quiescent jump must be indistinguishable from stepping the
    /// idle cycles — same clock, and identical behaviour for traffic
    /// injected after the gap — with local resets on and off (`spec=0`
    /// leaves every used scheduler's tables in place).
    #[test]
    fn fast_forward_matches_idle_stepping() {
        for cfg in [LoftConfig::default(), LoftConfig::with_spec_buffer(0)] {
            let build = || {
                let mut net = probed(cfg, &[16]);
                for seq in 0..5 {
                    net.enqueue(packet(0, seq, 0, 9, 0));
                }
                net
            };
            let (mut stepped, mut jumped) = (build(), build());
            let (mut out_s, mut out_j) = (Vec::new(), Vec::new());
            while stepped.in_flight() > 0 {
                stepped.step(&mut out_s);
            }
            while jumped.in_flight() > 0 {
                jumped.step(&mut out_j);
            }
            // Let the trailing reset checks land so both are quiescent.
            for _ in 0..32 {
                stepped.step(&mut out_s);
                jumped.step(&mut out_j);
            }
            assert_eq!(out_s, out_j);
            for k in [1u64, 5, 63, 64, 1_000] {
                for _ in 0..k {
                    stepped.step(&mut out_s);
                }
                assert_eq!(jumped.fast_forward(k), k, "jump declined at k={k}");
                assert_eq!(jumped.cycle(), stepped.cycle());
            }
            assert_eq!(resets(&stepped), resets(&jumped));
            // Traffic after the gap behaves identically in both worlds.
            stepped.enqueue(packet(0, 100, 0, 9, 0));
            jumped.enqueue(packet(0, 100, 0, 9, 0));
            let a = drain(&mut stepped, 10_000);
            let b = drain(&mut jumped, 10_000);
            assert_eq!(a.len(), 1);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn odd_length_packets_round_up_to_quanta() {
        // 5-flit packets need 3 quanta; delivery must still complete.
        let mut net = LoftNetwork::new(LoftConfig::default(), &[64]);
        let mut p = packet(0, 0, 0, 5, 0);
        p.len_flits = 5;
        net.enqueue(p);
        let out = drain(&mut net, 5_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len_flits, 5);
    }
}
