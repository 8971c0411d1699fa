//! The [`Workload`] traffic source.
//!
//! A workload is a set of flows; each flow has a source node, a
//! destination rule, and an injection process. `Workload` implements
//! [`noc_sim::TrafficSource`] so it can drive any network model.

use crate::process::{InjectionProcess, ProcessState};
use noc_sim::flit::{FlowId, NodeId, Packet, PacketId};
use noc_sim::rng::Xoshiro256;
use noc_sim::TrafficSource;

/// How a flow picks the destination of each packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestRule {
    /// Every packet goes to the same node (all paper experiments
    /// except uniform traffic).
    Fixed(NodeId),
    /// Each packet picks a destination uniformly at random among nodes
    /// `0..num_nodes` except the source (the paper's *uniform*
    /// pattern, where "each source is treated as a separate flow").
    UniformRandom {
        /// Total number of nodes to draw from.
        num_nodes: u32,
    },
}

#[derive(Debug, Clone)]
struct FlowState {
    src: NodeId,
    dest: DestRule,
    process: ProcessState,
    rng: Xoshiro256,
    seq: u64,
    /// Cycles `< ticked_until` have already had their injection draw
    /// consumed (either by [`Workload::generate`] or by an idle scan
    /// in [`Workload::next_active_cycle`]).
    ticked_until: u64,
    /// A positive injection decision `(cycle, packets)` consumed by
    /// the idle scan but not yet emitted; `generate` replays it when
    /// the engine reaches that cycle. At most one can exist because
    /// the scan stops at the first firing cycle.
    pending: Option<(u64, u32)>,
}

/// A complete workload: flows with processes, implementing
/// [`TrafficSource`].
///
/// # Example
///
/// ```
/// use noc_traffic::{Workload, DestRule, InjectionProcess};
/// use noc_sim::{NodeId, TrafficSource};
///
/// let mut w = Workload::new(4, 42);
/// w.add_flow(
///     NodeId::new(0),
///     DestRule::Fixed(NodeId::new(3)),
///     InjectionProcess::Regulated { rate: 0.5 },
/// );
/// let mut out = Vec::new();
/// for cycle in 0..80 {
///     w.generate(cycle, &mut out);
/// }
/// assert_eq!(out.len(), 10); // 0.5 flits/cycle / 4-flit packets
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    packet_len: u16,
    seed: u64,
    flows: Vec<FlowState>,
}

impl Workload {
    /// Creates an empty workload generating `packet_len`-flit packets,
    /// seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len` is zero.
    pub fn new(packet_len: u16, seed: u64) -> Self {
        assert!(packet_len > 0, "packets must contain at least one flit");
        Workload {
            packet_len,
            seed,
            flows: Vec::new(),
        }
    }

    /// Adds a flow; returns its id (dense, in insertion order).
    pub fn add_flow(&mut self, src: NodeId, dest: DestRule, process: InjectionProcess) -> FlowId {
        let id = FlowId::new(self.flows.len() as u32);
        self.flows.push(FlowState {
            src,
            dest,
            process: process.start(self.packet_len),
            rng: Xoshiro256::for_stream(self.seed, id.index() as u64),
            seq: 0,
            ticked_until: 0,
            pending: None,
        });
        id
    }

    /// Packet length in flits.
    pub fn packet_len(&self) -> u16 {
        self.packet_len
    }
}

impl TrafficSource for Workload {
    fn num_flows(&self) -> usize {
        self.flows.len()
    }

    fn generate(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        for (idx, flow) in self.flows.iter_mut().enumerate() {
            let n = if cycle < flow.ticked_until {
                // This cycle's draw was already consumed by an idle
                // scan (`next_active_cycle`); replay its decision. The
                // destination/sequence draws below still happen here,
                // in the same per-flow RNG order as a plain run (tick
                // first, then destination).
                match flow.pending {
                    Some((at, count)) if at == cycle => {
                        flow.pending = None;
                        count
                    }
                    _ => 0,
                }
            } else {
                flow.ticked_until = cycle + 1;
                flow.process.tick(&mut flow.rng)
            };
            for _ in 0..n {
                let dst = match flow.dest {
                    DestRule::Fixed(d) => d,
                    DestRule::UniformRandom { num_nodes } => {
                        // Draw among the other nodes of the set; a
                        // source outside it draws from all of them.
                        let src = flow.src.index() as u32;
                        let others = num_nodes - u32::from(src < num_nodes);
                        let r = flow.rng.next_below(u64::from(others)) as u32;
                        NodeId::new(if r >= src { r + 1 } else { r })
                    }
                };
                out.push(Packet::new(
                    PacketId {
                        flow: FlowId::new(idx as u32),
                        seq: flow.seq,
                    },
                    flow.src,
                    dst,
                    self.packet_len,
                    cycle,
                ));
                flow.seq += 1;
            }
        }
    }

    fn next_active_cycle(&mut self, from: u64, limit: u64) -> u64 {
        // Per-flow RNG streams are independent (`Xoshiro256::
        // for_stream`), so each flow's injection draws can be
        // consumed ahead of the clock without perturbing any other
        // flow. The scan runs every flow's process cycle by cycle —
        // exactly the draws `generate` would have made — and stops at
        // the earliest firing cycle found so far, so no draw beyond
        // the returned cycle is consumed for flows scanned later.
        let mut earliest = limit;
        for flow in &mut self.flows {
            if let Some((at, _)) = flow.pending {
                debug_assert!(at >= from, "pending injection in the past");
                earliest = earliest.min(at);
                continue;
            }
            let mut cycle = from.max(flow.ticked_until);
            while cycle < earliest {
                let n = flow.process.tick(&mut flow.rng);
                flow.ticked_until = cycle + 1;
                if n > 0 {
                    flow.pending = Some((cycle, n));
                    earliest = cycle;
                    break;
                }
                cycle += 1;
            }
        }
        earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Destinations of the 2 000 packets a flow at `src` sends, one a
    /// cycle, drawing from `num_nodes` nodes.
    fn uniform_dests(src: u32, num_nodes: u32, seed: u64) -> Vec<usize> {
        let mut w = Workload::new(4, seed);
        w.add_flow(
            NodeId::new(src),
            DestRule::UniformRandom { num_nodes },
            InjectionProcess::Regulated { rate: 4.0 },
        );
        let mut out = Vec::new();
        for cycle in 0..2_000 {
            w.generate(cycle, &mut out);
        }
        out.iter().map(|p| p.dst.index()).collect()
    }

    #[test]
    fn uniform_random_never_targets_self() {
        let dests = uniform_dests(5, 16, 7);
        assert!(!dests.is_empty());
        assert!(dests.iter().all(|&d| d != 5 && d < 16));
    }

    /// A source outside the draw set reaches every node of it evenly.
    #[test]
    fn uniform_random_from_outside_the_set_covers_it_evenly() {
        let mut seen = [0_u32; 4];
        for d in uniform_dests(9, 4, 11) {
            seen[d] += 1;
        }
        assert!(seen.iter().all(|&n| n > 400), "{seen:?}");
    }

    #[test]
    fn uniform_random_covers_all_destinations() {
        let mut seen = [false; 8];
        for d in uniform_dests(0, 8, 3) {
            seen[d] = true;
        }
        assert!(!seen[0]); // never self
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn sequence_numbers_are_dense_per_flow() {
        let mut w = Workload::new(4, 1);
        w.add_flow(
            NodeId::new(0),
            DestRule::Fixed(NodeId::new(1)),
            InjectionProcess::Regulated { rate: 1.0 },
        );
        w.add_flow(
            NodeId::new(2),
            DestRule::Fixed(NodeId::new(3)),
            InjectionProcess::Regulated { rate: 0.5 },
        );
        let mut out = Vec::new();
        for cycle in 0..100 {
            w.generate(cycle, &mut out);
        }
        for fid in 0..2u32 {
            let seqs: Vec<u64> = out
                .iter()
                .filter(|p| p.id.flow == FlowId::new(fid))
                .map(|p| p.id.seq)
                .collect();
            let expect: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, expect);
        }
    }

    #[test]
    fn workloads_are_reproducible() {
        let build = || {
            let mut w = Workload::new(4, 11);
            w.add_flow(
                NodeId::new(0),
                DestRule::UniformRandom { num_nodes: 64 },
                InjectionProcess::Bernoulli { rate: 0.3 },
            );
            w
        };
        let (mut a, mut b) = (build(), build());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for cycle in 0..5_000 {
            a.generate(cycle, &mut oa);
            b.generate(cycle, &mut ob);
        }
        assert_eq!(oa, ob);
    }

    /// Driving a workload through `next_active_cycle` (skipping the
    /// idle cycles it reports) must produce the exact packet stream of
    /// plain cycle-by-cycle generation — same cycles, destinations,
    /// and sequence numbers, for every process kind.
    #[test]
    fn idle_scan_preserves_generation_exactly() {
        let build = || {
            let mut w = Workload::new(4, 21);
            w.add_flow(
                NodeId::new(0),
                DestRule::UniformRandom { num_nodes: 16 },
                InjectionProcess::Bernoulli { rate: 0.02 },
            );
            w.add_flow(
                NodeId::new(3),
                DestRule::Fixed(NodeId::new(9)),
                InjectionProcess::Regulated { rate: 0.05 },
            );
            w.add_flow(
                NodeId::new(7),
                DestRule::UniformRandom { num_nodes: 16 },
                InjectionProcess::OnOff {
                    rate_on: 0.5,
                    p_on_to_off: 0.2,
                    p_off_to_on: 0.01,
                },
            );
            w
        };
        const END: u64 = 5_000;
        let mut plain = build();
        let mut plain_out = Vec::new();
        for cycle in 0..END {
            plain.generate(cycle, &mut plain_out);
        }

        let mut scanned = build();
        let mut scanned_out = Vec::new();
        let mut cycle = 0;
        while cycle < END {
            let next = scanned.next_active_cycle(cycle, END);
            assert!(next >= cycle && next <= END);
            cycle = next;
            if cycle < END {
                // Emit at the active cycle, then step a few "busy"
                // cycles of plain generation like the engine would
                // while packets are in flight.
                for _ in 0..3 {
                    if cycle < END {
                        scanned.generate(cycle, &mut scanned_out);
                        cycle += 1;
                    }
                }
            }
        }
        assert!(!plain_out.is_empty());
        assert_eq!(plain_out, scanned_out);
    }

    #[test]
    fn distinct_seeds_differ() {
        let mut a = Workload::new(4, 1);
        let mut b = Workload::new(4, 2);
        for w in [&mut a, &mut b] {
            w.add_flow(
                NodeId::new(0),
                DestRule::Fixed(NodeId::new(1)),
                InjectionProcess::Bernoulli { rate: 0.5 },
            );
        }
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for cycle in 0..2_000 {
            a.generate(cycle, &mut oa);
            b.generate(cycle, &mut ob);
        }
        assert_ne!(
            oa.iter().map(|p| p.created_at).collect::<Vec<_>>(),
            ob.iter().map(|p| p.created_at).collect::<Vec<_>>()
        );
    }
}
