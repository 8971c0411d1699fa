//! The engine's test doubles, shared by the `engine` and `checkpoint`
//! tests: a network with a fixed 10-cycle pipeline and a periodic
//! source with a closed-form next-active scan.

use crate::engine::{Network, TrafficSource};
use crate::flit::{FlowId, NodeId, Packet, PacketId};

/// A trivial network: fixed 10-cycle pipeline per packet.
#[derive(Debug, Default, Clone)]
pub(crate) struct DelayLine {
    cycle: u64,
    queue: Vec<Packet>,
}

impl Network for DelayLine {
    fn num_nodes(&self) -> usize {
        2
    }
    fn cycle(&self) -> u64 {
        self.cycle
    }
    fn enqueue(&mut self, mut packet: Packet) {
        packet.injected_at = Some(self.cycle);
        self.queue.push(packet);
    }
    fn step(&mut self, out: &mut Vec<Packet>) {
        self.cycle += 1;
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.queue.len() {
            if cycle >= self.queue[i].created_at + 10 {
                let mut p = self.queue.swap_remove(i);
                p.ejected_at = Some(cycle);
                out.push(p);
            } else {
                i += 1;
            }
        }
    }
    fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

/// One packet every `period` cycles on flow 0.
#[derive(Debug, Clone)]
pub(crate) struct Periodic {
    pub(crate) period: u64,
    pub(crate) seq: u64,
}

impl TrafficSource for Periodic {
    fn num_flows(&self) -> usize {
        1
    }
    fn generate(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        if cycle.is_multiple_of(self.period) {
            out.push(Packet::new(
                PacketId {
                    flow: FlowId::new(0),
                    seq: self.seq,
                },
                NodeId::new(0),
                NodeId::new(1),
                4,
                cycle,
            ));
            self.seq += 1;
        }
    }
    fn next_active_cycle(&mut self, from: u64, limit: u64) -> u64 {
        let next = from.div_ceil(self.period) * self.period;
        next.min(limit)
    }
}
