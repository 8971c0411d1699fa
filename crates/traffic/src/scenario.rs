//! Ready-made workload scenarios from the paper's evaluation
//! (Section 6), plus a few classic synthetic patterns.
//!
//! A [`Scenario`] bundles the flow endpoints, QoS allocations
//! (relative weights or frame shares), injection processes, and named
//! flow groups (for Figure 10-style per-group statistics). It can
//! instantiate a [`Workload`] for any seed and compute reservations
//! for any frame capacity, so the same scenario drives both GSF (frame
//! of 2000 flits) and LOFT (frame of 256 flits).

use crate::process::InjectionProcess;
use crate::workload::{DestRule, Workload};
use noc_sim::flit::{FlowId, NodeId};
use noc_sim::routing::Direction;
use noc_sim::topology::Topology;
use noc_sim::ConfigError;

/// Links per node: the router's output ports, then the source's
/// injection link.
const LINKS_PER_NODE: usize = Direction::COUNT + 1;

/// How a flow's reservation is sized (see [`Scenario::reservations`]);
/// every flow of a scenario is sized the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Alloc {
    /// A relative weight, positive and finite.
    Weight(f64),
    /// An explicit share of the frame in (0, 1], as in Case Study I.
    Share(f64),
}

/// One flow of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFlow {
    /// Source node.
    pub src: NodeId,
    /// Destination rule.
    pub dest: DestRule,
    /// Injection process.
    pub process: InjectionProcess,
    /// How the flow's reservation is sized.
    pub alloc: Alloc,
}

/// A named, reusable experiment workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (used by the harness output).
    pub name: String,
    /// Topology the scenario runs on; it fixes every flow's
    /// dimension-order (XY) path, as in the paper.
    pub topo: Topology,
    /// Packet length in flits.
    pub packet_len: u16,
    /// The flows, id order.
    pub flows: Vec<ScenarioFlow>,
    /// Named groups of flows for per-group reporting (Figure 10's
    /// partitions, Case Study groups, etc.).
    pub groups: Vec<(String, Vec<FlowId>)>,
}

impl Scenario {
    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Builds the runtime workload for a seed.
    ///
    /// # Panics
    ///
    /// Panics on zero-flit packets, which [`Scenario::check`] refuses.
    pub fn workload(&self, seed: u64) -> Workload {
        let mut w = Workload::new(self.packet_len, seed);
        for f in &self.flows {
            w.add_flow(f.src, f.dest.clone(), f.process.clone());
        }
        w
    }

    /// Computes per-flow reservations `R_ij` in frame slots for a
    /// frame of `frame_capacity` slots; a flow keeps its reservation
    /// on every link it can use (Section 5.1).
    ///
    /// * An [`Alloc::Share`] gets `floor(share × capacity)`.
    /// * A [`Alloc::Weight`], when every flow has a fixed destination,
    ///   is scaled so the most loaded link is exactly filled.
    /// * Otherwise (uniform traffic) the whole frame is split in
    ///   proportion to weights across *all* flows, since any link may
    ///   be shared by all of them.
    ///
    /// Every link's reservations must then fit the frame. A link is a
    /// source's injection link or a router output port, ejection
    /// included; a random destination may load every router output
    /// port.
    ///
    /// # Example
    ///
    /// ```
    /// use noc_traffic::Scenario;
    ///
    /// // 63 equal flows share the hotspot's ejection link of 128
    /// // slots: 2 each.
    /// let r = Scenario::hotspot(0.05).reservations(128)?;
    /// assert_eq!(r, vec![2; 63]);
    /// # Ok::<(), noc_sim::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns an error if the scenario has no flows, if it fails
    /// [`Scenario::check`], if any flow would get zero slots, or if a
    /// link's reservations exceed the frame (the error names the link).
    pub fn reservations(&self, frame_capacity: u32) -> Result<Vec<u32>, ConfigError> {
        if self.flows.is_empty() {
            return Err(ConfigError::new("scenario has no flows"));
        }
        self.check()?;
        let cap = f64::from(frame_capacity);
        let links = self.topo.num_nodes() * LINKS_PER_NODE;
        let fixed = self
            .flows
            .iter()
            .all(|f| matches!(f.dest, DestRule::Fixed(_)));
        let weight = |f: &ScenarioFlow| match f.alloc {
            Alloc::Weight(w) => Some(w),
            Alloc::Share(_) => None,
        };
        let max_load = fixed.then(|| {
            let mut loads = vec![0.0_f64; links];
            for f in &self.flows {
                if let Some(w) = weight(f) {
                    self.each_link(f, |link| loads[link] += w);
                }
            }
            loads.into_iter().fold(0.0_f64, f64::max)
        });
        let total: f64 = self.flows.iter().filter_map(weight).sum();
        let mut out = Vec::with_capacity(self.flows.len());
        for (i, f) in self.flows.iter().enumerate() {
            let r = match (f.alloc, max_load) {
                (Alloc::Share(share), _) => (share * cap).floor(),
                (Alloc::Weight(w), Some(max)) => (w * (cap / max)).floor(),
                (Alloc::Weight(w), None) => (w / total * cap).floor(),
            } as u32;
            if r == 0 {
                return Err(ConfigError::new(format!(
                    "flow f{i} {:?} rounds to zero slots of a frame of {frame_capacity}",
                    f.alloc
                )));
            }
            out.push(r);
        }
        let mut sums = vec![0_u64; links];
        for (f, &r) in self.flows.iter().zip(&out) {
            self.each_link(f, |link| sums[link] += u64::from(r));
        }
        if let Some(link) = sums.iter().position(|&s| s > u64::from(frame_capacity)) {
            let port = Direction::ALL.get(link % LINKS_PER_NODE);
            return Err(ConfigError::new(format!(
                "n{} {} oversubscribed: total reservation {} exceeds frame capacity {}",
                link / LINKS_PER_NODE,
                port.map_or("injection link".to_string(), |d| format!("output {d}")),
                sums[link],
                frame_capacity
            )));
        }
        Ok(out)
    }

    /// Fails unless the scenario can be built on [`Scenario::topo`]
    /// and every flow can be given a reservation.
    ///
    /// # Errors
    ///
    /// Names a zero packet length, or the first flow that leaves the
    /// topology (its source or fixed destination is not a node of it,
    /// or a uniform destination draws from fewer than two or more than
    /// all of its nodes), is addressed to its own source, has a weight
    /// that is not positive and finite or a share outside (0, 1], or
    /// is not sized the same way as the first flow.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.packet_len == 0 {
            return Err(ConfigError::new(format!(
                "scenario {} has zero-flit packets",
                self.name
            )));
        }
        let n = self.topo.num_nodes();
        for (i, f) in self.flows.iter().enumerate() {
            let dest_ok = match f.dest {
                DestRule::Fixed(dst) => dst.index() < n,
                DestRule::UniformRandom { num_nodes } => (2..=n).contains(&(num_nodes as usize)),
            };
            if f.src.index() >= n || !dest_ok {
                return Err(ConfigError::new(format!(
                    "flow f{i} (source {}, destination {:?}) leaves the {n}-node topology of \
                     scenario {}",
                    f.src, f.dest, self.name
                )));
            }
            let alloc_ok = match (f.alloc, self.flows[0].alloc) {
                (Alloc::Weight(w), Alloc::Weight(_)) => w.is_finite() && w > 0.0,
                (Alloc::Share(share), Alloc::Share(_)) => share > 0.0 && share <= 1.0,
                _ => false,
            };
            if f.dest == DestRule::Fixed(f.src) || !alloc_ok {
                return Err(ConfigError::new(format!(
                    "flow f{i} (source {}, destination {:?}, {:?}) needs distinct nodes and, \
                     like flow f0, a positive, finite weight or a share in (0, 1]",
                    f.src, f.dest, f.alloc
                )));
            }
        }
        Ok(())
    }

    /// Visits every link `flow` can load: its source's injection link,
    /// then the router output ports of a fixed destination's path, or
    /// every router output port for a random destination. Link
    /// `node * LINKS_PER_NODE + port` is a router output port
    /// (ejection included), or the injection link when `port` is
    /// `Direction::COUNT`.
    fn each_link(&self, flow: &ScenarioFlow, mut visit: impl FnMut(usize)) {
        visit(flow.src.index() * LINKS_PER_NODE + Direction::COUNT);
        match flow.dest {
            DestRule::Fixed(dst) => {
                for (node, dir) in self.topo.port_path(flow.src, dst) {
                    visit(node.index() * LINKS_PER_NODE + dir.index());
                }
            }
            DestRule::UniformRandom { .. } => {
                for node in self.topo.nodes() {
                    for dir in Direction::ALL {
                        if dir == Direction::Local || self.topo.neighbor(node, dir).is_some() {
                            visit(node.index() * LINKS_PER_NODE + dir.index());
                        }
                    }
                }
            }
        }
    }

    /// Looks up a flow group by name.
    pub fn group(&self, name: &str) -> Option<&[FlowId]> {
        self.groups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| g.as_slice())
    }

    // ----- paper scenarios --------------------------------------------

    /// The paper's default 8×8 mesh.
    pub fn default_topology() -> Topology {
        Topology::mesh(8, 8)
    }

    /// A scenario on the default mesh: 4-flit packets and
    /// every flow in one `"all"` group.
    fn on_default_mesh(name: String, flows: Vec<ScenarioFlow>) -> Scenario {
        let all: Vec<FlowId> = (0..flows.len() as u32).map(FlowId::new).collect();
        Scenario {
            name,
            topo: Self::default_topology(),
            packet_len: 4,
            flows,
            groups: vec![("all".to_string(), all)],
        }
    }

    /// **Uniform** traffic (Figure 11a): every node is one flow
    /// sending `rate` flits/cycle to uniformly random destinations,
    /// with equal QoS weights.
    pub fn uniform(rate: f64) -> Scenario {
        let s = Self::uniform_on(Self::default_topology(), rate);
        Self::on_default_mesh(s.name, s.flows)
    }

    /// [`Scenario::uniform`] on any topology: one Bernoulli flow per
    /// node to uniformly random destinations, no flow groups.
    #[must_use]
    pub fn uniform_on(topo: Topology, rate: f64) -> Scenario {
        let num_nodes = topo.num_nodes() as u32;
        let flows = topo
            .nodes()
            .map(|src| ScenarioFlow {
                src,
                dest: DestRule::UniformRandom { num_nodes },
                process: InjectionProcess::Bernoulli { rate },
                alloc: Alloc::Weight(1.0),
            })
            .collect();
        Scenario {
            name: format!("uniform(rate={rate})"),
            topo,
            packet_len: 4,
            flows,
            groups: Vec::new(),
        }
    }

    /// **Hotspot** traffic (Figures 10a and 11b): all other 63 nodes
    /// send to node 63 at `rate` flits/cycle with equal weights.
    pub fn hotspot(rate: f64) -> Scenario {
        Self::hotspot_weighted(rate, |_| 1.0, "hotspot")
    }

    /// Hotspot with per-source weights derived from the node id.
    fn hotspot_weighted(rate: f64, weight_of: impl Fn(NodeId) -> f64, name: &str) -> Scenario {
        let hotspot = NodeId::new(63);
        let flows = Self::default_topology()
            .nodes()
            .filter(|&src| src != hotspot)
            .map(|src| ScenarioFlow {
                src,
                dest: DestRule::Fixed(hotspot),
                process: InjectionProcess::Bernoulli { rate },
                alloc: Alloc::Weight(weight_of(src)),
            })
            .collect();
        Self::on_default_mesh(format!("{name}(rate={rate})"), flows)
    }

    /// **Differentiated allocation #1** (Figure 10b): the mesh is
    /// divided into four 4×4 quadrants R1..R4 with weights 8:6:6:3;
    /// R4 (bottom-right) contains the hotspot.
    pub fn hotspot_differentiated4(rate: f64) -> Scenario {
        let weights = [8.0, 6.0, 6.0, 3.0];
        let topo = Self::default_topology();
        let quadrant = |n: NodeId| -> usize {
            let (x, y) = topo.coords(n);
            match (x < 4, y < 4) {
                (true, true) => 0,   // R1: top-left
                (true, false) => 1,  // R2: bottom-left
                (false, true) => 2,  // R3: top-right
                (false, false) => 3, // R4: bottom-right (hotspot)
            }
        };
        let mut s = Self::hotspot_weighted(rate, |n| weights[quadrant(n)], "hotspot-diff4");
        s.groups = (0..4)
            .map(|q| {
                let ids = s
                    .flows
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| quadrant(f.src) == q)
                    .map(|(i, _)| FlowId::new(i as u32))
                    .collect();
                (format!("R{}", q + 1), ids)
            })
            .collect();
        s
    }

    /// **Differentiated allocation #2** (Figure 10c): two halves with
    /// weights 9:3; R2 (bottom half) contains the hotspot.
    pub fn hotspot_differentiated2(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let half = |n: NodeId| -> usize { usize::from(topo.coords(n).1 >= 4) };
        let weights = [9.0, 3.0];
        let mut s = Self::hotspot_weighted(rate, |n| weights[half(n)], "hotspot-diff2");
        s.groups = (0..2)
            .map(|h| {
                let ids = s
                    .flows
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| half(f.src) == h)
                    .map(|(i, _)| FlowId::new(i as u32))
                    .collect();
                (format!("R{}", h + 1), ids)
            })
            .collect();
        s
    }

    /// **Case Study I** (Figure 12): denial-of-service. Nodes 0, 48,
    /// and 56 send to hotspot node 63; each flow is allocated 1/4 of
    /// the link bandwidth. Flow 0→63 is regulated at 0.2 flits/cycle;
    /// the two aggressors inject (Bernoulli) at `aggressor_rate`,
    /// possibly far beyond their allocation.
    ///
    /// Groups: `"victim"` (flow 0) and `"aggressors"` (flows 1, 2).
    pub fn case_study_1(aggressor_rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let hotspot = NodeId::new(63);
        let mk = |src: u32, process: InjectionProcess| ScenarioFlow {
            src: NodeId::new(src),
            dest: DestRule::Fixed(hotspot),
            process,
            alloc: Alloc::Share(0.25),
        };
        let flows = vec![
            mk(0, InjectionProcess::Regulated { rate: 0.2 }),
            mk(
                48,
                InjectionProcess::Bernoulli {
                    rate: aggressor_rate,
                },
            ),
            mk(
                56,
                InjectionProcess::Bernoulli {
                    rate: aggressor_rate,
                },
            ),
        ];
        Scenario {
            name: format!("case-study-1(aggr={aggressor_rate})"),
            topo,
            packet_len: 4,
            flows,
            groups: vec![
                ("victim".to_string(), vec![FlowId::new(0)]),
                (
                    "aggressors".to_string(),
                    vec![FlowId::new(1), FlowId::new(2)],
                ),
            ],
        }
    }

    /// **Case Study II** (Figures 1 and 13): the pathological GSF
    /// scenario. The eight *grey* nodes of column 0 all send to the
    /// central hotspot (4,4); the *stripped* node (6,4) sends to its
    /// nearest neighbor (7,4). All flows inject at `rate` and — with
    /// no prior knowledge of the pattern — every flow gets the same
    /// equal share of 1/64 of a frame.
    ///
    /// Groups: `"grey"` and `"stripped"`.
    pub fn case_study_2(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let center = topo.node(4, 4);
        let mut flows = Vec::new();
        for y in 0..8 {
            flows.push(ScenarioFlow {
                src: topo.node(0, y),
                dest: DestRule::Fixed(center),
                process: InjectionProcess::Bernoulli { rate },
                alloc: Alloc::Share(1.0 / 9.0),
            });
        }
        flows.push(ScenarioFlow {
            src: topo.node(6, 4),
            dest: DestRule::Fixed(topo.node(7, 4)),
            process: InjectionProcess::Bernoulli { rate },
            alloc: Alloc::Share(1.0 / 9.0),
        });
        let grey: Vec<FlowId> = (0..8).map(FlowId::new).collect();
        Scenario {
            name: format!("case-study-2(rate={rate})"),
            topo,
            packet_len: 4,
            flows,
            groups: vec![
                ("grey".to_string(), grey),
                ("stripped".to_string(), vec![FlowId::new(8)]),
            ],
        }
    }

    /// **Bursty hotspot**: like [`Scenario::hotspot`], but sources
    /// inject with an on/off (two-state Markov) process — `rate_on`
    /// while bursting, with mean burst and idle lengths of
    /// `burst_len` and `idle_len` cycles. The frame window (`WF`)
    /// is what absorbs such bursts without breaking guarantees.
    pub fn bursty_hotspot(rate_on: f64, burst_len: f64, idle_len: f64) -> Scenario {
        let mut s = Self::hotspot_weighted(0.0, |_| 1.0, "bursty-hotspot");
        for f in s.flows.iter_mut() {
            f.process = InjectionProcess::OnOff {
                rate_on,
                p_on_to_off: 1.0 / burst_len,
                p_off_to_on: 1.0 / idle_len,
            };
        }
        s.name = format!("bursty-hotspot(on={rate_on},burst={burst_len},idle={idle_len})");
        s
    }

    /// **Low-duty bursty** traffic: the four mesh corners exchange
    /// packets diagonally with short bursts (mean 20 cycles at
    /// `rate_on`) separated by long idle periods (mean 10000 cycles).
    /// With only four flows at ~0.2% duty the *whole network* spends
    /// most of the run quiescent — the stress case for the engine's
    /// quiescence fast-forward, whereas the 63-flow
    /// [`Scenario::bursty_hotspot`] almost never goes globally idle.
    pub fn bursty_low_duty(rate_on: f64) -> Scenario {
        let topo = Self::default_topology();
        let process = InjectionProcess::OnOff {
            rate_on,
            p_on_to_off: 1.0 / 20.0,
            p_off_to_on: 1.0 / 10000.0,
        };
        let pairs = [
            ((0, 0), (7, 7)),
            ((7, 7), (0, 0)),
            ((0, 7), (7, 0)),
            ((7, 0), (0, 7)),
        ];
        let flows = pairs
            .iter()
            .map(|&((sx, sy), (dx, dy))| ScenarioFlow {
                src: topo.node(sx, sy),
                dest: DestRule::Fixed(topo.node(dx, dy)),
                process: process.clone(),
                alloc: Alloc::Weight(1.0),
            })
            .collect();
        Self::on_default_mesh(format!("bursty-low-duty(on={rate_on})"), flows)
    }

    /// **Sparse regulated** traffic: one flow per row, (0, y) → (7, y),
    /// each a deterministic [`InjectionProcess::Regulated`] stream at
    /// `rate` flits/cycle. All flows share the token-bucket phase, so
    /// the network sees synchronized packet waves every
    /// `packet_len / rate` cycles with a fully idle gap in between —
    /// a periodic, deterministic quiescence workload.
    pub fn regulated(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let flows = (0..8)
            .map(|y| ScenarioFlow {
                src: topo.node(0, y),
                dest: DestRule::Fixed(topo.node(7, y)),
                process: InjectionProcess::Regulated { rate },
                alloc: Alloc::Weight(1.0),
            })
            .collect();
        Self::on_default_mesh(format!("regulated(rate={rate})"), flows)
    }

    // ----- classic extra patterns -------------------------------------

    /// Transpose traffic: node (x, y) sends to (y, x). Nodes on the
    /// diagonal stay silent.
    pub fn transpose(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let flows = topo
            .nodes()
            .filter_map(|src| {
                let (x, y) = topo.coords(src);
                (x != y).then(|| ScenarioFlow {
                    src,
                    dest: DestRule::Fixed(topo.node(y, x)),
                    process: InjectionProcess::Bernoulli { rate },
                    alloc: Alloc::Weight(1.0),
                })
            })
            .collect();
        Self::on_default_mesh(format!("transpose(rate={rate})"), flows)
    }

    /// Bit-complement traffic: node `i` sends to `!i & 63`.
    pub fn bit_complement(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let n = topo.num_nodes() as u32;
        let flows = topo
            .nodes()
            .map(|src| ScenarioFlow {
                src,
                dest: DestRule::Fixed(NodeId::new(!(src.index() as u32) & (n - 1))),
                process: InjectionProcess::Bernoulli { rate },
                alloc: Alloc::Weight(1.0),
            })
            .collect();
        Self::on_default_mesh(format!("bit-complement(rate={rate})"), flows)
    }

    /// Nearest-neighbor traffic: every node sends East (wrapping to
    /// the row start), the lightest-possible permutation.
    pub fn nearest_neighbor(rate: f64) -> Scenario {
        let topo = Self::default_topology();
        let flows = topo
            .nodes()
            .map(|src| {
                let (x, y) = topo.coords(src);
                ScenarioFlow {
                    src,
                    dest: DestRule::Fixed(topo.node((x + 1) % 8, y)),
                    process: InjectionProcess::Bernoulli { rate },
                    alloc: Alloc::Weight(1.0),
                }
            })
            .collect();
        Self::on_default_mesh(format!("nearest-neighbor(rate={rate})"), flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_has_64_flows_equal_split() {
        let s = Scenario::uniform(0.1);
        assert_eq!(s.num_flows(), 64);
        let r = s.reservations(256).unwrap();
        assert!(r.iter().all(|&x| x == 4)); // 256 / 64
    }

    #[test]
    fn uniform_on_has_one_flow_per_node_of_any_topology() {
        let s = Scenario::uniform_on(Topology::mesh(16, 16), 0.1);
        assert_eq!(s.num_flows(), 256);
        for (f, src) in s.flows.iter().zip(s.topo.nodes()) {
            assert_eq!(f.src, src);
            assert_eq!(f.dest, DestRule::UniformRandom { num_nodes: 256 });
        }
    }

    #[test]
    fn differentiated4_weights_ordered() {
        let s = Scenario::hotspot_differentiated4(0.05);
        assert_eq!(s.groups.len(), 4);
        let r = s.reservations(256).unwrap();
        let avg = |name: &str| {
            let g = s.group(name).unwrap();
            g.iter().map(|f| r[f.index()] as f64).sum::<f64>() / g.len() as f64
        };
        assert!(avg("R1") > avg("R2"));
        assert!((avg("R2") - avg("R3")).abs() < 1e-9);
        assert!(avg("R3") > avg("R4"));
        // R4 contains 15 senders (hotspot itself does not send).
        assert_eq!(s.group("R4").unwrap().len(), 15);
        assert_eq!(s.num_flows(), 63);
    }

    #[test]
    fn differentiated2_halves() {
        let s = Scenario::hotspot_differentiated2(0.05);
        assert_eq!(s.group("R1").unwrap().len(), 32);
        assert_eq!(s.group("R2").unwrap().len(), 31);
        let r = s.reservations(256).unwrap();
        let r1 = r[s.group("R1").unwrap()[0].index()];
        let r2 = r[s.group("R2").unwrap()[0].index()];
        assert!(r1 > 2 * r2, "r1={r1} r2={r2}");
    }

    #[test]
    fn case_study_1_shares() {
        let s = Scenario::case_study_1(0.8);
        assert_eq!(s.num_flows(), 3);
        let r = s.reservations(256).unwrap();
        assert_eq!(r, vec![64, 64, 64]); // 1/4 of the frame each
        assert_eq!(s.group("victim").unwrap().len(), 1);
        assert_eq!(s.group("aggressors").unwrap().len(), 2);
        // The victim is regulated, aggressors are Bernoulli.
        assert!(matches!(
            s.flows[0].process,
            InjectionProcess::Regulated { .. }
        ));
    }

    #[test]
    fn case_study_2_topology() {
        let s = Scenario::case_study_2(0.5);
        assert_eq!(s.num_flows(), 9);
        let r = s.reservations(256).unwrap();
        // 1/9 of 256, floored.
        assert!(r.iter().all(|&x| x == 28));
        // The stripped flow's path shares no link with a grey path.
        let ports = |f: &ScenarioFlow| match f.dest {
            DestRule::Fixed(dst) => s.topo.port_path(f.src, dst),
            DestRule::UniformRandom { .. } => unreachable!("case study II is fixed"),
        };
        let stripped = ports(&s.flows[8]);
        for grey in &s.flows[..8] {
            assert_ne!(grey.src, s.flows[8].src);
            assert!(ports(grey).iter().all(|p| !stripped.contains(p)));
        }
    }

    #[test]
    fn transpose_diagonal_silent() {
        let s = Scenario::transpose(0.1);
        assert_eq!(s.num_flows(), 56); // 64 - 8 diagonal nodes
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let s = Scenario::bit_complement(0.1);
        assert_eq!(s.num_flows(), 64);
        for f in &s.flows {
            if let DestRule::Fixed(d) = f.dest {
                assert_eq!(!(d.index() as u32) & 63, f.src.index() as u32);
            }
        }
    }

    #[test]
    fn workload_rate_matches_process() {
        use noc_sim::TrafficSource;
        let s = Scenario::hotspot(0.04);
        let mut w = s.workload(5);
        let mut out = Vec::new();
        for cycle in 0..50_000 {
            w.generate(cycle, &mut out);
        }
        // 63 flows * 0.04 flits/cycle / 4 flits/packet * 50_000 cycles
        let expect = 63.0 * 0.04 / 4.0 * 50_000.0;
        let got = out.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn oversubscribing_shares_rejected() {
        // Paper shares fit every frame the harnesses use.
        for cap in [128, 256, 1000, 2000] {
            assert!(Scenario::case_study_1(0.5).reservations(cap).is_ok());
            assert!(Scenario::case_study_2(0.5).reservations(cap).is_ok());
        }
        // Flows 0 and 48 share node 55's South output: 2 × 76 > 128.
        let mut s = Scenario::case_study_1(0.5);
        s.flows.iter_mut().for_each(|f| f.alloc = Alloc::Share(0.6));
        let err = s.reservations(128).unwrap_err().to_string();
        assert!(err.contains("n55 output S oversubscribed"), "{err}");
        // Flows 48 and 56 meet only at the hotspot's ejection port:
        // 64 + 64 slots fit a 128-slot frame, 100 + 100 do not.
        s.flows.remove(0);
        s.flows.iter_mut().for_each(|f| f.alloc = Alloc::Share(0.5));
        assert_eq!(s.reservations(128).unwrap(), vec![64, 64]);
        s.flows
            .iter_mut()
            .for_each(|f| f.alloc = Alloc::Share(100.0 / 128.0));
        let err = s.reservations(128).unwrap_err().to_string();
        assert!(err.contains("n63 output L oversubscribed"), "{err}");
    }

    #[test]
    fn reservation_share_out_of_range_rejected() {
        let mut s = Scenario::case_study_1(0.5);
        s.flows[0].alloc = Alloc::Share(1.5);
        assert!(s.reservations(256).is_err());
    }

    #[test]
    fn bursty_hotspot_mean_rate() {
        let s = Scenario::bursty_hotspot(0.4, 100.0, 300.0);
        assert_eq!(s.num_flows(), 63);
        // Mean rate = rate_on × burst/(burst+idle) = 0.4 × 0.25 = 0.1.
        for f in &s.flows {
            assert!((f.process.mean_rate() - 0.1).abs() < 1e-9);
        }
        // Same reservations as the steady hotspot.
        let r = s.reservations(256).unwrap();
        assert!(r.iter().all(|&x| x == 4));
    }

    #[test]
    fn bursty_low_duty_is_sparse_and_feasible() {
        let s = Scenario::bursty_low_duty(0.6);
        assert_eq!(s.num_flows(), 4);
        // ~0.2% duty cycle: mean rate = 0.6 × 20/10020.
        for f in &s.flows {
            assert!((f.process.mean_rate() - 0.6 * 20.0 / 10020.0).abs() < 1e-9);
        }
        // Corner-to-corner XY paths are link-disjoint, so every flow
        // gets the whole frame.
        let r = s.reservations(64).unwrap();
        assert_eq!(r, vec![64; 4]);
    }

    #[test]
    fn regulated_rows_are_disjoint_and_in_phase() {
        use noc_sim::TrafficSource;
        let s = Scenario::regulated(0.05);
        assert_eq!(s.num_flows(), 8);
        let r = s.reservations(256).unwrap();
        assert_eq!(r, vec![256; 8]); // disjoint row paths
                                     // All flows fire on the same cycles: packets arrive in bursts
                                     // of 8 every packet_len/rate = 80 cycles.
        let mut w = s.workload(SEEDLESS);
        let mut out = Vec::new();
        let mut burst_cycles = Vec::new();
        for cycle in 0..400u64 {
            out.clear();
            w.generate(cycle, &mut out);
            if !out.is_empty() {
                assert_eq!(out.len(), 8, "cycle {cycle}");
                burst_cycles.push(cycle);
            }
        }
        assert_eq!(burst_cycles.len(), 4);
        for pair in burst_cycles.windows(2) {
            assert_eq!(pair[1] - pair[0], 80);
        }
    }

    /// Seed used by scenario tests that need a workload but whose
    /// processes are deterministic (seed-independent).
    const SEEDLESS: u64 = 7;

    #[test]
    fn nearest_neighbor_wraps_row() {
        let s = Scenario::nearest_neighbor(0.2);
        let f = &s.flows[7]; // node (7,0)
        assert_eq!(f.dest, DestRule::Fixed(NodeId::new(0)));
    }
}
