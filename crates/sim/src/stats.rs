//! Latency and throughput statistics with warmup handling.
//!
//! The paper reports, per experiment: average packet latency versus
//! offered load, accepted throughput in flits/cycle/node, per-flow
//! throughput, and per-group MAX/MIN/AVG/STDEV of flow throughputs
//! (Figure 10). [`StatsCollector`] gathers those during the
//! measurement window of a run and produces a [`SimReport`].

use crate::flit::{FlowId, Packet};
use crate::telemetry::PacketProbe;

/// Streaming mean/variance/min/max (Welford's algorithm).
///
/// # Example
///
/// ```
/// use noc_sim::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0 if fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, or +∞ if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or −∞ if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (stddev / mean), or 0 if mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean() == 0.0 {
            0.0
        } else {
            self.stddev() / self.mean()
        }
    }
}

/// A power-of-two bucketed latency histogram.
///
/// Bucket `k` counts samples in `[2^k, 2^(k+1))`; bucket 0 counts `0`
/// and `1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()).saturating_sub(1) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The upper bound of the smallest bucket such that at least
    /// `q` (0..=1) of the samples fall at or below it. Returns 0 for
    /// an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return (2u64 << k).saturating_sub(1);
            }
        }
        u64::MAX
    }

    /// Iterates over `(bucket_upper_bound, count)` pairs for non-empty
    /// buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| ((2u64 << k) - 1, c))
    }
}

/// Per-flow measurement results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowReport {
    /// Packets fully delivered during the measurement window.
    pub packets_delivered: u64,
    /// Flits delivered during the measurement window.
    pub flits_delivered: u64,
    /// Packets generated during the measurement window.
    pub packets_offered: u64,
    /// Total latency stats (generation → ejection), cycles.
    pub total_latency: RunningStats,
    /// Network latency stats (injection → ejection), cycles.
    pub network_latency: RunningStats,
    /// Accepted throughput, flits/cycle, over the measurement window.
    pub throughput: f64,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Measurement window length in cycles.
    pub measured_cycles: u64,
    /// Number of nodes in the network (for per-node normalization).
    pub num_nodes: usize,
    /// Per-flow reports, indexed by flow id.
    pub flows: Vec<FlowReport>,
    /// Total latency over all flows.
    pub total_latency: RunningStats,
    /// Network latency over all flows.
    pub network_latency: RunningStats,
    /// Latency histogram (total latency).
    pub latency_histogram: Histogram,
    /// All flits delivered in the window, network-wide.
    pub flits_delivered: u64,
}

impl SimReport {
    /// Network-wide accepted throughput in flits/cycle/node.
    pub fn throughput_per_node(&self) -> f64 {
        if self.measured_cycles == 0 || self.num_nodes == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / self.measured_cycles as f64 / self.num_nodes as f64
    }

    /// Mean total packet latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.total_latency.mean()
    }

    /// Accepted throughput of one flow in flits/cycle.
    pub fn flow_throughput(&self, flow: FlowId) -> f64 {
        self.flows[flow.index()].throughput
    }

    /// MAX/MIN/AVG/STDEV of throughput over a group of flows, the
    /// format of the paper's Figure 10 tables.
    pub fn group_throughput(&self, group: &[FlowId]) -> RunningStats {
        let mut s = RunningStats::new();
        for &f in group {
            s.push(self.flows[f.index()].throughput);
        }
        s
    }
}

/// Collects packet completions during a run.
///
/// Only packets *created* within the measurement window count towards
/// latency; only flits *delivered* within the window count towards
/// throughput. This is the standard NoC methodology and matches the
/// paper ("we run each simulation until a stable network state is
/// reached").
#[derive(Debug, Clone)]
pub struct StatsCollector {
    warmup: u64,
    measure: u64,
    num_nodes: usize,
    flows: Vec<FlowReport>,
    total_latency: RunningStats,
    network_latency: RunningStats,
    histogram: Histogram,
    flits_delivered: u64,
}

impl StatsCollector {
    /// Creates a collector for `num_flows` flows; the measurement
    /// window is `[warmup, warmup + measure)`.
    pub fn new(num_flows: usize, num_nodes: usize, warmup: u64, measure: u64) -> Self {
        StatsCollector {
            warmup,
            measure,
            num_nodes,
            flows: vec![FlowReport::default(); num_flows],
            total_latency: RunningStats::new(),
            network_latency: RunningStats::new(),
            histogram: Histogram::new(),
            flits_delivered: 0,
        }
    }

    fn in_window(&self, cycle: u64) -> bool {
        cycle >= self.warmup && cycle < self.warmup + self.measure
    }

    /// Replaces the measurement-window length. Sound only while no
    /// window-dependent state has accumulated — i.e. before the first
    /// measured cycle: nothing recorded during warmup depends on
    /// `measure` (events strictly before `warmup` fall outside any
    /// window), so retargeting the window at the warmup boundary is
    /// exactly equivalent to having constructed the collector with
    /// the new value. `noc_sim::checkpoint` relies on this to extend
    /// the horizon of a forked run.
    pub(crate) fn set_measure(&mut self, measure: u64) {
        self.measure = measure;
    }
}

/// The collector is an ordinary consumer of the packet-event
/// interface: the simulation driver feeds it the same
/// [`PacketProbe`] events that a telemetry probe receives, so
/// [`SimReport`] and [`crate::telemetry::TelemetryReport`] are two
/// views of one event stream rather than parallel code paths.
impl PacketProbe for StatsCollector {
    /// Notes a packet generated by the traffic source.
    fn on_generated(&mut self, packet: &Packet) {
        if self.in_window(packet.created_at) {
            self.flows[packet.id.flow.index()].packets_offered += 1;
        }
    }

    /// Notes a fully delivered packet.
    fn on_delivered(&mut self, packet: &Packet) {
        let ejected = packet
            .ejected_at
            .expect("delivered packet must have an ejection time");
        let ejected_in_window = self.in_window(ejected);
        let created_in_window = self.in_window(packet.created_at);
        let flow = &mut self.flows[packet.id.flow.index()];
        if ejected_in_window {
            flow.flits_delivered += packet.len_flits as u64;
            flow.packets_delivered += 1;
            self.flits_delivered += packet.len_flits as u64;
        }
        if created_in_window {
            let lat = packet
                .total_latency()
                .expect("delivered packet has latency");
            flow.total_latency.push(lat as f64);
            self.total_latency.push(lat as f64);
            self.histogram.record(lat);
            if let Some(nl) = packet.network_latency() {
                flow.network_latency.push(nl as f64);
                self.network_latency.push(nl as f64);
            }
        }
    }
}

impl StatsCollector {
    /// Finalizes into a report.
    pub fn finish(mut self) -> SimReport {
        for f in &mut self.flows {
            f.throughput = if self.measure == 0 {
                0.0
            } else {
                f.flits_delivered as f64 / self.measure as f64
            };
        }
        SimReport {
            measured_cycles: self.measure,
            num_nodes: self.num_nodes,
            flows: self.flows,
            total_latency: self.total_latency,
            network_latency: self.network_latency,
            latency_histogram: self.histogram,
            flits_delivered: self.flits_delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{NodeId, PacketId};

    fn packet(flow: u32, created: u64, injected: u64, ejected: u64) -> Packet {
        let mut p = Packet::new(
            PacketId {
                flow: FlowId::new(flow),
                seq: 0,
            },
            NodeId::new(0),
            NodeId::new(1),
            4,
            created,
        );
        p.injected_at = Some(injected);
        p.ejected_at = Some(ejected);
        p
    }

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count(), 5);
        let buckets: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(buckets[0], (1, 2)); // 0 and 1
        assert_eq!(buckets[1], (3, 2)); // 2 and 3
        assert_eq!(buckets[2], (1023, 1)); // 1000
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 0..100u64 {
            h.record(i);
        }
        assert!(h.quantile_upper_bound(0.5) <= 63);
        assert!(h.quantile_upper_bound(1.0) >= 99);
        assert_eq!(Histogram::new().quantile_upper_bound(0.9), 0);
    }

    #[test]
    fn collector_honors_measurement_window() {
        let mut c = StatsCollector::new(1, 64, 100, 100);
        // Created before warmup: no latency sample; delivered inside
        // window: counts for throughput.
        let p1 = packet(0, 50, 60, 120);
        c.on_generated(&p1);
        c.on_delivered(&p1);
        // Fully inside window.
        let p2 = packet(0, 110, 112, 150);
        c.on_generated(&p2);
        c.on_delivered(&p2);
        // Delivered after window: latency still counts (created inside),
        // throughput does not.
        let p3 = packet(0, 150, 152, 300);
        c.on_generated(&p3);
        c.on_delivered(&p3);
        let r = c.finish();
        assert_eq!(r.flows[0].packets_offered, 2);
        assert_eq!(r.flows[0].flits_delivered, 8); // p1 + p2
        assert_eq!(r.total_latency.count(), 2); // p2 + p3
        assert!((r.flows[0].throughput - 0.08).abs() < 1e-12);
        assert!((r.throughput_per_node() - 8.0 / 100.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn group_throughput_stats() {
        let mut c = StatsCollector::new(3, 64, 0, 100);
        for f in 0..3u32 {
            for s in 0..(f + 1) as u64 {
                let mut p = packet(f, 10, 11, 20 + s);
                p.id.seq = s;
                c.on_delivered(&p);
            }
        }
        let r = c.finish();
        let g = r.group_throughput(&[FlowId::new(0), FlowId::new(1), FlowId::new(2)]);
        assert_eq!(g.count(), 3);
        assert!((g.min() - 0.04).abs() < 1e-12); // 1 packet * 4 flits / 100
        assert!((g.max() - 0.12).abs() < 1e-12);
    }
}
