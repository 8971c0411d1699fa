//! The collecting probe: dense counters, windowed series, and
//! occupancy accumulators, designed for zero steady-state allocation
//! (all vectors grow on first touch and are reused thereafter).

use crate::fabric::PORTS;
use crate::flit::Packet;
use crate::stats::{Histogram, RunningStats};

use super::report::{
    jain_index, FlowTelemetry, TelemetryReport, WindowPoint, TELEMETRY_SCHEMA_VERSION,
};
use super::{BlockKind, BufKind, Causes, PacketProbe, Probe};

/// Per-flow accumulation while the run is live.
#[derive(Debug, Clone, Default)]
struct FlowAcc {
    packets: u64,
    flits: u64,
    latency: RunningStats,
    series: Vec<WindowPoint>,
}

/// A blocked span still open: the cycle of the visit that blocked the
/// item, and what it waits for.
#[derive(Debug, Clone, Copy)]
struct Span {
    since: u64,
    causes: Causes,
}

/// The live telemetry probe: subscribes to every [`Probe`] event and
/// accumulates per-link counters, occupancy statistics, and per-flow
/// windowed series. [`LiveProbe::finish`] freezes the accumulation
/// into a [`TelemetryReport`].
///
/// A work item that leaves its worklist blocked opens a span
/// ([`Probe::on_block`]) that its next visit, or `finish`, settles:
/// the cycles in between add one stall, wait or denial per cause, as
/// a visit each cycle would have counted them.
///
/// All storage is dense vectors grown on demand (never a hash map),
/// so recording an event is an index bump and the steady state
/// allocates nothing once every index has been touched — the probe
/// passes the same `--alloc-budget` gate as the fabric itself.
#[derive(Debug, Clone)]
pub struct LiveProbe {
    /// Sampling / series window width in cycles.
    window: u64,
    /// Cycles observed so far (`last on_cycle argument + 1`).
    cycles: u64,
    link_flits: Vec<u64>,
    link_stalls: Vec<u64>,
    sched_book: Vec<u64>,
    sched_deny: Vec<u64>,
    link_resets: Vec<u64>,
    vc_waits: Vec<u64>,
    nic_stalls: Vec<u64>,
    /// Open blocked spans per [`BlockKind`], by item index.
    spans: [Vec<Option<Span>>; BlockKind::COUNT],
    occupancy: Vec<Vec<RunningStats>>,
    flows: Vec<FlowAcc>,
    histogram: Histogram,
}

impl LiveProbe {
    /// Creates a probe sampling occupancy (and bucketing flow series)
    /// every `window` cycles. Panics if `window` is zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "telemetry window must be at least one cycle");
        LiveProbe {
            window,
            cycles: 0,
            link_flits: Vec::new(),
            link_stalls: Vec::new(),
            sched_book: Vec::new(),
            sched_deny: Vec::new(),
            link_resets: Vec::new(),
            vc_waits: Vec::new(),
            nic_stalls: Vec::new(),
            spans: Default::default(),
            occupancy: vec![Vec::new(); BufKind::COUNT],
            flows: Vec::new(),
            histogram: Histogram::new(),
        }
    }

    /// The configured window width in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    fn bump(vec: &mut Vec<u64>, idx: usize, by: u64) {
        if vec.len() <= idx {
            vec.resize(idx + 1, 0);
        }
        vec[idx] += by;
    }

    /// Adds the cycles a blocked span missed, from the visit after its
    /// block to the one before `end`, to the counters of its causes.
    #[cold]
    fn settle(&mut self, kind: BlockKind, index: usize, span: Span, end: u64) {
        let missed = end - span.since - 1;
        if missed == 0 {
            return;
        }
        match kind {
            BlockKind::Router => {
                for port in 0..PORTS {
                    let link = index * PORTS + port;
                    if span.causes.credit & (1 << port) != 0 {
                        Self::bump(&mut self.link_stalls, link, missed);
                    }
                    if span.causes.vc & (1 << port) != 0 {
                        Self::bump(&mut self.vc_waits, link, missed);
                    }
                }
            }
            BlockKind::Nic => Self::bump(&mut self.nic_stalls, index, missed),
            BlockKind::Lookahead => Self::bump(&mut self.sched_deny, index, missed),
        }
    }

    /// Folds `point` into `series`, which is kept sorted by window.
    /// Deliveries arrive in near-monotonic window order (LOFT stamps
    /// ejections ahead of the current cycle, so small backward jumps
    /// happen at quantum boundaries); the common cases are "same
    /// window as the last point" and "a later window", with a binary
    /// search fallback for the rare out-of-order delivery.
    fn fold_point(series: &mut Vec<WindowPoint>, point: WindowPoint) {
        match series.last_mut() {
            Some(last) if last.window == point.window => {
                last.packets += point.packets;
                last.flits += point.flits;
                last.latency_sum += point.latency_sum;
            }
            Some(last) if last.window < point.window => series.push(point),
            None => series.push(point),
            _ => {
                let i = series.partition_point(|p| p.window < point.window);
                if let Some(p) = series.get_mut(i).filter(|p| p.window == point.window) {
                    p.packets += point.packets;
                    p.flits += point.flits;
                    p.latency_sum += point.latency_sum;
                } else {
                    series.insert(i, point);
                }
            }
        }
    }

    /// Freezes the accumulation into a [`TelemetryReport`]: settles
    /// the spans still open as blocked to the end of the run, pads the
    /// per-link tables to a common length, derives per-flow
    /// throughput and min service rate, and computes the QoS roll-up.
    #[must_use]
    pub fn finish(mut self) -> TelemetryReport {
        let open = std::mem::take(&mut self.spans);
        for (kind, spans) in BlockKind::ALL.into_iter().zip(open) {
            for (index, span) in spans.into_iter().enumerate() {
                if let Some(span) = span {
                    self.settle(kind, index, span, self.cycles);
                }
            }
        }
        let links = [
            self.link_flits.len(),
            self.link_stalls.len(),
            self.sched_book.len(),
            self.sched_deny.len(),
            self.link_resets.len(),
            self.vc_waits.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        for v in [
            &mut self.link_flits,
            &mut self.link_stalls,
            &mut self.sched_book,
            &mut self.sched_deny,
            &mut self.link_resets,
            &mut self.vc_waits,
        ] {
            v.resize(links, 0);
        }

        let cycles = self.cycles;
        let window = self.window;
        let flows: Vec<FlowTelemetry> = self
            .flows
            .into_iter()
            .map(|acc| {
                let throughput = if cycles == 0 {
                    0.0
                } else {
                    acc.flits as f64 / cycles as f64
                };
                // Min windowed service rate over the flow's active
                // span. A window with no deliveries inside the span
                // is a zero — the series only stores non-empty
                // windows, so a gap in window indices is starvation.
                let min_service_rate = match (acc.series.first(), acc.series.last()) {
                    (Some(first), Some(last)) => {
                        let span = last.window - first.window + 1;
                        if (acc.series.len() as u64) < span {
                            0.0
                        } else {
                            let min_flits = acc.series.iter().map(|p| p.flits).min().unwrap_or(0);
                            min_flits as f64 / window as f64
                        }
                    }
                    _ => 0.0,
                };
                FlowTelemetry {
                    packets: acc.packets,
                    flits: acc.flits,
                    latency: acc.latency,
                    throughput,
                    min_service_rate,
                    series: acc.series,
                }
            })
            .collect();

        let rates: Vec<f64> = flows.iter().map(|f| f.throughput).collect();
        let (p50, p95, p99) = (
            self.histogram.quantile_upper_bound(0.50),
            self.histogram.quantile_upper_bound(0.95),
            self.histogram.quantile_upper_bound(0.99),
        );
        TelemetryReport {
            version: TELEMETRY_SCHEMA_VERSION,
            cycles,
            window,
            ports: PORTS,
            link_flits: self.link_flits,
            link_stalls: self.link_stalls,
            sched_book: self.sched_book,
            sched_deny: self.sched_deny,
            link_resets: self.link_resets,
            vc_waits: self.vc_waits,
            nic_stalls: self.nic_stalls,
            occupancy: self.occupancy,
            flows,
            jain: jain_index(&rates),
            latency_histogram: self.histogram,
            p50,
            p95,
            p99,
        }
    }
}

impl PacketProbe for LiveProbe {
    fn on_generated(&mut self, packet: &Packet) {
        // Generation only sizes the flow table early so delivery-time
        // growth is rarer; all counting happens at delivery.
        let flow = packet.id.flow.index();
        if self.flows.len() <= flow {
            self.flows.resize(flow + 1, FlowAcc::default());
        }
    }

    fn on_delivered(&mut self, packet: &Packet) {
        let flow = packet.id.flow.index();
        if self.flows.len() <= flow {
            self.flows.resize(flow + 1, FlowAcc::default());
        }
        let ejected = packet
            .ejected_at
            .expect("delivered packet must have an ejection stamp");
        let latency = packet
            .total_latency()
            .expect("delivered packet must have a latency");
        self.histogram.record(latency);
        let acc = &mut self.flows[flow];
        acc.packets += 1;
        acc.flits += u64::from(packet.len_flits);
        acc.latency.push(latency as f64);
        Self::fold_point(
            &mut acc.series,
            WindowPoint {
                window: ejected / self.window,
                packets: 1,
                flits: u64::from(packet.len_flits),
                latency_sum: latency,
            },
        );
    }
}

impl Probe for LiveProbe {
    const ENABLED: bool = true;

    fn sample_due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.window)
    }

    fn on_link_flits(&mut self, link: usize, flits: u32) {
        Self::bump(&mut self.link_flits, link, u64::from(flits));
    }

    fn on_link_stall(&mut self, link: usize) {
        Self::bump(&mut self.link_stalls, link, 1);
    }

    fn on_nic_stall(&mut self, node: usize) {
        Self::bump(&mut self.nic_stalls, node, 1);
    }

    fn on_vc_wait(&mut self, link: usize) {
        Self::bump(&mut self.vc_waits, link, 1);
    }

    fn on_sched_book(&mut self, link: usize) {
        Self::bump(&mut self.sched_book, link, 1);
    }

    fn on_sched_deny(&mut self, link: usize) {
        Self::bump(&mut self.sched_deny, link, 1);
    }

    fn on_link_reset(&mut self, link: usize) {
        Self::bump(&mut self.link_resets, link, 1);
    }

    fn on_block(&mut self, kind: BlockKind, index: usize, causes: Causes, cycle: u64) {
        let spans = &mut self.spans[kind.index()];
        if spans.len() <= index {
            spans.resize(index + 1, None);
        }
        debug_assert!(spans[index].is_none(), "{kind:?} {index} blocked twice");
        spans[index] = Some(Span {
            since: cycle,
            causes,
        });
    }

    #[inline]
    fn on_visit(&mut self, kind: BlockKind, index: usize, cycle: u64) {
        // Read before writing: most visits find no open span.
        if let Some(&Some(span)) = self.spans[kind.index()].get(index) {
            self.spans[kind.index()][index] = None;
            self.settle(kind, index, span, cycle);
        }
    }

    fn on_occupancy(&mut self, kind: BufKind, index: usize, occupied: u32) {
        let table = &mut self.occupancy[kind.index()];
        if table.len() <= index {
            table.resize(index + 1, RunningStats::new());
        }
        table[index].push(f64::from(occupied));
    }

    fn on_cycle(&mut self, cycle: u64) {
        self.cycles = self.cycles.max(cycle + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{FlowId, NodeId, Packet, PacketId};

    fn delivered(flow: u32, seq: u64, created: u64, ejected: u64, len: u16) -> Packet {
        let mut p = Packet::new(
            PacketId {
                flow: FlowId::new(flow),
                seq,
            },
            NodeId::new(0),
            NodeId::new(1),
            len,
            created,
        );
        p.injected_at = Some(created);
        p.ejected_at = Some(ejected);
        p
    }

    #[test]
    fn windowed_series_accumulates_in_order() {
        let mut probe = LiveProbe::new(10);
        probe.on_delivered(&delivered(0, 0, 0, 5, 4)); // window 0
        probe.on_delivered(&delivered(0, 1, 1, 9, 4)); // window 0
        probe.on_delivered(&delivered(0, 2, 2, 25, 4)); // window 2 (gap at 1)
        probe.on_cycle(29);
        let report = probe.finish();
        let flow = &report.flows[0];
        assert_eq!(flow.series.len(), 2);
        assert_eq!(
            flow.series[0],
            WindowPoint {
                window: 0,
                packets: 2,
                flits: 8,
                latency_sum: 5 + 8
            }
        );
        assert_eq!(
            flow.series[1],
            WindowPoint {
                window: 2,
                packets: 1,
                flits: 4,
                latency_sum: 23
            }
        );
        // The gap at window 1 forces the min service rate to zero.
        assert_eq!(flow.min_service_rate, 0.0);
        assert_eq!(flow.packets, 3);
        assert_eq!(report.cycles, 30);
    }

    #[test]
    fn out_of_order_delivery_folds_into_existing_window() {
        let mut probe = LiveProbe::new(10);
        probe.on_delivered(&delivered(0, 0, 0, 5, 1)); // window 0
        probe.on_delivered(&delivered(0, 1, 0, 25, 1)); // window 2
        probe.on_delivered(&delivered(0, 2, 0, 7, 1)); // back to window 0
        probe.on_delivered(&delivered(0, 3, 0, 15, 1)); // insert window 1
        let report = probe.finish();
        let series = &report.flows[0].series;
        assert_eq!(
            series.iter().map(|p| p.window).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(series[0].packets, 2);
        // Contiguous windows 0..=2, min flits 1 → rate 1/window.
        assert_eq!(report.flows[0].min_service_rate, 0.1);
    }

    #[test]
    fn min_service_rate_single_window() {
        let mut probe = LiveProbe::new(100);
        probe.on_delivered(&delivered(0, 0, 0, 10, 4));
        probe.on_delivered(&delivered(0, 1, 0, 20, 4));
        let report = probe.finish();
        // One active window holding 8 flits: 8 / 100 cycles.
        assert_eq!(report.flows[0].min_service_rate, 0.08);
    }

    #[test]
    fn empty_flow_has_empty_window_series() {
        let mut probe = LiveProbe::new(10);
        // Generated but never delivered: flow exists, series empty.
        let p = delivered(0, 0, 0, 5, 4);
        probe.on_generated(&p);
        let report = probe.finish();
        assert_eq!(report.flows.len(), 1);
        assert!(report.flows[0].series.is_empty());
        assert_eq!(report.flows[0].min_service_rate, 0.0);
        assert_eq!(report.flows[0].throughput, 0.0);
        // No flows delivered anything: vacuously fair.
        assert_eq!(report.jain, 1.0);
    }

    /// Router 2 blocked at cycle 10 with output 1 waiting for credit
    /// and outputs 3 and 4 for a VC.
    fn blocked_router(probe: &mut LiveProbe) {
        let causes = Causes {
            credit: 1 << 1,
            vc: 1 << 3 | 1 << 4,
        };
        probe.on_block(BlockKind::Router, 2, causes, 10);
    }

    #[test]
    fn a_visit_settles_the_cycles_its_span_missed_per_cause() {
        let mut probe = LiveProbe::new(10);
        blocked_router(&mut probe);
        probe.on_block(BlockKind::Nic, 1, Causes::default(), 4);
        probe.on_block(BlockKind::Lookahead, 7, Causes::default(), 5);
        // Visited again in cycle 14: it missed cycles 11, 12 and 13.
        probe.on_visit(BlockKind::Router, 2, 14);
        probe.on_visit(BlockKind::Nic, 1, 5);
        probe.on_visit(BlockKind::Lookahead, 7, 8);
        // Spans are closed: later visits add nothing.
        probe.on_visit(BlockKind::Router, 2, 20);
        probe.on_visit(BlockKind::Lookahead, 7, 20);
        probe.on_visit(BlockKind::Nic, 9, 20);
        probe.on_cycle(99);
        let report = probe.finish();
        assert_eq!(report.link_stalls[2 * PORTS + 1], 3);
        assert_eq!(report.vc_waits[2 * PORTS + 3], 3);
        assert_eq!(report.vc_waits[2 * PORTS + 4], 3);
        assert_eq!(report.link_stalls.iter().sum::<u64>(), 3);
        assert_eq!(report.vc_waits.iter().sum::<u64>(), 6);
        // The NIC was visited the cycle after its block: nothing missed.
        assert_eq!(report.nic_stalls.iter().sum::<u64>(), 0);
        assert_eq!(report.sched_deny[7], 2);
    }

    #[test]
    fn finish_settles_open_spans_to_the_end_of_the_run() {
        let mut probe = LiveProbe::new(10);
        blocked_router(&mut probe);
        probe.on_block(BlockKind::Nic, 1, Causes::default(), 12);
        // The run stepped cycles 0..=29.
        probe.on_cycle(29);
        let report = probe.finish();
        assert_eq!(report.link_stalls[2 * PORTS + 1], 19);
        assert_eq!(report.vc_waits[2 * PORTS + 4], 19);
        assert_eq!(report.nic_stalls[1], 17);
    }

    #[test]
    fn a_fork_carries_its_open_spans() {
        let mut probe = LiveProbe::new(10);
        blocked_router(&mut probe);
        let mut fork = probe.clone();
        probe.on_visit(BlockKind::Router, 2, 12);
        fork.on_visit(BlockKind::Router, 2, 20);
        let (report, forked) = (probe.finish(), fork.finish());
        assert_eq!(report.link_stalls[2 * PORTS + 1], 1);
        assert_eq!(forked.link_stalls[2 * PORTS + 1], 9);
        assert_eq!(forked.vc_waits[2 * PORTS + 3], 9);
    }

    #[test]
    fn sampling_cadence_follows_window() {
        let probe = LiveProbe::new(50);
        assert!(probe.sample_due(0));
        assert!(!probe.sample_due(49));
        assert!(probe.sample_due(50));
        assert!(probe.sample_due(100));
    }
}
