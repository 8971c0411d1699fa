//! The frozen output of a telemetry run: merged counters, QoS
//! summaries, and the versioned JSON export.

use crate::json::{self, Value};
use crate::stats::{Histogram, RunningStats};

use super::BufKind;

/// Version of the JSON document produced by
/// [`TelemetryReport::to_json`]. Bump on any breaking change to field
/// names or semantics; consumers check `telemetry_version` before
/// parsing anything else.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 2;

/// Jain's fairness index over per-flow service rates:
/// `J = (Σx)² / (n · Σx²)`, in `(0, 1]`, where `1` is perfectly fair
/// and `1/n` is one flow taking everything.
///
/// Degenerate inputs are *vacuously fair*: an empty slice (no flows
/// competing), a single flow, and all-zero rates (nobody served, but
/// nobody favored) all return `1.0`.
#[must_use]
pub fn jain_index(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 1.0;
    }
    let sum: f64 = rates.iter().sum();
    let sum_sq: f64 = rates.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * sum_sq)
}

/// One window of one flow's delivery series. Windows are `window`
/// cycles wide (see [`TelemetryReport::window`]); `window` index `w`
/// covers ejection cycles `[w·window, (w+1)·window)`. Windows in
/// which a flow delivered nothing are omitted from the series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowPoint {
    /// Window index (ejection cycle divided by the window width).
    pub window: u64,
    /// Packets delivered in this window.
    pub packets: u64,
    /// Flits delivered in this window.
    pub flits: u64,
    /// Sum of total latencies of the packets delivered in this
    /// window, for a per-window latency mean without extra state.
    pub latency_sum: u64,
}

impl WindowPoint {
    /// Mean total latency of the packets delivered in this window
    /// (`0.0` for an empty window).
    #[must_use]
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }
}

/// Per-flow telemetry summary: whole-run aggregates plus the windowed
/// delivery series behind them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTelemetry {
    /// Packets delivered over the whole run.
    pub packets: u64,
    /// Flits delivered over the whole run.
    pub flits: u64,
    /// Total-latency accumulator over delivered packets.
    pub latency: RunningStats,
    /// Whole-run accepted throughput in flits/cycle.
    pub throughput: f64,
    /// Minimum windowed service rate in flits/cycle, taken over the
    /// span from the flow's first to its last delivery window.
    /// Windows inside the span with no deliveries count as zero, so a
    /// starved flow shows `0.0` even if its averages look healthy.
    pub min_service_rate: f64,
    /// The non-empty delivery windows, in ascending window order.
    pub series: Vec<WindowPoint>,
}

/// A finished telemetry run: per-link and per-node counters,
/// occupancy summaries, per-flow series, and QoS roll-ups.
///
/// Derives `PartialEq` so the equivalence suites can compare whole
/// documents; all floating-point fields are accumulated in event
/// order, so equality is exact, not approximate.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Schema version of the JSON export
    /// ([`TELEMETRY_SCHEMA_VERSION`]).
    pub version: u32,
    /// Cycles the driver stepped (the utilization denominator).
    pub cycles: u64,
    /// Width in cycles of the occupancy-sampling and flow-series
    /// windows.
    pub window: u64,
    /// Output ports per router, for decoding link indices
    /// (`link = node * ports + port`).
    pub ports: usize,
    /// Flits forwarded per link, indexed by global link index.
    pub link_flits: Vec<u64>,
    /// Cycles each link had traffic ready but could not forward.
    pub link_stalls: Vec<u64>,
    /// Scheduler bookings per link (LOFT's LSF).
    pub sched_book: Vec<u64>,
    /// Scheduler denials per link (lookahead queued but not booked).
    pub sched_deny: Vec<u64>,
    /// Idle-link status resets per link (LOFT).
    pub link_resets: Vec<u64>,
    /// Cycles a head flit waited in VC allocation for a VC of each
    /// link, all of them held (the VC networks).
    pub vc_waits: Vec<u64>,
    /// Cycles each node's source NIC was blocked from injecting.
    pub nic_stalls: Vec<u64>,
    /// Occupancy summaries, `occupancy[kind.index()][index]`; entries
    /// with zero samples mean that buffer class/index was never
    /// sampled (e.g. LOFT kinds on a VC network).
    pub occupancy: Vec<Vec<RunningStats>>,
    /// Per-flow summaries, indexed by flow id.
    pub flows: Vec<FlowTelemetry>,
    /// Power-of-two histogram of total latency over every delivered
    /// packet in the run.
    pub latency_histogram: Histogram,
    /// Median total-latency upper bound from the histogram.
    pub p50: u64,
    /// 95th-percentile total-latency upper bound.
    pub p95: u64,
    /// 99th-percentile total-latency upper bound.
    pub p99: u64,
    /// Jain fairness index over per-flow whole-run throughput.
    pub jain: f64,
}

impl TelemetryReport {
    /// Fraction of cycles `link` spent moving flits (`0.0` when the
    /// run had no cycles or the link index was never seen).
    #[must_use]
    pub fn link_utilization(&self, link: usize) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let flits = self.link_flits.get(link).copied().unwrap_or(0);
        flits as f64 / self.cycles as f64
    }

    /// Occupancy summary of buffer class `kind` at `index`
    /// (empty [`RunningStats`] if never sampled).
    #[must_use]
    pub fn occupancy(&self, kind: BufKind, index: usize) -> RunningStats {
        self.occupancy[kind.index()]
            .get(index)
            .copied()
            .unwrap_or_default()
    }

    /// Serializes the whole report as one versioned JSON document.
    ///
    /// Per-link and per-node arrays are emitted sparsely (only
    /// entries with at least one nonzero counter or sample), keyed by
    /// their index, so an 8×8 mesh at low load stays compact. The
    /// schema is documented in DESIGN.md and versioned by the
    /// top-level `telemetry_version` field.
    #[must_use]
    pub fn to_json(&self) -> String {
        let f6 = |x: f64| Value::Fixed(x, 6);
        let ports = self.ports.max(1);
        let counters = [
            ("flits", &self.link_flits),
            ("stalls", &self.link_stalls),
            ("sched_book", &self.sched_book),
            ("sched_deny", &self.sched_deny),
            ("resets", &self.link_resets),
            ("vc_waits", &self.vc_waits),
        ];
        let links = counters.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        json::object(|doc| {
            doc.field("telemetry_version", self.version)
                .field("cycles", self.cycles)
                .field("window", self.window)
                .field("ports", self.ports);
            // Links: one object per link that saw any activity.
            doc.array("links", |out| {
                for link in 0..links {
                    let at = |v: &Vec<u64>| v.get(link).copied().unwrap_or(0);
                    if counters.iter().all(|(_, v)| at(v) == 0) {
                        continue;
                    }
                    out.object(|o| {
                        o.field("link", link)
                            .field("node", link / ports)
                            .field("port", link % ports);
                        for (name, v) in counters {
                            o.field(name, at(v));
                        }
                        o.field("utilization", f6(self.link_utilization(link)));
                    });
                }
            });
            // NIC stalls, sparse by node.
            doc.array("nics", |out| {
                for (node, &stalls) in self.nic_stalls.iter().enumerate() {
                    if stalls > 0 {
                        out.object(|o| {
                            o.field("node", node).field("stalls", stalls);
                        });
                    }
                }
            });
            // Occupancy summaries, sparse by (kind, index).
            doc.array("occupancy", |out| {
                for kind in BufKind::ALL {
                    for (index, s) in self.occupancy[kind.index()].iter().enumerate() {
                        if s.count() > 0 {
                            out.object(|o| {
                                o.field("kind", kind.name())
                                    .field("index", index)
                                    .field("samples", s.count())
                                    .field("mean", f6(s.mean()))
                                    .field("max", f6(s.max()));
                            });
                        }
                    }
                }
            });
            doc.object("qos", |o| {
                o.field("delivered_packets", self.latency_histogram.count())
                    .field("p50", self.p50)
                    .field("p95", self.p95)
                    .field("p99", self.p99)
                    .field("jain", f6(self.jain));
            });
            // Per-flow summaries with their windowed series. Series
            // points are compact arrays: [window, packets, flits,
            // latency_sum].
            doc.array("flows", |out| {
                for (flow, f) in self.flows.iter().enumerate() {
                    if f.packets == 0 {
                        continue;
                    }
                    out.object(|o| {
                        o.field("flow", flow)
                            .field("packets", f.packets)
                            .field("flits", f.flits)
                            .field("throughput", f6(f.throughput))
                            .field("mean_latency", f6(f.latency.mean()))
                            .field("min_service_rate", f6(f.min_service_rate));
                        o.array("series", |series| {
                            for p in &f.series {
                                series.array(|a| {
                                    a.item(p.window)
                                        .item(p.packets)
                                        .item(p.flits)
                                        .item(p.latency_sum);
                                });
                            }
                        });
                    });
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_handles_degenerate_inputs() {
        // Zero flows and all-zero rates are vacuously fair.
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0, 0.0]), 1.0);
        // A single flow is trivially fair.
        assert_eq!(jain_index(&[0.25]), 1.0);
    }

    #[test]
    fn jain_matches_closed_forms() {
        // Equal rates: exactly 1.
        assert!((jain_index(&[0.5, 0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        // One of n flows taking everything: exactly 1/n.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // 2:1 split of two flows: (3)^2 / (2 * 5) = 0.9.
        assert!((jain_index(&[2.0, 1.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn window_point_latency_mean() {
        let p = WindowPoint {
            window: 3,
            packets: 4,
            flits: 16,
            latency_sum: 100,
        };
        assert_eq!(p.avg_latency(), 25.0);
        let empty = WindowPoint {
            window: 0,
            packets: 0,
            flits: 0,
            latency_sum: 0,
        };
        assert_eq!(empty.avg_latency(), 0.0);
    }

    #[test]
    fn json_export_is_versioned_and_sparse() {
        let report = TelemetryReport {
            version: TELEMETRY_SCHEMA_VERSION,
            cycles: 100,
            window: 10,
            ports: 5,
            link_flits: vec![0, 50, 0],
            link_stalls: vec![0, 5],
            sched_book: Vec::new(),
            sched_deny: Vec::new(),
            link_resets: Vec::new(),
            vc_waits: vec![0, 0, 0, 2],
            nic_stalls: vec![0, 0, 3],
            occupancy: vec![Vec::new(); BufKind::COUNT],
            flows: vec![FlowTelemetry::default()],
            latency_histogram: Histogram::new(),
            p50: 0,
            p95: 0,
            p99: 0,
            jain: 1.0,
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"telemetry_version\":2,"));
        // Sparse: only links 1 and 3 and node 2 appear.
        assert!(json.contains("\"link\":1"));
        assert!(!json.contains("\"link\":0"));
        assert!(!json.contains("\"link\":2"));
        assert!(json.contains("\"resets\":0,\"vc_waits\":2,"));
        assert!(json.contains("\"node\":2,\"stalls\":3"));
        // Zero-packet flows are elided.
        assert!(json.contains("\"flows\":[]"));
        // Utilization of link 1: 50 flits over 100 cycles.
        assert!(json.contains("\"utilization\":0.500000"));
    }
}
