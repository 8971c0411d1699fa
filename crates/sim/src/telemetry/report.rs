//! The frozen output of a telemetry run: merged counters, QoS
//! summaries, and the versioned JSON export.

use crate::stats::{Histogram, RunningStats};

use super::BufKind;

/// Version of the JSON document produced by
/// [`TelemetryReport::to_json`]. Bump on any breaking change to field
/// names or semantics; consumers check `telemetry_version` before
/// parsing anything else.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

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
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"telemetry_version\":{},\"cycles\":{},\"window\":{},\"ports\":{}",
            self.version, self.cycles, self.window, self.ports
        ));

        // Links: one object per link that saw any activity.
        out.push_str(",\"links\":[");
        let mut first = true;
        let links = [
            self.link_flits.len(),
            self.link_stalls.len(),
            self.sched_book.len(),
            self.sched_deny.len(),
            self.link_resets.len(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0);
        for link in 0..links {
            let at = |v: &Vec<u64>| v.get(link).copied().unwrap_or(0);
            let (flits, stalls) = (at(&self.link_flits), at(&self.link_stalls));
            let (book, deny) = (at(&self.sched_book), at(&self.sched_deny));
            let resets = at(&self.link_resets);
            if flits + stalls + book + deny + resets == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"link\":{link},\"node\":{},\"port\":{},\"flits\":{flits},\
                 \"stalls\":{stalls},\"sched_book\":{book},\"sched_deny\":{deny},\
                 \"resets\":{resets},\"utilization\":{}}}",
                link / self.ports.max(1),
                link % self.ports.max(1),
                json_f64(self.link_utilization(link)),
            ));
        }
        out.push(']');

        // NIC stalls, sparse by node.
        out.push_str(",\"nics\":[");
        let mut first = true;
        for (node, &stalls) in self.nic_stalls.iter().enumerate() {
            if stalls == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{{\"node\":{node},\"stalls\":{stalls}}}"));
        }
        out.push(']');

        // Occupancy summaries, sparse by (kind, index).
        out.push_str(",\"occupancy\":[");
        let mut first = true;
        let kinds = [
            BufKind::Vc,
            BufKind::NonSpec,
            BufKind::Spec,
            BufKind::Source,
        ];
        for kind in kinds {
            for (index, s) in self.occupancy[kind.index()].iter().enumerate() {
                if s.count() == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"kind\":\"{}\",\"index\":{index},\"samples\":{},\
                     \"mean\":{},\"max\":{}}}",
                    kind.name(),
                    s.count(),
                    json_f64(s.mean()),
                    json_f64(s.max()),
                ));
            }
        }
        out.push(']');

        // QoS roll-up.
        out.push_str(&format!(
            ",\"qos\":{{\"delivered_packets\":{},\"p50\":{},\"p95\":{},\
             \"p99\":{},\"jain\":{}}}",
            self.latency_histogram.count(),
            self.p50,
            self.p95,
            self.p99,
            json_f64(self.jain),
        ));

        // Per-flow summaries with their windowed series. Series
        // points are compact arrays: [window, packets, flits,
        // latency_sum].
        out.push_str(",\"flows\":[");
        let mut first = true;
        for (flow, f) in self.flows.iter().enumerate() {
            if f.packets == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"flow\":{flow},\"packets\":{},\"flits\":{},\
                 \"throughput\":{},\"mean_latency\":{},\"min_service_rate\":{},\
                 \"series\":[",
                f.packets,
                f.flits,
                json_f64(f.throughput),
                json_f64(f.latency.mean()),
                json_f64(f.min_service_rate),
            ));
            for (i, p) in f.series.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "[{},{},{},{}]",
                    p.window, p.packets, p.flits, p.latency_sum
                ));
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float for JSON: plain decimal, never NaN/inf (callers
/// only feed finite values; a non-finite input falls back to `0`, the
/// least-surprising valid JSON).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0".to_string()
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
        assert!(json.starts_with("{\"telemetry_version\":1,"));
        // Sparse: only link 1 and node 2 appear.
        assert!(json.contains("\"link\":1"));
        assert!(!json.contains("\"link\":0"));
        assert!(json.contains("\"node\":2,\"stalls\":3"));
        // Zero-packet flows are elided.
        assert!(json.contains("\"flows\":[]"));
        // Utilization of link 1: 50 flits over 100 cycles.
        assert!(json.contains("\"utilization\":0.500000"));
    }
}
