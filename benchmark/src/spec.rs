//! What the benchmark measures: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same table for the driver; a unit test keeps the two
//! in step.

use crate::net::NETS;

/// Version of the result documents under `out/`.
pub const SCHEMA_VERSION: u32 = 1;

/// How cycles and host time are counted; stamped in every result so
/// numbers on different bases are never compared.
pub const CYCLE_BASIS: &str = "cell workloads: one rep = ckpt.fork().resume() of every cell, \
    networks interleaved, cycles = end_cycle - warmup; sweep-matrix: one rep = run_sweep, \
    cycles = sum(end_cycle - warmup) over rows + warmup per group, host time = makespan; \
    one untimed rep, then timed reps; median over reps";

pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Seconds of timed repetitions when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "uniform-sat",
        why: "uniform 0.60 on 3 nets: past saturation Network::step is 95-97% of the loop, \
              so queue, slab, LSF-scheduler and VA/SA work dominate; datapath optimisations show here",
    },
    Workload {
        name: "uniform-low",
        why: "uniform 0.05 on 3 nets: an almost idle fabric where per-cycle fixed cost, worklists \
              and Workload::generate matter and queue work does not; a datapath-only change moves nothing",
    },
    Workload {
        name: "qos-hotspot",
        why: "the paper's QoS cases (hotspot 0.05/0.60, case studies I and II) on 3 nets: a few saturated \
              links, share reservations, unbounded source queues; carries the QoS checks and fidelity numbers",
    },
    Workload {
        name: "sweep-matrix",
        why: "run_sweep over 30 short groups (mesh/torus/ring) on 2 jobs: construction, warmup sharing, \
              fork, LPT scheduling and the worker pool are a visible share; what a user of sweep waits for",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated, not timed: repeats bit for bit at a given seed, so
    /// two versions compare for equality.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "loft_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "gsf_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wormhole_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "loft_accepted_flits_per_cycle_node",
        unit: "flits/cycle/node",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "loft_avg_latency_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count or simulated statistic, not a host time: repeats bit
    /// for bit at a seed.
    pub exact: bool,
}

/// Every per-layer metric, grouped by layer in the order the README
/// lists them. `{net}` families expand over [`NETS`].
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    const TIMED: bool = false;
    const EXACT: bool = true;
    let mut out = Vec::new();
    let mut push = |name: String, unit, better, exact| {
        out.push(PerLayer {
            name,
            unit,
            better,
            exact,
        });
    };
    for net in NETS {
        for (metric, unit, better, exact) in [
            // host time of the Network impl, from the traced loop
            ("step_ns_per_cycle", "ns", Lower, TIMED),
            ("step_share", "ratio", Lower, TIMED),
            ("enqueue_ns_per_packet", "ns", Lower, TIMED),
            ("enqueue_share", "ratio", Lower, TIMED),
            ("step_ns_per_flit_hop", "ns", Lower, TIMED),
            ("build_ms", "ms", Lower, TIMED),
            ("steady_allocs_per_kcycle", "allocs/kcycle", Lower, EXACT),
            // modelled component, from a LiveProbe pass
            ("flit_hops", "count", Higher, EXACT),
            ("link_stalls", "count", Lower, EXACT),
            ("nic_stalls", "count", Lower, EXACT),
            ("sched_book", "count", Higher, EXACT),
            ("sched_deny", "count", Lower, EXACT),
            ("link_resets", "count", Higher, EXACT),
            ("mean_link_util", "ratio", Higher, EXACT),
            ("max_link_util", "ratio", Higher, EXACT),
            (
                "accepted_flits_per_cycle_node",
                "flits/cycle/node",
                Higher,
                EXACT,
            ),
            ("avg_latency_cycles", "cycles", Lower, EXACT),
            ("p99_latency_cycles", "cycles", Lower, EXACT),
        ] {
            push(format!("{net}.{metric}"), unit, better, exact);
        }
    }
    for (name, unit, better, exact) in [
        ("traffic.generate_ns_per_cycle", "ns", Lower, TIMED),
        ("traffic.generate_share", "ratio", Lower, TIMED),
        ("traffic.packets_generated", "count", Higher, EXACT),
        ("traffic.workload_build_ms", "ms", Lower, TIMED),
        ("traffic.next_active_ns_per_call", "ns", Lower, TIMED),
        ("engine.collect_ns_per_packet", "ns", Lower, TIMED),
        ("engine.collect_share", "ratio", Lower, TIMED),
        ("engine.loop_other_share", "ratio", Lower, TIMED),
    ] {
        push(name.to_string(), unit, better, exact);
    }
    for (family, unit, better, exact) in [
        ("engine.ff_skipped_share", "ratio", Higher, EXACT),
        ("engine.ff_speedup", "x", Higher, TIMED),
        ("checkpoint.capture_s", "s", Lower, TIMED),
        ("checkpoint.fork_ms", "ms", Lower, TIMED),
        ("checkpoint.fork_share", "ratio", Lower, TIMED),
        ("checkpoint.fork_allocs", "count", Lower, EXACT),
        ("par.shard2_speedup", "x", Higher, TIMED),
    ] {
        for net in NETS {
            push(format!("{family}.{net}"), unit, better, exact);
        }
    }
    push("par.pool_dispatch_us".to_string(), "us", Lower, TIMED);
    for net in NETS {
        push(format!("telemetry.cps_ratio.{net}"), "ratio", Higher, TIMED);
    }
    for (name, unit, better, exact) in [
        ("telemetry.finish_ms", "ms", Lower, TIMED),
        ("telemetry.to_json_ms", "ms", Lower, TIMED),
        ("sweep.makespan_s", "s", Lower, TIMED),
        ("sweep.busy_s", "s", Lower, TIMED),
        ("sweep.pool_idle_share", "ratio", Lower, TIMED),
        ("sweep.warmup_share", "ratio", Lower, TIMED),
        ("sweep.jobs_speedup", "x", Higher, TIMED),
        ("sweep.horizon_doublings", "count", Lower, EXACT),
        ("sweep.rows", "count", Higher, EXACT),
        ("model.max_latency_over_bound", "ratio", Lower, EXACT),
        (
            "model.fig11a_loft_over_gsf_throughput",
            "ratio",
            Higher,
            EXACT,
        ),
        ("model.fig10a_loft_cv", "ratio", Lower, EXACT),
        ("model.fig10a_gsf_cv", "ratio", Lower, EXACT),
        (
            "model.fig12_loft_victim_throughput",
            "flits/cycle",
            Higher,
            EXACT,
        ),
        ("model.fig12_loft_victim_latency", "cycles", Lower, EXACT),
        ("model.fig12_gsf_victim_latency", "cycles", Lower, EXACT),
        (
            "model.fig13_loft_stripped_throughput",
            "flits/cycle",
            Higher,
            EXACT,
        ),
        (
            "model.fig13_gsf_stripped_throughput",
            "flits/cycle",
            Higher,
            EXACT,
        ),
    ] {
        push(name.to_string(), unit, better, exact);
    }
    out
}

/// What the paper (via EXPERIMENTS.md) reports for a fidelity metric,
/// printed beside the measured value.
pub fn paper_value(metric: &str) -> Option<&'static str> {
    Some(match metric {
        "model.max_latency_over_bound" => "<= 1 (sec. 5.3.1)",
        "model.fig11a_loft_over_gsf_throughput" => "1.4-1.6",
        "model.fig10a_loft_cv" => "0.004",
        "model.fig12_loft_victim_throughput" => "0.2",
        "model.fig12_loft_victim_latency" => "42-55",
        "model.fig12_gsf_victim_latency" => "60 -> 2000",
        "model.fig13_loft_stripped_throughput" => "tracks offered 0.64",
        "model.fig13_gsf_stripped_throughput" => "~0.13, coupled to hotspot",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()));
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name.to_string()));
        }
        let layers = per_layer();
        assert_eq!(layers.len(), 105);
        for m in &layers {
            assert!(is_name(&m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what
    /// the harness prints. They must say the same thing.
    #[test]
    fn benchmark_json_states_the_same_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();
        let s = |v: &Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "why"), want.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.name());
            assert_eq!(got.get("bound").unwrap().as_f64(), Some(want.bound));
        }
        let layers = list("per_layer");
        let want = per_layer();
        assert_eq!(layers.len(), want.len());
        for (got, want) in layers.iter().zip(&want) {
            assert_eq!(s(got, "name"), want.name);
            assert_eq!(s(got, "unit"), want.unit);
            assert_eq!(s(got, "better"), want.better.name());
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
