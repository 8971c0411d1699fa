//! Per-router storage requirements (the paper's Table 2).
//!
//! Assumptions, chosen to match the paper's accounting where it can
//! be reverse-engineered from the published totals:
//!
//! * only the four network ports are counted (the local port's
//!   buffering belongs to the NIC),
//! * GSF additionally needs a frame-sized source queue per node
//!   (2000 flits × 128 bits = 256 kbit — the dominant term),
//! * LOFT's speculative buffer is counted at its maximum swept size
//!   (16 flits),
//! * data flits are 128 bits, look-ahead flits 64 bits wide.

use loft::LoftConfig;
use noc_gsf::GsfConfig;

/// Width of a data flit in bits (Table 1).
pub const DATA_FLIT_BITS: u64 = 128;
/// Width of a look-ahead flit in bits (Table 1).
pub const LA_FLIT_BITS: u64 = 64;
/// Network ports counted per router (N/E/S/W).
pub const NET_PORTS: u64 = 4;
/// Look-ahead flits buffered per look-ahead router output port
/// (Table 1: 3 VCs × 4 flits).
pub const LA_QUEUE_FLITS: u64 = 3 * 4;

/// Bits needed to count `0..=n`.
pub fn bits_for(n: u64) -> u64 {
    (64 - n.leading_zeros() as u64).max(1)
}

/// GSF per-router storage breakdown, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GsfStorage {
    /// The frame-sized source queue (per node).
    pub source_queue: u64,
    /// Virtual-channel buffers over the network ports.
    pub vc_buffers: u64,
    /// Frame bookkeeping: per-flow quota counters and frame pointers.
    pub bookkeeping: u64,
}

impl GsfStorage {
    /// Total bits per router.
    pub fn total(&self) -> u64 {
        self.source_queue + self.vc_buffers + self.bookkeeping
    }
}

/// Computes GSF's per-router storage from its configuration.
pub fn gsf_router_bits(cfg: &GsfConfig) -> GsfStorage {
    let source_queue = cfg.frame_size as u64 * DATA_FLIT_BITS;
    let vc_buffers = NET_PORTS * cfg.num_vcs as u64 * cfg.vc_capacity as u64 * DATA_FLIT_BITS;
    // Per-flow injection state at the source: inject frame pointer
    // (window-relative) + remaining quota; plus the head-frame
    // counter. 64 flows as in Table 1.
    let flows = 64u64;
    let quota_bits = bits_for(cfg.frame_size as u64);
    let frame_bits = bits_for(cfg.frame_window as u64);
    let bookkeeping = flows * (quota_bits + frame_bits) + bits_for(cfg.frame_window as u64);
    GsfStorage {
        source_queue,
        vc_buffers,
        bookkeeping,
    }
}

/// LOFT per-router storage breakdown, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoftStorage {
    /// Central (non-speculative) + speculative input buffers.
    pub input_buffers: u64,
    /// Output + input reservation tables.
    pub reservation_tables: u64,
    /// Per-flow LSF state (`IF`, `C`, `R`) + `HF`/`CP` pointers +
    /// `skipped` counters.
    pub flow_state: u64,
    /// Look-ahead network buffering.
    pub lookahead: u64,
}

impl LoftStorage {
    /// Total bits per router.
    pub fn total(&self) -> u64 {
        self.input_buffers + self.reservation_tables + self.flow_state + self.lookahead
    }
}

/// Computes LOFT's per-router storage from its configuration, with
/// the speculative buffer at `spec_flits_counted` (the paper counts
/// the maximum swept size, 16).
pub fn loft_router_bits_with_spec(cfg: &LoftConfig, spec_flits_counted: u64) -> LoftStorage {
    let input_buffers =
        NET_PORTS * (cfg.nonspec_buffer as u64 + spec_flits_counted) * DATA_FLIT_BITS;
    let table_entries = cfg.window_quanta() as u64;
    // Output entry: busy flag + virtual credit counter.
    let out_entry = 1 + bits_for(cfg.nonspec_quanta() as u64);
    // Input entry: flow number (64 flows), quantum number, buffer
    // pointer, output port, valid flag, switch-time slot.
    let in_entry = bits_for(63)
        + 10
        + bits_for(cfg.nonspec_quanta() as u64)
        + 3
        + 1
        + bits_for(table_entries - 1);
    let reservation_tables = NET_PORTS * table_entries * (out_entry + in_entry);
    // Per output port: 64 flows × (IF, C, R) + HF + CP + skipped.
    let flows = 64u64;
    let c_bits = bits_for(cfg.frame_size as u64);
    let if_bits = bits_for(cfg.frame_window as u64);
    let per_port = flows * (if_bits + 2 * c_bits)
        + bits_for(cfg.frame_window as u64)
        + bits_for(table_entries - 1)
        + cfg.frame_window as u64 * bits_for(cfg.frame_quanta() as u64);
    let flow_state = NET_PORTS * per_port;
    // Look-ahead network: Table 1's 3 VCs × 4 flits of 64-bit
    // look-ahead flits per port (`LA_QUEUE_FLITS`). The paper's total
    // (1536) counts two ports' worth; we count all four network ports
    // and note the difference in EXPERIMENTS.md.
    let lookahead = NET_PORTS * LA_QUEUE_FLITS * LA_FLIT_BITS;
    LoftStorage {
        input_buffers,
        reservation_tables,
        flow_state,
        lookahead,
    }
}

/// [`loft_router_bits_with_spec`] with the paper's 16-flit maximum.
pub fn loft_router_bits(cfg: &LoftConfig) -> LoftStorage {
    loft_router_bits_with_spec(cfg, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_counts() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(63), 6);
        assert_eq!(bits_for(64), 7);
        assert_eq!(bits_for(2000), 11);
        assert_eq!(bits_for(255), 8);
    }

    #[test]
    fn gsf_source_queue_matches_paper() {
        let s = gsf_router_bits(&GsfConfig::default());
        assert_eq!(s.source_queue, 256_000); // paper's exact number
        assert_eq!(s.vc_buffers, 15_360); // paper's exact number
                                          // Total within 2% of the paper's 271379 (bookkeeping details
                                          // differ slightly).
        let total = s.total() as f64;
        assert!(
            (total - 271_379.0).abs() / 271_379.0 < 0.02,
            "total {total}"
        );
    }

    #[test]
    fn loft_input_buffers_match_paper() {
        let s = loft_router_bits(&LoftConfig::default());
        assert_eq!(s.input_buffers, 139_264); // paper's exact number
                                              // Reservation tables within 25% of the paper's 40960 (entry
                                              // encodings are not fully specified).
        let rt = s.reservation_tables as f64;
        assert!((rt - 40_960.0).abs() / 40_960.0 < 0.25, "tables {rt}");
    }

    #[test]
    fn headline_loft_saves_about_a_third() {
        let gsf = gsf_router_bits(&GsfConfig::default()).total() as f64;
        let loft = loft_router_bits(&LoftConfig::default()).total() as f64;
        let saving = 1.0 - loft / gsf;
        // Paper: "LOFT uses 32% less storage than GSF".
        assert!((0.20..0.45).contains(&saving), "saving {saving}");
    }

    #[test]
    fn smaller_spec_buffer_reduces_storage() {
        let cfg = LoftConfig::default();
        let big = loft_router_bits_with_spec(&cfg, 16).total();
        let small = loft_router_bits_with_spec(&cfg, 0).total();
        assert!(small < big);
        assert_eq!(big - small, NET_PORTS * 16 * DATA_FLIT_BITS);
    }

    #[test]
    fn lookahead_buffers_are_table1_queues_on_every_network_port() {
        // Table 1: 3 VCs × 4 look-ahead flits per port.
        assert_eq!(LA_QUEUE_FLITS, 12);
        let s = loft_router_bits(&LoftConfig::default());
        assert_eq!(s.lookahead, NET_PORTS * LA_QUEUE_FLITS * LA_FLIT_BITS);
        // The paper's 1536 bits count two ports' worth.
        assert_eq!(s.lookahead, 2 * 1536);
    }
}
