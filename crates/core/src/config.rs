//! Configuration of the LOFT network.

use noc_sim::fabric::MAX_PARAM;
use noc_sim::topology::Topology;
use noc_sim::ConfigError;

use crate::port::ResIdx;

/// Parameters of a [`crate::LoftNetwork`].
///
/// Defaults follow Table 1 of the paper:
///
/// * frame size `F` = 256 flits, frame window `WF` = 2,
/// * data flits are moved as 2-flit *quanta* (one look-ahead flit per
///   quantum), so the output reservation tables hold
///   `F/2 × WF = 256` quantum slots,
/// * the central (non-speculative) input buffer is as deep as one
///   frame (256 flits), which eliminates the output scheduling
///   anomaly (Theorem I of the paper),
/// * the speculative buffer is 0–16 flits (the paper sweeps this),
/// * both the look-ahead and the data routers have 3 pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoftConfig {
    /// Topology to build; fixes the routing (dimension-order XY).
    pub topo: Topology,
    /// Frame size `F` in flits.
    pub frame_size: u32,
    /// Frame window `WF` (number of frames in flight per link).
    pub frame_window: u32,
    /// Flits per data quantum (each look-ahead flit schedules one
    /// quantum in its entirety).
    pub flits_per_quantum: u32,
    /// Depth of the central non-speculative buffer per input port, in
    /// flits. Must be at least `frame_size` for the paper's
    /// anomaly-freedom guarantee.
    pub nonspec_buffer: u32,
    /// Depth of the speculative buffer per input port, in flits
    /// (0 disables all Section 4.3 optimizations).
    pub spec_buffer: u32,
    /// Cycles for a data quantum to go from switch traversal at one
    /// router to buffer availability at the next.
    pub hop_latency: u64,
    /// Cycles per hop on the look-ahead network (3-stage router).
    pub la_hop_latency: u64,
    /// Bounds two things:
    /// * the look-ahead flits a single flow may have in flight in the
    ///   look-ahead network (its virtual-channel window), which bounds
    ///   per-flow pile-up at contended schedulers and throttles the
    ///   source;
    /// * the data quanta a node may have staged for injection into its
    ///   router: while that many wait, none of the node's flows
    ///   launches a look-ahead flit.
    ///
    /// With one flow per node, as under uniform traffic, both bound
    /// the same flow.
    pub la_flow_window: u32,
    /// Enable speculative flit switching (Section 4.3.1).
    pub speculative_switching: bool,
    /// Enable local status reset (Section 4.3.2).
    pub local_status_reset: bool,
    /// Accepted and ignored: the network steps on one thread; see
    /// `noc_sim::fabric::VcParams::threads`.
    pub threads: usize,
}

impl LoftConfig {
    /// The default configuration on a custom topology.
    pub fn on(topo: Topology) -> Self {
        LoftConfig {
            topo,
            ..Self::default()
        }
    }

    /// The paper's configuration with a given speculative buffer size
    /// in flits (`spec=N` in Figure 11). `spec = 0` also turns off
    /// speculative switching and local status reset, matching the
    /// paper's statement that "setting the speculative buffer size to
    /// 0 is equivalent to turning off all optimizations".
    pub fn with_spec_buffer(spec_flits: u32) -> Self {
        LoftConfig {
            spec_buffer: spec_flits,
            speculative_switching: spec_flits > 0,
            local_status_reset: spec_flits > 0,
            ..Self::default()
        }
    }

    /// A scaled-down configuration for fast tests (4×4 mesh, 64-flit
    /// frames).
    pub fn small() -> Self {
        LoftConfig {
            topo: Topology::mesh(4, 4),
            frame_size: 64,
            nonspec_buffer: 64,
            ..Self::default()
        }
    }

    /// Frame size in quantum slots.
    pub fn frame_quanta(&self) -> u32 {
        self.frame_size / self.flits_per_quantum
    }

    /// Reservation-table size: quantum slots in the whole time window
    /// (`F × WF / flits_per_quantum`; 256 with Table 1 values).
    pub fn window_quanta(&self) -> u32 {
        self.frame_quanta() * self.frame_window
    }

    /// Non-speculative buffer capacity in quanta.
    pub fn nonspec_quanta(&self) -> u32 {
        self.nonspec_buffer / self.flits_per_quantum
    }

    /// Speculative buffer capacity in quanta.
    pub fn spec_quanta(&self) -> u32 {
        self.spec_buffer / self.flits_per_quantum
    }

    /// Slots between a quantum's departure at one router and the
    /// earliest slot it can depart the next router.
    pub fn dep_offset(&self) -> u64 {
        self.hop_latency / self.flits_per_quantum as u64 + 1
    }

    /// Bound on the entries of one input port's reservation store,
    /// which [`LoftConfig::validate`] holds to the 16-bit entry index.
    /// An entry lives from the send of its look-ahead flit to the
    /// forward of its data quantum, so a port holds at most the
    /// upstream link's in-window bookings, look-ahead flits and data
    /// quanta in flight to it, its buffered quanta, and (for the local
    /// port) the staged backlog — plus slack. The store itself starts
    /// empty and grows only as far as the traffic takes it. Saturates
    /// instead of overflowing, so `validate` can reject absurd values.
    pub(crate) fn reservation_store_capacity(&self) -> u64 {
        [
            u64::from(self.frame_quanta()) * u64::from(self.frame_window),
            self.dep_offset(),
            1,
            u64::from(self.nonspec_quanta()),
            u64::from(self.spec_quanta()),
            u64::from(self.la_flow_window),
            self.la_hop_latency,
        ]
        .into_iter()
        .fold(0, u64::saturating_add)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Fails unless the frame size is a positive multiple of a
    /// non-empty quantum, the window is non-empty, the
    /// non-speculative buffer covers a full frame (a smaller one would
    /// reintroduce the output scheduling anomaly), the speculative
    /// buffer is a whole number of quanta, hops on both planes take
    /// between one and [`MAX_PARAM`] cycles, a flow may have a
    /// look-ahead in flight (with a zero window nothing would ever
    /// launch), and the reservation store bound fits its 16-bit entry
    /// index.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let checks = [
            (self.flits_per_quantum > 0, "quantum must hold flits"),
            (
                self.frame_size > 0 && self.frame_size.is_multiple_of(self.flits_per_quantum),
                "frame size must be a positive multiple of the quantum size",
            ),
            (self.frame_window > 0, "frame window must be positive"),
            (
                self.nonspec_buffer >= self.frame_size,
                "non-speculative buffer must cover a full frame (Theorem I)",
            ),
            (
                self.spec_buffer.is_multiple_of(self.flits_per_quantum),
                "speculative buffer must be a multiple of the quantum size",
            ),
            (
                [self.hop_latency, self.la_hop_latency]
                    .iter()
                    .all(|hop| (1..=MAX_PARAM).contains(hop)),
                "hops take between 1 and MAX_PARAM cycles",
            ),
            (
                self.la_flow_window >= 1,
                "look-ahead flow window must be positive",
            ),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, msg)) => Err(ConfigError::new(*msg)),
            // Checked last: the bound divides by the quantum size.
            None if self.reservation_store_capacity() > u64::from(ResIdx::MAX) => Err(
                ConfigError::new("reservation store outgrows its 16-bit entry index"),
            ),
            None => Ok(()),
        }
    }
}

impl Default for LoftConfig {
    fn default() -> Self {
        LoftConfig {
            topo: Topology::mesh(8, 8),
            frame_size: 256,
            frame_window: 2,
            flits_per_quantum: 2,
            nonspec_buffer: 256,
            spec_buffer: 12,
            hop_latency: 3,
            la_hop_latency: 3,
            la_flow_window: 16,
            speculative_switching: true,
            local_status_reset: true,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = LoftConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.frame_size, 256);
        assert_eq!(c.frame_window, 2);
        assert_eq!(c.frame_quanta(), 128);
        assert_eq!(c.window_quanta(), 256); // reservation table size
        assert_eq!(c.nonspec_quanta(), 128);
        assert_eq!(c.spec_quanta(), 6); // 12 flits
    }

    #[test]
    fn spec_zero_disables_optimizations() {
        let c = LoftConfig::with_spec_buffer(0);
        assert_eq!(c.validate(), Ok(()));
        assert!(!c.speculative_switching);
        assert!(!c.local_status_reset);
        let c = LoftConfig::with_spec_buffer(8);
        assert!(c.speculative_switching);
        assert!(c.local_status_reset);
    }

    /// `dep_offset` is `hop_latency / flits_per_quantum + 1` (integer
    /// division), which is not a ceiling when `hop_latency` is a
    /// multiple of the quantum: 4 flits of latency give 3 slots.
    #[test]
    fn dep_offset_is_hop_latency_over_quantum_plus_one() {
        for (hop_latency, slots) in [(1, 1), (3, 2), (4, 3)] {
            let c = LoftConfig {
                hop_latency,
                ..LoftConfig::default()
            };
            assert_eq!(c.flits_per_quantum, 2);
            assert_eq!(c.dep_offset(), slots, "hop_latency {hop_latency}");
        }
        assert_eq!(LoftConfig::default().hop_latency, 3);
    }

    #[test]
    fn small_nonspec_buffer_rejected() {
        let err = LoftConfig {
            nonspec_buffer: 128,
            ..LoftConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.message().contains("Theorem I"), "{err}");
    }
}
