//! Global frame-window accounting: quotas, frame liveness, and the
//! barrier-based window shift.
//!
//! This is the *source framing* half of GSF, independent of the router
//! datapath: which frame a packet may inject into (consuming its
//! flow's per-frame quota), how many flits of each frame are still
//! alive anywhere in the network, and when the barrier network may
//! retire the head frame. The router-side policy in
//! [`crate::network`] consumes this through a handful of calls.

use noc_sim::flit::FlowId;

/// Per-flow GSF injection state (quota tracking).
#[derive(Debug, Clone)]
struct FlowInj {
    reservation: u32,
    inject_frame: u64,
    remaining: u32,
}

/// The global frame window: per-flow quotas, per-frame flit liveness,
/// and the barrier that slides the window.
///
/// The head frame retires only when **no flit tagged with it remains
/// anywhere** — in routers *or in source queues*. This is the global
/// coupling the LOFT paper criticizes: one congested region holds the
/// window for every node.
#[derive(Debug, Clone)]
pub struct Framing {
    flows: Vec<FlowInj>,
    frame_window: u64,
    barrier_delay: u64,
    /// Flits alive (tagged and not yet ejected) per frame, as a ring
    /// of `frame_window` counters indexed by `frame % frame_window`:
    /// claims land only in `[head, head + window)` and a frame drains
    /// to zero before its slot is reused, so the ring is exact. The
    /// head frame can only be recycled once its counter reaches zero
    /// — including flits still waiting in source queues.
    frame_alive: Vec<u32>,
    head_frame: u64,
    barrier_due: Option<u64>,
    /// Number of completed window shifts (for tests/diagnostics).
    recycles: u64,
}

impl Framing {
    /// Builds the window for flows with the given per-frame
    /// reservations (flits per frame, indexed by flow id).
    ///
    /// # Panics
    ///
    /// Panics if any reservation is zero or exceeds the frame size.
    pub fn new(
        reservations: &[u32],
        frame_size: u32,
        frame_window: u32,
        barrier_delay: u64,
    ) -> Self {
        let flows = reservations
            .iter()
            .map(|&r| {
                assert!(r > 0, "reservations must be positive");
                assert!(r <= frame_size, "reservation exceeds frame size");
                FlowInj {
                    reservation: r,
                    inject_frame: 0,
                    remaining: r,
                }
            })
            .collect();
        Framing {
            flows,
            frame_window: frame_window as u64,
            barrier_delay,
            frame_alive: vec![0; frame_window as usize],
            head_frame: 0,
            barrier_due: None,
            recycles: 0,
        }
    }

    /// Number of configured flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current head (oldest active) frame number.
    pub fn head_frame(&self) -> u64 {
        self.head_frame
    }

    /// Completed global window shifts so far.
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Picks the frame for the next packet of `flow`, consuming quota
    /// and registering `len` flits as alive in that frame. Returns
    /// `None` when every active frame is exhausted (stall).
    pub fn claim(&mut self, flow: FlowId, len: u16) -> Option<u64> {
        let head = self.head_frame;
        let window = self.frame_window;
        // While the barrier is in flight the head frame is closed.
        let earliest = if self.barrier_due.is_some() {
            head + 1
        } else {
            head
        };
        let st = &mut self.flows[flow.index()];
        if st.inject_frame < earliest {
            st.inject_frame = earliest;
            st.remaining = st.reservation;
        }
        loop {
            // A reservation smaller than one packet would deadlock the
            // flow; allow a full-quota frame to emit one packet anyway.
            // With a one-frame window and the barrier in flight, no
            // frame is open at all.
            let fits = st.remaining >= len as u32
                || (st.remaining == st.reservation && st.reservation < len as u32);
            let fits = fits && st.inject_frame < head + window;
            if fits {
                st.remaining = st.remaining.saturating_sub(len as u32);
                let frame = st.inject_frame;
                debug_assert!(
                    (head..head + window).contains(&frame),
                    "claim outside the active window"
                );
                self.frame_alive[(frame % window) as usize] += len as u32;
                return Some(frame);
            }
            if st.inject_frame + 1 < head + window {
                st.inject_frame += 1;
                st.remaining = st.reservation;
            } else {
                return None;
            }
        }
    }

    /// One flit of `frame` was ejected at its destination.
    pub fn on_flit_ejected(&mut self, frame: u64) {
        let count = &mut self.frame_alive[(frame % self.frame_window) as usize];
        debug_assert!(*count > 0, "ejected flit was counted");
        *count -= 1;
    }

    /// Barrier-based global frame recycling: called once per cycle.
    /// Returns `true` when the window just shifted (callers retag any
    /// untagged backlog against the fresh frame).
    pub fn recycle(&mut self, now: u64) -> bool {
        match self.barrier_due {
            Some(due) => {
                if now >= due {
                    self.head_frame += 1;
                    self.recycles += 1;
                    self.barrier_due = None;
                    return true;
                }
            }
            None => {
                let head_empty =
                    self.frame_alive[(self.head_frame % self.frame_window) as usize] == 0;
                if head_empty {
                    self.barrier_due = Some(now + self.barrier_delay);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_spans_the_window_then_stalls() {
        // 4 flits/frame, window 3: three 4-flit packets fit, then stall.
        let mut f = Framing::new(&[4], 100, 3, 16);
        assert_eq!(f.claim(FlowId::new(0), 4), Some(0));
        assert_eq!(f.claim(FlowId::new(0), 4), Some(1));
        assert_eq!(f.claim(FlowId::new(0), 4), Some(2));
        assert_eq!(f.claim(FlowId::new(0), 4), None);
    }

    #[test]
    fn undersized_reservation_still_emits_one_packet_per_frame() {
        let mut f = Framing::new(&[2], 100, 2, 16);
        assert_eq!(f.claim(FlowId::new(0), 4), Some(0));
        assert_eq!(f.claim(FlowId::new(0), 4), Some(1));
        assert_eq!(f.claim(FlowId::new(0), 4), None);
    }

    #[test]
    fn barrier_waits_then_shifts() {
        let mut f = Framing::new(&[4], 100, 3, 10);
        // Nothing alive: cycle 0 arms the barrier, due at 10.
        assert!(!f.recycle(0));
        assert!(!f.recycle(9));
        assert!(f.recycle(10));
        assert_eq!(f.head_frame(), 1);
        assert_eq!(f.recycles(), 1);
    }

    #[test]
    fn live_flits_hold_the_head_frame() {
        let mut f = Framing::new(&[4], 100, 3, 1);
        assert_eq!(f.claim(FlowId::new(0), 4), Some(0));
        for now in 0..50 {
            assert!(!f.recycle(now), "head frame retired while flits live");
        }
        for _ in 0..4 {
            f.on_flit_ejected(0);
        }
        assert!(!f.recycle(50)); // arms the barrier
        assert!(f.recycle(51));
    }

    #[test]
    fn head_frame_closed_while_barrier_in_flight() {
        // New claims skip the closing head frame; a one-frame window
        // has no other frame to give.
        for (window, frame) in [(3, Some(1)), (1, None)] {
            let mut f = Framing::new(&[4], 100, window, 10);
            assert!(!f.recycle(0)); // barrier armed
            assert_eq!(f.claim(FlowId::new(0), 4), frame);
        }
    }

    #[test]
    #[should_panic(expected = "reservations must be positive")]
    fn zero_reservation_rejected() {
        let _ = Framing::new(&[0], 100, 3, 16);
    }

    #[test]
    #[should_panic(expected = "reservation exceeds frame size")]
    fn oversized_reservation_rejected() {
        let _ = Framing::new(&[200], 100, 3, 16);
    }
}
