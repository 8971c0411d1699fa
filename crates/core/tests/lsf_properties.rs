//! Randomized invariant tests of the LSF link scheduler — chiefly
//! Theorem I of the paper: with a frame-sized buffer and
//! Condition (1), virtual credits never go negative, no matter how
//! adversarial the scheduling/return interleaving is.
//!
//! Cases are drawn from the workspace's deterministic RNG so the
//! suite needs no external crates and failures replay exactly.

use loft::lsf::{LinkScheduler, LsfParams, PendingQuantum};
use noc_sim::flit::FlowId;
use noc_sim::rng::Xoshiro256;

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Schedule a quantum for flow `i % flows`.
    Schedule(u8),
    /// Return the credit of the oldest outstanding arrival, `extra`
    /// slots after its arrival.
    ReturnOldest { extra: u8 },
    /// Advance the current slot.
    Advance,
    /// Forward the earliest pending quantum (speculative completion).
    CompleteFirst,
    /// Local reset, if permitted.
    TryReset,
}

fn random_action(rng: &mut Xoshiro256) -> Action {
    match rng.next_below(5) {
        0 => Action::Schedule(rng.next_below(8) as u8),
        1 => Action::ReturnOldest {
            extra: rng.next_below(12) as u8,
        },
        2 => Action::Advance,
        3 => Action::CompleteFirst,
        _ => Action::TryReset,
    }
}

/// A scheduler moved only by `advance_to` must, once brought to the
/// clock, be indistinguishable from the one ticked every slot.
fn assert_lazy_agrees(eager: &LinkScheduler, lazy: &LinkScheduler, flows: usize) {
    let mut lazy = lazy.clone();
    lazy.advance_to(eager.current_slot());
    assert_eq!(eager.is_pristine(), lazy.is_pristine());
    assert_eq!(eager.current_slot(), lazy.current_slot());
    assert_eq!(eager.head_frame(), lazy.head_frame());
    assert_eq!(eager.first_pending(), lazy.first_pending());
    assert_eq!(eager.min_credit(), lazy.min_credit());
    assert_eq!(eager.is_fresh(), lazy.is_fresh());
    for f in 0..flows as u32 {
        let flow = FlowId::new(f);
        assert_eq!(
            eager.remaining_reservation(flow),
            lazy.remaining_reservation(flow)
        );
        assert_eq!(eager.injection_frame(flow), lazy.injection_frame(flow));
    }
}

/// Theorem I under arbitrary interleavings, plus structural
/// invariants: booked slots are unique and inside the window — and
/// the lazy-advance differential: a second scheduler takes the same
/// actions under the network's discipline, moved only by `advance_to`
/// — before every other action, and on `Advance` only while it holds
/// pending quanta — so it goes stale, holds failed bookings and late
/// credits, and still has to agree.
#[test]
fn theorem1_and_structural_invariants() {
    let mut rng = Xoshiro256::seed_from(0x15F_0001);
    for _case in 0..64 {
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 3,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        // Keep the allocation feasible: ΣR ≤ F.
        let mut reservations: Vec<u32> = Vec::new();
        let flows = 1 + rng.next_below(5) as usize;
        let mut total = 0;
        for _ in 0..flows {
            let r = 1 + rng.next_below(5) as u32;
            if total + r > params.frame_quanta {
                break;
            }
            total += r;
            reservations.push(r);
        }
        if reservations.is_empty() {
            reservations.push(1);
        }
        let steps = 1 + rng.next_below(399) as usize;
        let mut s = LinkScheduler::new(params, &reservations);
        let mut lazy = s.clone();
        let mut outstanding: Vec<u64> = Vec::new();
        let mut tag = 0u16;
        for _ in 0..steps {
            let action = random_action(&mut rng);
            if !matches!(action, Action::Advance) {
                lazy.advance_to(s.current_slot());
            }
            match action {
                Action::Schedule(i) => {
                    let flow = FlowId::new(i as u32 % reservations.len() as u32);
                    let entry = PendingQuantum {
                        in_port: 0,
                        res_idx: tag,
                    };
                    let booked = s.schedule(flow, s.current_slot() + 1, entry);
                    assert_eq!(booked, lazy.schedule(flow, lazy.current_slot() + 1, entry));
                    if let Some(slot) = booked {
                        tag += 1;
                        assert!(slot > s.current_slot());
                        assert!(slot < s.current_slot() + params.window_quanta());
                        outstanding.push(slot);
                    }
                }
                Action::ReturnOldest { extra } => {
                    if !outstanding.is_empty() {
                        let arr = outstanding.remove(0);
                        s.return_credit(arr + 1 + extra as u64);
                        lazy.return_credit(arr + 1 + extra as u64);
                    }
                }
                Action::Advance => {
                    s.advance_slot();
                    if lazy.pending_len() > 0 {
                        lazy.advance_to(s.current_slot());
                    }
                }
                Action::CompleteFirst => {
                    if let Some((slot, _)) = s.first_pending() {
                        assert_eq!(s.complete(slot), lazy.complete(slot));
                    }
                }
                Action::TryReset => {
                    if s.can_reset() && !s.is_fresh() {
                        // A reset wipes the outstanding bookkeeping;
                        // pending is empty so nothing is lost.
                        s.local_reset();
                        lazy.local_reset();
                        outstanding.clear();
                    }
                }
            }
            assert!(s.min_credit() >= 0, "Theorem I violated");
            assert_lazy_agrees(&s, &lazy, reservations.len());
        }
    }
}

/// Per-frame quota: a single flow can never book more quanta in
/// one frame than its reservation allows (without resets).
#[test]
fn quota_respected_per_frame() {
    let mut rng = Xoshiro256::seed_from(0x15F_0002);
    for _case in 0..64 {
        let r = 1 + rng.next_below(7) as u32;
        let requests = 1 + rng.next_below(63) as usize;
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 2,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: false,
        };
        let mut s = LinkScheduler::new(params, &[r]);
        let flow = FlowId::new(0);
        let mut per_frame = std::collections::HashMap::new();
        for _ in 0..requests {
            if let Some(slot) = s.schedule(
                flow,
                0,
                PendingQuantum {
                    in_port: 0,
                    res_idx: 0,
                },
            ) {
                *per_frame.entry(slot / 8).or_insert(0u32) += 1;
            }
        }
        for (&frame, &count) in &per_frame {
            assert!(count <= r, "frame {frame} got {count} quanta with R={r}");
        }
    }
}

/// The sink variant (ejection link) serializes at one quantum per
/// slot but never rejects for credits.
#[test]
fn sink_books_every_window_slot() {
    let mut rng = Xoshiro256::seed_from(0x15F_0003);
    for _case in 0..64 {
        let r = 8 + rng.next_below(56) as u32;
        let params = LsfParams {
            frame_quanta: 8,
            frame_window: 2,
            flits_per_quantum: 1,
            buffer_quanta: 8,
            sink: true,
        };
        let mut s = LinkScheduler::new(params, &[r]);
        let flow = FlowId::new(0);
        let mut slots = std::collections::HashSet::new();
        for _ in 0..64 {
            if let Some(slot) = s.schedule(
                flow,
                0,
                PendingQuantum {
                    in_port: 0,
                    res_idx: 0,
                },
            ) {
                assert!(slots.insert(slot), "slot {slot} double-booked");
            }
        }
        // It can never book more than the window minus the current
        // slot, and with r ≥ 8 it books at least one frame's worth.
        assert!(slots.len() >= (r.min(8) as usize));
    }
}
