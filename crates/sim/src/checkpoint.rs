//! Checkpoint/fork: run warmup once, measure many times.
//!
//! A [`Checkpoint`] is a simulation frozen at its warmup/measurement
//! boundary with *everything* observable captured — the network (slab,
//! wires, credits, schedulers), the traffic source
//! (per-flow RNG streams and their `ticked_until`/`pending` scan
//! caches), the statistics collector, and both engine clocks. Because
//! the engine loop is stop/resume-exact (see `EngineState::drive`),
//! resuming a checkpoint — or any number of [`Checkpoint::fork`]
//! clones of it — produces results bit-identical to a from-scratch
//! run with the same settings: same `SimReport`, same telemetry, same
//! `end_cycle`.
//!
//! That turns the expensive part of an experiment matrix — warmup —
//! into a shared prefix: one warmup per (network, topology, traffic,
//! load, seed) base point, then a cheap fork per measurement variant
//! (horizon extensions for saturation probing via
//! [`Checkpoint::with_measure`], repeated timing iterations). The
//! golden-determinism and equivalence suites and the `sweep` runner
//! in `loft-bench` are all built on this.
//!
//! # Why forks are bit-identical
//!
//! * Every piece of run state is owned data with a structural
//!   `Clone`: the packet slab, wire/credit FIFOs, worklists, policy
//!   state, RNGs, probes, and collectors contain no interior
//!   mutability and no references into shared state.
//! * The engine loop checks the warmup boundary before doing any
//!   cycle work, so stopping at `cycle == warmup` and resuming later
//!   replays the exact instruction sequence of an uninterrupted run.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::engine::{EngineState, Network, RunConfig, RunInfo, Simulation, TrafficSource};
use crate::stats::SimReport;

/// A buffer whose `Clone` preserves the allocated *capacity*, not
/// just the contents; it derefs to the buffer for everything else.
///
/// `Vec::clone` allocates exactly `len` elements, so a derived clone
/// of a buffer that construction pre-sized (VC buffers, slot stores)
/// silently re-pays its growth allocations the next time it fills —
/// which for a forked simulation means the resumed steady state
/// allocates where a from-scratch run would not. Hot
/// buffers are typed [`CapVec`] or [`CapDeque`], so a derived `Clone`
/// on the owning struct inherits the original's high-water capacity
/// and the `allocs_per_cycle` gate holds on forked runs.
#[derive(Default)]
pub struct Cap<B>(pub B);

/// A `Vec` with a capacity-preserving `Clone` (see [`Cap`]).
pub type CapVec<T> = Cap<Vec<T>>;

/// A `VecDeque` with a capacity-preserving `Clone` (see [`Cap`]).
pub type CapDeque<T> = Cap<VecDeque<T>>;

impl<T: Clone> Clone for CapVec<T> {
    fn clone(&self) -> Self {
        let mut out = Vec::with_capacity(self.capacity());
        out.extend_from_slice(self);
        Cap(out)
    }
}

impl<T: Clone> Clone for CapDeque<T> {
    fn clone(&self) -> Self {
        let mut out = VecDeque::with_capacity(self.capacity());
        out.extend(self.iter().cloned());
        Cap(out)
    }
}

impl<B> Deref for Cap<B> {
    type Target = B;
    fn deref(&self) -> &B {
        &self.0
    }
}

impl<B> DerefMut for Cap<B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.0
    }
}

impl<B: fmt::Debug> fmt::Debug for Cap<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A simulation frozen at the warmup/measurement boundary.
///
/// Created by [`Simulation::run_to_checkpoint`]; resumed (consumed)
/// by [`Checkpoint::resume`]. [`Checkpoint::fork`] clones the whole
/// state so one warmup can feed many measurement runs.
#[derive(Debug, Clone)]
pub struct Checkpoint<N, T> {
    state: EngineState<N, T>,
}

impl<N: Network, T: TrafficSource> Checkpoint<N, T> {
    /// Runs `sim` to its warmup boundary and freezes it.
    pub(crate) fn capture(sim: Simulation<N, T>) -> Self {
        let mut state = sim.into_engine_state();
        let warmup = state.config.warmup;
        state.drive(warmup, &mut || {});
        debug_assert_eq!(state.cycle, warmup, "warmup stopped short");
        Checkpoint { state }
    }

    /// The cycle the checkpoint is frozen at (the configured warmup).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// The run configuration the resumed run will use.
    #[must_use]
    pub fn config(&self) -> RunConfig {
        self.state.config
    }

    /// A deep copy: an independent simulation in the identical state.
    /// Forking consumes no randomness and advances no clock — the
    /// original and every fork resume from exactly this cycle.
    #[must_use]
    pub fn fork(&self) -> Self
    where
        N: Clone,
        T: Clone,
    {
        self.clone()
    }

    /// Enables or disables quiescence fast-forward for the resumed
    /// run (bit-identical either way; see [`Simulation::run_full`]).
    /// Cycles already skipped during warmup remain counted in the
    /// final [`RunInfo`].
    #[must_use]
    pub fn with_fast_forward(mut self, enabled: bool) -> Self {
        self.state.fast_forward = enabled;
        self
    }

    /// Retargets the measurement window to `measure` cycles — the
    /// horizon-extension knob for adaptive saturation probing: fork a
    /// warmed-up base point and re-measure over a doubled window
    /// without re-running the prefix.
    ///
    /// Sound because the checkpoint sits at the warmup boundary:
    /// nothing recorded so far depends on the window length (warmup
    /// events fall outside any window), so the resumed run is
    /// bit-identical to a from-scratch run configured with the new
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is past its warmup boundary (cannot
    /// happen for checkpoints from [`Simulation::run_to_checkpoint`]).
    #[must_use]
    pub fn with_measure(mut self, measure: u64) -> Self {
        assert!(
            self.state.cycle <= self.state.config.warmup,
            "measurement window can only be retargeted at the warmup boundary"
        );
        self.state.config.measure = measure;
        self.state.stats.set_measure(measure);
        self
    }

    /// Resumes the run to completion: measurement + drain, returning
    /// exactly what [`Simulation::run_full`] would for an
    /// uninterrupted run with the same settings. The checkpoint sits
    /// *at* the warmup/measurement boundary, so whatever a
    /// straight-through run does in its `after_warmup` hook, a caller
    /// does right before this call.
    #[must_use]
    pub fn resume(mut self) -> (SimReport, N, RunInfo) {
        self.state.drive(u64::MAX, &mut || {});
        self.state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_doubles::{DelayLine, Periodic};

    fn sim(run: RunConfig, ff: bool) -> Simulation<DelayLine, Periodic> {
        Simulation::new(DelayLine::default(), Periodic { period: 20, seq: 0 }, run)
            .with_fast_forward(ff)
    }

    const RUN: RunConfig = RunConfig {
        warmup: 100,
        measure: 1_000,
        drain: 100,
    };

    #[test]
    fn cap_buffers_clone_their_capacity() {
        let v: CapVec<u8> = Cap(Vec::with_capacity(64));
        let d: CapDeque<u8> = Cap(VecDeque::with_capacity(64));
        assert!(v.clone().capacity() >= 64 && d.clone().capacity() >= 64);
    }

    #[test]
    fn checkpoint_sits_at_the_warmup_boundary() {
        let ckpt = sim(RUN, false).run_to_checkpoint();
        assert_eq!(ckpt.cycle(), RUN.warmup);
        assert_eq!(ckpt.config(), RUN);
    }

    #[test]
    fn resumed_run_matches_straight_run_exactly() {
        for ff in [false, true] {
            let straight = sim(RUN, ff).run_full(|| {});
            let resumed = sim(RUN, ff).run_to_checkpoint().resume();
            assert_eq!(straight.0, resumed.0, "report drifted (ff={ff})");
            assert_eq!(straight.2, resumed.2, "run info drifted (ff={ff})");
        }
    }

    #[test]
    fn forks_are_independent_and_identical() {
        let ckpt = sim(RUN, true).run_to_checkpoint();
        let a = ckpt.fork().resume();
        let b = ckpt.fork().resume();
        // The original is untouched by forking and still resumable.
        let c = ckpt.resume();
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, c.0);
        assert_eq!(a.2, c.2);
    }

    #[test]
    fn with_measure_matches_from_scratch_extended_run() {
        let doubled = RunConfig {
            measure: RUN.measure * 2,
            ..RUN
        };
        let straight = sim(doubled, true).run_full(|| {});
        let extended = sim(RUN, true)
            .run_to_checkpoint()
            .with_measure(RUN.measure * 2)
            .resume();
        assert_eq!(straight.0, extended.0);
        assert_eq!(straight.2, extended.2);
    }

    #[test]
    fn with_fast_forward_leg_matches_stepped_run() {
        let ckpt = sim(RUN, true).run_to_checkpoint();
        let warm_skip = {
            // Warmup under ff accumulates skips before the fork.
            let (_, _, info) = ckpt.fork().resume();
            assert!(info.skipped_cycles > 0);
            info
        };
        let (report, _, info) = ckpt.with_fast_forward(false).resume();
        let (stepped, _, stepped_info) = sim(RUN, false).run_full(|| {});
        assert_eq!(report, stepped);
        assert_eq!(info.end_cycle, stepped_info.end_cycle);
        // The ff-off leg keeps only the warmup-phase skips; the ff-on
        // leg kept skipping through the measurement window.
        assert!(info.skipped_cycles < warm_skip.skipped_cycles);
    }

    #[test]
    fn zero_warmup_checkpoint_resumes_cleanly() {
        let run = RunConfig {
            warmup: 0,
            measure: 200,
            drain: 100,
        };
        let straight = sim(run, true).run_full(|| {});
        let resumed = sim(run, true).run_to_checkpoint().resume();
        assert_eq!(straight.0, resumed.0);
        assert_eq!(straight.2, resumed.2);
    }
}
