//! One factory for every stream profiler: [`ProfileMode::profiler`] turns
//! a mode, a tracker and an optional memory budget into the
//! [`ModeProfiler`] the suite runner, `vprof replay` and `vprof serve`
//! all drive. Live runs stay monomorphic: [`ModeProfiler::run`] matches
//! on the mode once per run, never inside the per-event hooks.

use vp_asm::Program;
use vp_core::{
    track::TrackerConfig, AdaptiveProfiler, ConvergentConfig, ConvergentProfiler, EntityMetrics,
    GovernorStats, InstructionProfiler, MemBudget, PhaseBudget, PhaseStats, SampleStrategy,
    SampledProfiler, StreamProfiler,
};
use vp_instrument::{InstrumentedRun, Instrumenter};
use vp_obs::{Counts, TnvEvents};
use vp_sim::{MachineConfig, SimError};

/// Which profiler the runner attaches to each workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileMode {
    /// Full profiling: every selected execution observed
    /// ([`InstructionProfiler`]).
    Full,
    /// The paper's convergent profiler (bursts with adaptive back-off).
    Convergent(ConvergentConfig),
    /// The convergent profiler with phase detection armed: converged
    /// instructions re-arm when their value distribution shifts, under
    /// the bounded [`PhaseBudget`] ([`AdaptiveProfiler`]).
    Adaptive(ConvergentConfig, PhaseBudget),
    /// The CPI-style sampling baseline.
    Sampled(SampleStrategy),
}

impl ProfileMode {
    /// The mode as commands, errors and telemetry spell it.
    pub fn name(&self) -> &'static str {
        match self {
            ProfileMode::Full => "full",
            ProfileMode::Convergent(_) => "convergent",
            ProfileMode::Adaptive(..) => "adaptive",
            ProfileMode::Sampled(_) => "sampled",
        }
    }

    /// The tracker the commands pair with this mode: exact ground truth
    /// ([`TrackerConfig::with_full`]) for full and sampled profiling, the
    /// constant-space default for the convergent modes.
    pub fn default_tracker(&self) -> TrackerConfig {
        match self {
            ProfileMode::Full | ProfileMode::Sampled(_) => TrackerConfig::with_full(),
            ProfileMode::Convergent(_) | ProfileMode::Adaptive(..) => TrackerConfig::default(),
        }
    }

    /// Builds this mode's profiler. `mem_budget` governs the full
    /// profiler; the other modes run in constant space per entity.
    pub fn profiler(self, tracker: TrackerConfig, mem_budget: Option<MemBudget>) -> ModeProfiler {
        match self {
            ProfileMode::Full => ModeProfiler::Full(match mem_budget {
                Some(budget) => InstructionProfiler::with_budget(tracker, budget),
                None => InstructionProfiler::new(tracker),
            }),
            ProfileMode::Convergent(config) => {
                ModeProfiler::Convergent(ConvergentProfiler::new(tracker, config))
            }
            ProfileMode::Adaptive(config, budget) => {
                ModeProfiler::Adaptive(AdaptiveProfiler::new(tracker, config, budget))
            }
            ProfileMode::Sampled(strategy) => {
                ModeProfiler::Sampled(SampledProfiler::new(tracker, strategy))
            }
        }
    }

    /// Profiles `events` entity-sharded across `shards` workers
    /// ([`vp_core::profile_sharded`]). One profiler exists per partition,
    /// so a budget splits by the partition count: the summed caps stay
    /// within the whole budget, and the merged governor stats are the
    /// summed partition stats.
    pub fn profile_sharded(
        self,
        events: &[(u32, u64)],
        shards: usize,
        tracker: TrackerConfig,
        mem_budget: Option<MemBudget>,
    ) -> ModeProfiler {
        let split = mem_budget.map(|b| b.split(vp_core::partition_count(shards)));
        vp_core::profile_sharded(events, shards, || self.profiler(tracker, split))
    }
}

/// A profiler built by [`ProfileMode::profiler`].
#[derive(Debug)]
pub enum ModeProfiler {
    Full(InstructionProfiler),
    Convergent(ConvergentProfiler),
    Adaptive(AdaptiveProfiler),
    Sampled(SampledProfiler),
}

/// Evaluates `$body` with `$p` bound to the concrete profiler.
macro_rules! each {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            ModeProfiler::Full($p) => $body,
            ModeProfiler::Convergent($p) => $body,
            ModeProfiler::Adaptive($p) => $body,
            ModeProfiler::Sampled($p) => $body,
        }
    };
}

impl ModeProfiler {
    /// Runs `program` with this profiler attached live.
    pub fn run(
        &mut self,
        instrumenter: &Instrumenter,
        program: &Program,
        config: MachineConfig,
        budget: u64,
    ) -> Result<InstrumentedRun, SimError> {
        each!(self, p => instrumenter.run(program, config, budget, p))
    }

    /// Per-entity metrics, ordered by entity id.
    pub fn metrics(&self) -> Vec<EntityMetrics> {
        each!(self, p => p.metrics())
    }

    /// TNV-table work of every tracker.
    pub fn tnv_events(&self) -> TnvEvents {
        each!(self, p => p.tnv_events())
    }

    /// TNV work plus, in the convergent and sampled modes, their
    /// profile/skip decisions.
    pub fn events(&self) -> Counts {
        let mut counts = Counts::new();
        self.tnv_events().add_to(&mut counts);
        match self {
            ModeProfiler::Full(_) => {}
            ModeProfiler::Convergent(p) => p.events().add_to(&mut counts),
            ModeProfiler::Adaptive(p) => p.events().add_to(&mut counts),
            ModeProfiler::Sampled(p) => p.events().add_to(&mut counts),
        }
        counts
    }

    /// Fraction of observed executions actually profiled.
    pub fn overall_profile_fraction(&self) -> f64 {
        match self {
            ModeProfiler::Full(_) => 1.0,
            ModeProfiler::Convergent(p) => p.overall_profile_fraction(),
            ModeProfiler::Adaptive(p) => p.overall_profile_fraction(),
            ModeProfiler::Sampled(p) => p.overall_profile_fraction(),
        }
    }

    /// Memory-governor counters of a budgeted full profiler.
    pub fn governor_stats(&self) -> Option<GovernorStats> {
        match self {
            ModeProfiler::Full(p) => p.governor_stats().copied(),
            _ => None,
        }
    }

    /// Phase-detector counters of an adaptive profiler.
    pub fn phase_stats(&self) -> Option<PhaseStats> {
        match self {
            ModeProfiler::Adaptive(p) => Some(p.phase_stats()),
            _ => None,
        }
    }
}

impl StreamProfiler for ModeProfiler {
    fn observe(&mut self, pc: u32, value: u64) {
        each!(self, p => p.observe(pc, value))
    }

    fn observe_batch(&mut self, events: &[(u32, u64)]) {
        each!(self, p => p.observe_batch(events))
    }

    /// # Panics
    ///
    /// Panics if `later` was built for a different mode.
    fn merge_shard(&mut self, later: ModeProfiler) {
        match (self, later) {
            (ModeProfiler::Full(p), ModeProfiler::Full(q)) => p.merge(q),
            (ModeProfiler::Convergent(p), ModeProfiler::Convergent(q)) => p.merge(q),
            (ModeProfiler::Adaptive(p), ModeProfiler::Adaptive(q)) => p.merge(q),
            (ModeProfiler::Sampled(p), ModeProfiler::Sampled(q)) => p.merge(q),
            _ => panic!("merge_shard: profilers of different modes"),
        }
    }
}
