//! The memory half of the resource governor: an explicit byte budget and
//! a per-entity degradation ladder.
//!
//! The paper's space-vs-accuracy trade-off is concrete here: `Inv-All`
//! needs an unbounded exact histogram per entity, while the TNV table is
//! constant-space by design. A [`Governor`] holds a [`MemBudget`] and the
//! exact byte accounting (fed by the profilers' `footprint_bytes()`
//! hooks); when ingest pushes the resident footprint over the budget it
//! walks the ladder, one rung per step, until the budget holds again:
//!
//! 1. **degrade** — the largest entity still holding a [`FullProfile`]
//!    drops it (`ValueTracker::degrade`), keeping the constant-space TNV
//!    table and every scalar counter. Its `inv_top*`/LVP stay exact;
//!    `inv_all*` becomes absent, exactly the shape shard merges already
//!    produce and the aggregate path already tolerates.
//! 2. **drop** — once no full profiles remain, the largest entity is
//!    evicted entirely and its id blacklisted; later observations of it
//!    are counted, not stored (like `MemoryProfiler`'s location cap).
//!
//! Victim selection is by largest current footprint with ties broken by
//! smallest entity id — a pure function of profiler state, which is itself
//! a pure function of the input stream, so governed runs are deterministic
//! and `--jobs N` stays byte-identical to serial (each workload owns its
//! profiler). Enforcement happens after *every* observation, so
//! [`GovernorStats::bytes_peak`] — sampled post-enforcement — never
//! exceeds the budget.
//!
//! The byte accounting runs on a per-workload [`Arena`] meter, and since
//! every tracker block now has a capacity-determined exact size
//! (`TnvTable`'s entry array, [`FullProfile`]'s `ValueMap` slab),
//! `bytes_peak` *is* the arena high-water mark: ground truth, not an
//! estimate of allocator internals.
//!
//! [`FullProfile`]: crate::track::FullProfile

use std::collections::{HashMap, HashSet};

use crate::arena::Arena;
use crate::pc_table::PcTable;
use crate::track::{TrackerConfig, ValueTracker};

/// A byte budget for one profiler's resident tracker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBudget {
    limit_bytes: usize,
}

impl MemBudget {
    /// A budget of exactly `limit` bytes.
    pub fn bytes(limit: usize) -> MemBudget {
        MemBudget { limit_bytes: limit }
    }

    /// A budget of `limit` mebibytes — the unit `--mem-budget-mb` takes.
    pub fn mib(limit: usize) -> MemBudget {
        MemBudget { limit_bytes: limit.saturating_mul(1024 * 1024) }
    }

    /// The limit in bytes.
    pub fn limit_bytes(&self) -> usize {
        self.limit_bytes
    }

    /// An equal slice of this budget for each of `shards` concurrent
    /// profilers, so their combined resident footprint stays within the
    /// whole. Summing the shards' post-enforcement peaks therefore bounds
    /// the combined peak by the original budget.
    pub fn split(&self, shards: usize) -> MemBudget {
        MemBudget { limit_bytes: (self.limit_bytes / shards.max(1)).max(1) }
    }
}

/// Exact counters of everything a [`Governor`] did. Merging (summing)
/// shard stats gives the whole run's totals; `bytes_peak` sums to an
/// upper bound of the combined resident peak (shards run under split
/// budgets — see [`MemBudget::split`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovernorStats {
    /// Highest resident governed footprint, in bytes, sampled after
    /// enforcement — never exceeds the budget.
    pub bytes_peak: u64,
    /// Entities that lost their exact histogram (ladder rung 1).
    pub entities_degraded: u64,
    /// Entities evicted entirely (ladder rung 2).
    pub entities_dropped: u64,
    /// Observations of already-dropped entities that were counted but
    /// not stored.
    pub observations_dropped: u64,
}

impl GovernorStats {
    /// Folds another shard's stats into this one (all counters sum).
    pub fn merge(&mut self, other: &GovernorStats) {
        self.bytes_peak += other.bytes_peak;
        self.entities_degraded += other.entities_degraded;
        self.entities_dropped += other.entities_dropped;
        self.observations_dropped += other.observations_dropped;
    }

    /// Whether the governor ever had to intervene (or shed observations).
    pub fn intervened(&self) -> bool {
        self.entities_degraded > 0 || self.entities_dropped > 0 || self.observations_dropped > 0
    }
}

/// The tracker map a [`Governor`] enforces its budget over: the
/// instruction profiler's [`PcTable`] or the memory profiler's address
/// map. The governed and ungoverned paths share the one map.
pub trait TrackerMap {
    /// Entity id: an instruction index or a location address.
    type Id: Copy + Ord + Into<u64>;
    /// The tracker of `id`, mutably, if resident.
    fn tracker_mut(&mut self, id: Self::Id) -> Option<&mut ValueTracker>;
    /// The tracker of `id`, created with `config` if absent.
    fn tracker_or_new(&mut self, id: Self::Id, config: TrackerConfig) -> &mut ValueTracker;
    /// Evicts `id`'s tracker.
    fn remove_tracker(&mut self, id: Self::Id) -> Option<ValueTracker>;
    /// Every resident `(id, tracker)`, in any order.
    fn trackers(&self) -> impl Iterator<Item = (Self::Id, &ValueTracker)>;
}

impl TrackerMap for PcTable<ValueTracker> {
    type Id = u32;
    fn tracker_mut(&mut self, id: u32) -> Option<&mut ValueTracker> {
        self.get_mut(id)
    }
    fn tracker_or_new(&mut self, id: u32, config: TrackerConfig) -> &mut ValueTracker {
        self.get_or_insert_with(id, || ValueTracker::new(config))
    }
    fn remove_tracker(&mut self, id: u32) -> Option<ValueTracker> {
        self.remove(id)
    }
    fn trackers(&self) -> impl Iterator<Item = (u32, &ValueTracker)> {
        self.iter()
    }
}

impl TrackerMap for HashMap<u64, ValueTracker> {
    type Id = u64;
    fn tracker_mut(&mut self, id: u64) -> Option<&mut ValueTracker> {
        self.get_mut(&id)
    }
    fn tracker_or_new(&mut self, id: u64, config: TrackerConfig) -> &mut ValueTracker {
        self.entry(id).or_insert_with(|| ValueTracker::new(config))
    }
    fn remove_tracker(&mut self, id: u64) -> Option<ValueTracker> {
        self.remove(&id)
    }
    fn trackers(&self) -> impl Iterator<Item = (u64, &ValueTracker)> {
        self.iter().map(|(&id, t)| (id, t))
    }
}

/// Enforces a [`MemBudget`] over one profiler's tracker map. Embedded as
/// `Option<Governor>` in the profilers; `None` (the default) leaves every
/// pre-existing code path untouched.
#[derive(Debug, Clone)]
pub struct Governor {
    budget: MemBudget,
    arena: Arena,
    stats: GovernorStats,
    dropped: HashSet<u64>,
}

impl Governor {
    /// A governor with nothing resident yet.
    pub fn new(budget: MemBudget) -> Governor {
        Governor {
            budget,
            arena: Arena::new(),
            stats: GovernorStats::default(),
            dropped: HashSet::new(),
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> MemBudget {
        self.budget
    }

    /// Current resident governed footprint in bytes.
    pub fn bytes_current(&self) -> usize {
        self.arena.live_bytes()
    }

    /// The arena meter behind the accounting. `bytes_peak` in
    /// [`GovernorStats`] equals `arena().high_water_bytes()` exactly for
    /// an unmerged governor (after shard absorption the stats carry the
    /// summed per-shard peaks instead).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// The intervention counters so far.
    pub fn stats(&self) -> &GovernorStats {
        &self.stats
    }

    /// Whether `id` has been evicted (ladder rung 2); its observations
    /// are counted via [`observe`](Governor::observe) but not stored.
    pub fn is_dropped(&self, id: u64) -> bool {
        self.dropped.contains(&id)
    }

    /// Feeds one `(id, value)` observation through the governed path:
    /// dropped entities are counted and skipped; otherwise the tracker
    /// observes, the byte delta is charged, and the ladder runs until the
    /// budget holds again.
    pub fn observe<M: TrackerMap>(
        &mut self,
        trackers: &mut M,
        config: TrackerConfig,
        id: M::Id,
        value: u64,
    ) {
        if self.dropped.contains(&id.into()) {
            self.stats.observations_dropped += 1;
            return;
        }
        let before = trackers.tracker_mut(id).map_or(0, |t| t.footprint_bytes());
        let tracker = trackers.tracker_or_new(id, config);
        tracker.observe(value);
        let after = tracker.footprint_bytes();
        // Footprints are monotone under observe (tested in `track`), so
        // the delta is non-negative.
        self.arena.charge(after - before);
        if self.arena.live_bytes() > self.budget.limit_bytes {
            self.enforce(trackers);
        }
        // Mark only the settled state: a transient over-budget spike the
        // ladder just rolled back is not a resident peak.
        self.arena.mark();
        self.stats.bytes_peak = self.stats.bytes_peak.max(self.arena.high_water_bytes() as u64);
    }

    /// Walks the degradation ladder until the budget holds: degrade the
    /// largest full-profile holder first (rung 1), evict the largest
    /// remaining entity once no full profiles are left (rung 2). Ties go
    /// to the smallest id, so victim selection is deterministic.
    fn enforce<M: TrackerMap>(&mut self, trackers: &mut M) {
        let largest =
            |(id, t): &(M::Id, &ValueTracker)| (t.footprint_bytes(), std::cmp::Reverse(*id));
        while self.arena.live_bytes() > self.budget.limit_bytes {
            let degradable = trackers
                .trackers()
                .filter(|(_, t)| t.has_full())
                .max_by_key(largest)
                .map(|(id, _)| id);
            if let Some(id) = degradable {
                let freed = trackers.tracker_mut(id).expect("victim exists").degrade();
                self.arena.release(freed);
                self.stats.entities_degraded += 1;
                continue;
            }
            let Some((victim, _)) = trackers.trackers().max_by_key(largest) else { break };
            let tracker = trackers.remove_tracker(victim).expect("victim exists");
            self.arena.release(tracker.footprint_bytes());
            self.stats.entities_dropped += 1;
            self.dropped.insert(victim.into());
        }
    }

    /// Folds another shard's governor into this one after the tracker
    /// maps were merged: counters sum, the blacklists union, and the
    /// resident accounting is reset to `resident_bytes` (the merged map's
    /// total footprint — merging shard results may legitimately exceed a
    /// per-shard budget; enforcement is an ingest-time property and
    /// resumes if the merged profiler observes again).
    pub fn absorb(&mut self, other: &Governor, resident_bytes: usize) {
        self.stats.merge(&other.stats);
        self.dropped.extend(other.dropped.iter().copied());
        self.arena.reset_live(resident_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(governor: &mut Governor, trackers: &mut PcTable<ValueTracker>, events: &[(u32, u64)]) {
        for &(id, value) in events {
            governor.observe(trackers, TrackerConfig::with_full(), id, value);
        }
    }

    fn spread(entities: u32, values: u64) -> Vec<(u32, u64)> {
        let mut events = Vec::new();
        for v in 0..values {
            for id in 0..entities {
                events.push((id, v.wrapping_mul(u64::from(id) + 1)));
            }
        }
        events
    }

    #[test]
    fn generous_budget_never_intervenes() {
        let mut governor = Governor::new(MemBudget::mib(64));
        let mut governed: PcTable<ValueTracker> = PcTable::new();
        let mut reference: PcTable<ValueTracker> = PcTable::new();
        for (id, value) in spread(8, 500) {
            governor.observe(&mut governed, TrackerConfig::with_full(), id, value);
            reference.tracker_or_new(id, TrackerConfig::with_full()).observe(value);
        }
        assert!(!governor.stats().intervened());
        assert_eq!(governed.len(), reference.len());
        for (id, tracker) in reference.iter() {
            let governed = governed.get(id).unwrap();
            assert_eq!(governed.full(), tracker.full(), "entity {id}");
            assert_eq!(governed.inv_top(1), tracker.inv_top(1), "entity {id}");
        }
        let total: usize = governed.values().map(ValueTracker::footprint_bytes).sum();
        assert_eq!(governor.bytes_current(), total, "accounting matches reality");
        assert_eq!(governor.stats().bytes_peak, total as u64);
    }

    #[test]
    fn tight_budget_degrades_before_dropping_and_peak_holds() {
        let budget = MemBudget::bytes(16 * 1024);
        let mut governor = Governor::new(budget);
        let mut trackers: PcTable<ValueTracker> = PcTable::new();
        feed(&mut governor, &mut trackers, &spread(6, 2000));
        let stats = *governor.stats();
        assert!(stats.intervened());
        assert!(stats.entities_degraded > 0, "ladder rung 1 used");
        assert!(stats.bytes_peak <= budget.limit_bytes() as u64, "peak within budget");
        let total: usize = trackers.values().map(ValueTracker::footprint_bytes).sum();
        assert_eq!(governor.bytes_current(), total);
        assert!(total <= budget.limit_bytes());
    }

    #[test]
    fn degraded_entities_keep_exact_scalar_metrics() {
        let events = spread(6, 2000);
        let mut governor = Governor::new(MemBudget::bytes(16 * 1024));
        let mut governed: PcTable<ValueTracker> = PcTable::new();
        feed(&mut governor, &mut governed, &events);
        let mut reference: PcTable<ValueTracker> = PcTable::new();
        for &(id, value) in &events {
            reference.tracker_or_new(id, TrackerConfig::with_full()).observe(value);
        }
        for (id, tracker) in governed.iter() {
            let truth = reference.get(id).unwrap();
            assert_eq!(tracker.executions(), truth.executions(), "entity {id}");
            assert_eq!(tracker.lvp(), truth.lvp(), "entity {id}");
            assert_eq!(tracker.inv_top(3), truth.inv_top(3), "entity {id}");
            assert_eq!(tracker.pct_zero(), truth.pct_zero(), "entity {id}");
        }
    }

    #[test]
    fn starvation_budget_drops_entities_and_counts_observations() {
        // Smaller than a single tracker: every entity is eventually
        // created, degraded, and evicted; later observations are shed.
        let mut governor = Governor::new(MemBudget::bytes(64));
        let mut trackers: PcTable<ValueTracker> = PcTable::new();
        feed(&mut governor, &mut trackers, &spread(3, 50));
        let stats = *governor.stats();
        assert!(trackers.is_empty());
        assert_eq!(stats.entities_dropped, 3);
        assert!(stats.observations_dropped > 0);
        assert!(governor.is_dropped(0) && governor.is_dropped(2));
        assert_eq!(governor.bytes_current(), 0);
    }

    #[test]
    fn victim_selection_is_deterministic() {
        let events = spread(5, 800);
        let run = || {
            let mut governor = Governor::new(MemBudget::bytes(8 * 1024));
            let mut trackers: PcTable<ValueTracker> = PcTable::new();
            feed(&mut governor, &mut trackers, &events);
            let surviving: Vec<u32> = trackers.iter().map(|(id, _)| id).collect();
            let degraded: Vec<u32> =
                trackers.iter().filter(|(_, t)| !t.has_full()).map(|(id, _)| id).collect();
            (*governor.stats(), surviving, degraded)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_merge_sums_everything() {
        let mut a = GovernorStats {
            bytes_peak: 100,
            entities_degraded: 2,
            entities_dropped: 1,
            observations_dropped: 7,
        };
        let b = GovernorStats {
            bytes_peak: 50,
            entities_degraded: 1,
            entities_dropped: 0,
            observations_dropped: 3,
        };
        a.merge(&b);
        assert_eq!(a.bytes_peak, 150);
        assert_eq!(a.entities_degraded, 3);
        assert_eq!(a.entities_dropped, 1);
        assert_eq!(a.observations_dropped, 10);
        assert!(a.intervened());
        assert!(!GovernorStats::default().intervened());
    }

    #[test]
    fn bytes_peak_is_the_arena_high_water_mark_exactly() {
        // Under any budget — generous or degrading — an unmerged
        // governor's reported peak is the arena's high-water mark, and
        // the arena's live total is the exact summed tracker footprint.
        for budget in [MemBudget::mib(64), MemBudget::bytes(16 * 1024), MemBudget::bytes(64)] {
            let mut governor = Governor::new(budget);
            let mut trackers: PcTable<ValueTracker> = PcTable::new();
            feed(&mut governor, &mut trackers, &spread(6, 1200));
            let total: usize = trackers.values().map(ValueTracker::footprint_bytes).sum();
            assert_eq!(governor.arena().live_bytes(), total, "live is exact");
            assert_eq!(
                governor.stats().bytes_peak,
                governor.arena().high_water_bytes() as u64,
                "peak is the marked high water"
            );
            assert!(governor.stats().bytes_peak <= budget.limit_bytes() as u64);
        }
    }

    #[test]
    fn split_budget_sums_to_at_most_the_whole() {
        let whole = MemBudget::mib(4);
        let part = whole.split(3);
        assert!(part.limit_bytes() * 3 <= whole.limit_bytes());
        assert_eq!(whole.split(0).limit_bytes(), whole.limit_bytes());
        assert_eq!(MemBudget::bytes(1).split(8).limit_bytes(), 1);
    }
}
