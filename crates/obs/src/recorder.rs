//! The `Recorder` sink: where instrumented code reports events.
//!
//! Hot code never formats or allocates for observability; it either does
//! nothing (the default [`NullRecorder`] — a single predictable branch at
//! each site via [`Recorder::enabled`]) or bumps an atomic counter in a
//! [`MemRecorder`]. Timing capture is likewise gated on `enabled()` so a
//! disabled recorder never calls `Instant::now`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::counter::{CounterId, Counts};
use crate::hist::Log2Histogram;

/// One named timing histogram kept by a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Wall time of one profiled workload, nanoseconds.
    WorkloadWallNs,
    /// Wall time of one parallel-map item, nanoseconds.
    ItemNs,
    /// Total busy time of one worker thread, nanoseconds.
    WorkerBusyNs,
    /// Idle (queue-wait) time of one worker thread, nanoseconds.
    WorkerQueueWaitNs,
}

impl HistId {
    /// Number of defined histograms.
    pub const COUNT: usize = Self::ALL.len();

    /// Every histogram, in canonical order.
    pub const ALL: [HistId; 4] =
        [HistId::WorkloadWallNs, HistId::ItemNs, HistId::WorkerBusyNs, HistId::WorkerQueueWaitNs];

    /// Stable snake_case name used in telemetry and `vprof stats`.
    pub fn name(self) -> &'static str {
        match self {
            HistId::WorkloadWallNs => "workload_wall_ns",
            HistId::ItemNs => "item_ns",
            HistId::WorkerBusyNs => "worker_busy_ns",
            HistId::WorkerQueueWaitNs => "worker_queue_wait_ns",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&h| h == self).expect("hist listed in ALL")
    }
}

/// Sink for self-profiling events. All methods default to no-ops so a
/// recorder implements only what it stores; `enabled()` lets call sites
/// skip even the cost of *assembling* an event.
pub trait Recorder: Send + Sync {
    /// Whether this recorder stores anything. Sites doing non-trivial
    /// work to produce an event (e.g. reading the clock) must check this
    /// first; when it returns `false` the site pays only this branch.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `n` to a counter.
    fn add(&self, _id: CounterId, _n: u64) {}

    /// Adds a whole count vector (flushed from deterministic plain-u64
    /// event structs at phase boundaries).
    fn add_counts(&self, counts: &Counts) {
        for (id, value) in counts.iter_nonzero() {
            self.add(id, value);
        }
    }

    /// Records a sample into a timing histogram.
    fn observe(&self, _id: HistId, _value: u64) {}
}

/// The default recorder: discards everything, reports `enabled() == false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// An in-memory aggregating recorder: atomic counters and mutex-guarded
/// histograms. Cheap enough for tests and telemetry runs;
/// the hot paths flush into it only at workload boundaries.
#[derive(Debug)]
pub struct MemRecorder {
    counters: [AtomicU64; CounterId::COUNT],
    hists: Mutex<[Log2Histogram; HistId::COUNT]>,
}

// Manual impl: arrays only derive `Default` up to 32 elements.
impl Default for MemRecorder {
    fn default() -> MemRecorder {
        MemRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: Mutex::new(std::array::from_fn(|_| Log2Histogram::new())),
        }
    }
}

impl MemRecorder {
    /// An empty recorder.
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// Snapshot of all counters.
    pub fn snapshot(&self) -> Counts {
        let mut counts = Counts::new();
        for id in CounterId::ALL {
            let index = CounterId::ALL.iter().position(|&c| c == id).unwrap();
            counts.add(id, self.counters[index].load(Ordering::Relaxed));
        }
        counts
    }

    /// Copy of one timing histogram.
    pub fn hist(&self, id: HistId) -> Log2Histogram {
        self.hists.lock().unwrap()[id.index()].clone()
    }

    /// Clears all counters and histograms.
    pub fn reset(&self) {
        for counter in &self.counters {
            counter.store(0, Ordering::Relaxed);
        }
        for hist in self.hists.lock().unwrap().iter_mut() {
            *hist = Log2Histogram::new();
        }
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, id: CounterId, n: u64) {
        let index = CounterId::ALL.iter().position(|&c| c == id).unwrap();
        self.counters[index].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, id: HistId, value: u64) {
        self.hists.lock().unwrap()[id.index()].record(value);
    }
}

/// Monotonic stopwatch for phase timing.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Nanoseconds elapsed since `start()`, saturated at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let rec = NullRecorder;
        assert!(!rec.enabled());
        rec.add(CounterId::TnvHits, 5);
        rec.observe(HistId::ItemNs, 100);
    }

    #[test]
    fn mem_recorder_aggregates() {
        let rec = MemRecorder::new();
        assert!(rec.enabled());
        rec.add(CounterId::TnvHits, 2);
        rec.add(CounterId::TnvHits, 3);
        let mut extra = Counts::new();
        extra.add(CounterId::TnvInserts, 7);
        rec.add_counts(&extra);
        let snap = rec.snapshot();
        assert_eq!(snap.get(CounterId::TnvHits), 5);
        assert_eq!(snap.get(CounterId::TnvInserts), 7);

        rec.observe(HistId::WorkloadWallNs, 1000);
        rec.observe(HistId::WorkloadWallNs, 3000);
        let hist = rec.hist(HistId::WorkloadWallNs);
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 4000);

        rec.reset();
        assert_eq!(rec.snapshot().total(), 0);
        assert_eq!(rec.hist(HistId::WorkloadWallNs).count(), 0);
    }

    #[test]
    fn mem_recorder_is_thread_safe() {
        let rec = MemRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        rec.add(CounterId::WorkerItems, 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().get(CounterId::WorkerItems), 4000);
    }

    #[test]
    fn stopwatch_advances() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
