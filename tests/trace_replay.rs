//! Trace-driven profiling must be indistinguishable from live profiling:
//! recording a workload's `(pc, value)` stream into the chunked,
//! CRC-checked trace format (the one `vprof record` writes) and replaying
//! it into the value profiler yields bit-identical metrics.

use value_profiling::core::{track::TrackerConfig, InstructionProfiler};
use value_profiling::instrument::trace_codec::DEFAULT_CHUNK_EVENTS;
use value_profiling::instrument::{Analysis, Instrumenter, Selection, TraceEncoder, TraceFile};
use value_profiling::sim::{InstrEvent, Machine};
use value_profiling::workloads::{suite, DataSet, Workload};

const BUDGET: u64 = 100_000_000;

/// Records the selected events of `w` the way `vprof record` does.
fn record(w: &Workload, selection: Selection, chunk_events: usize) -> Vec<u8> {
    struct Recorder(TraceEncoder);
    impl Analysis for Recorder {
        fn after_instr(&mut self, _m: &Machine, ev: &InstrEvent) {
            if let Some((_, v)) = ev.dest {
                self.0.push(ev.index, v);
            }
        }
    }
    let mut rec = Recorder(TraceEncoder::with_chunk_events(chunk_events));
    Instrumenter::new()
        .select(selection)
        .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut rec)
        .unwrap();
    rec.0.finish()
}

/// Replays a trace chunk by chunk the way `vprof replay` does.
fn replay(file: &TraceFile) -> InstructionProfiler {
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    let mut reader = file.reader().unwrap();
    let mut chunk = Vec::new();
    while reader.next_chunk_into(&mut chunk).unwrap() {
        profiler.observe_batch(&chunk);
    }
    profiler
}

fn assert_replay_matches_live(selection: Selection) {
    for w in suite() {
        let mut live = InstructionProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(selection.clone())
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut live)
            .unwrap();
        let trace = record(&w, selection.clone(), DEFAULT_CHUNK_EVENTS);
        let replayed = replay(&TraceFile::from_bytes(trace));
        assert_eq!(live.metrics(), replayed.metrics(), "{} {selection:?}", w.name());
    }
}

#[test]
fn replayed_instruction_profiles_match_live() {
    assert_replay_matches_live(Selection::LoadsOnly);
}

#[test]
fn replayed_register_defining_profiles_match_live() {
    assert_replay_matches_live(Selection::RegisterDefining);
}

#[test]
fn serialized_trace_replays_identically() {
    // Many small chunks, read back from disk and from the bytes alike,
    // profile exactly like one default-sized chunk.
    let w = suite().into_iter().find(|w| w.name() == "li").unwrap();
    let bytes = record(&w, Selection::LoadsOnly, 1_000);
    let path = std::env::temp_dir().join(format!("vp-trace-replay-{}.vpc", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let opened = replay(&TraceFile::open(&path).unwrap());
    std::fs::remove_file(&path).unwrap();
    let restored = replay(&TraceFile::from_bytes(bytes));
    let whole =
        replay(&TraceFile::from_bytes(record(&w, Selection::LoadsOnly, DEFAULT_CHUNK_EVENTS)));
    assert!(opened.metrics().iter().map(|m| m.executions).sum::<u64>() > 1_000);
    assert_eq!(opened.metrics(), restored.metrics());
    assert_eq!(restored.metrics(), whole.metrics());
}
