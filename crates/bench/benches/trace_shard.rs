//! Criterion bench: trace-event ingestion throughput.
//!
//! Compares the two ways a recorded `(pc, value)` stream can reach the
//! full profiler — the per-event `observe` call and the entity-sharded
//! parallel replay — on both a synthetic semi-invariant stream and a real
//! recorded workload trace. `observe_batch` is a plain loop over
//! `observe`: its run-grouping and TNV top-slot fast paths never paid end
//! to end (the traced repository benchmark,
//! `python3 perfbench/run.py --workload trace-replay --seed N --seconds 20
//! --trace 1`, measured `instr_profile.batch_speedup` at 0.96–1.07 on a
//! 2-core machine) and were deleted.
//!
//! A second group measures *replay* — decode the binary trace container,
//! then profile — pitting the current zero-copy path (SWAR varints,
//! sliced CRC, one reused scratch buffer) against a faithful replica of
//! the previous release's decoder (byte-at-a-time varints, bit-at-a-time
//! CRC, a fresh `Vec` per chunk). The claim is ≥ 1.5× events/sec on the
//! recorded stream.
//!
//! With `BENCH_SHARD_JSON=<path>` set (and outside `cargo test`'s
//! `--test` smoke mode), a machine-readable events/sec summary is also
//! written to `<path>` — the vendored criterion stand-in has no JSON
//! reports of its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vp_bench::value_stream;
use vp_core::{
    profile_sharded, track::TrackerConfig, AdaptiveProfiler, ConvergentConfig, ConvergentProfiler,
    InstructionProfiler, PhaseBudget,
};
use vp_instrument::{trace_codec, Selection};
use vp_workloads::{suite, DataSet};

/// Faithful replica of the pre-zero-copy decoder, kept as the bench
/// baseline: LEB128 a byte at a time, CRC32 a bit at a time, and a
/// freshly sized `Vec` per chunk.
mod baseline {
    fn crc32_step(crc: u32, byte: u8) -> u32 {
        let mut crc = crc ^ u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
        crc
    }

    fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = bytes[*pos];
            *pos += 1;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }

    /// Decodes one well-formed trace chunk-by-chunk, handing each chunk's
    /// freshly allocated event `Vec` to `sink` — the shape of the old
    /// serial replay loop. Panics on malformed input (bench streams are
    /// pristine by construction).
    pub fn replay(bytes: &[u8], mut sink: impl FnMut(Vec<(u32, u64)>)) {
        assert_eq!(&bytes[..4], b"VPC1");
        let mut pos = 4usize;
        loop {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            if len == 0 {
                return; // trailer
            }
            let count = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap());
            let payload = &bytes[pos + 12..pos + 12 + len];
            let mut crc = !0u32;
            for &b in &bytes[pos..pos + 8] {
                crc = crc32_step(crc, b);
            }
            for &b in payload {
                crc = crc32_step(crc, b);
            }
            assert_eq!(!crc, stored, "baseline replica sees a valid chunk");
            let mut chunk: Vec<(u32, u64)> = Vec::with_capacity(count);
            let mut p = 0usize;
            while p < len {
                let pc = read_varint(payload, &mut p) as u32;
                let value = read_varint(payload, &mut p);
                chunk.push((pc, value));
            }
            sink(chunk);
            pos += 12 + len;
        }
    }
}

/// Semi-invariant stream over a rotating set of entities: 80% one value,
/// the rest churn — the mix workload TNV tables actually face. Each
/// entity stays hot for a short run (an inner loop re-executing the same
/// load) before the stream moves on, as recorded traces do.
fn synthetic(len: usize) -> Vec<(u32, u64)> {
    (0..len as u64)
        .map(|i| ((i / 16 % 13) as u32, if i % 5 == 4 { 1000 + (i % 97) } else { 7 }))
        .collect()
}

fn scalar(events: &[(u32, u64)]) -> InstructionProfiler {
    let mut p = InstructionProfiler::new(TrackerConfig::default());
    for &(pc, value) in events {
        p.observe(black_box(pc), black_box(value));
    }
    p
}

fn sharded(events: &[(u32, u64)], shards: usize) -> InstructionProfiler {
    profile_sharded(
        black_box(events),
        shards,
        || InstructionProfiler::new(TrackerConfig::default()),
    )
}

fn convergent_ingest(events: &[(u32, u64)]) -> ConvergentProfiler {
    let mut p = ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
    p.observe_batch(black_box(events));
    p
}

/// The adaptive profiler on a stream whose distribution never shifts:
/// every event still feeds the per-entity window sketch, so this
/// measures the pure detector overhead over the stock convergent path
/// (target: ≤ 5%).
fn adaptive_ingest(events: &[(u32, u64)]) -> AdaptiveProfiler {
    let mut p = AdaptiveProfiler::new(
        TrackerConfig::default(),
        ConvergentConfig::default(),
        PhaseBudget::default(),
    );
    p.observe_batch(black_box(events));
    p
}

fn bench_ingestion(c: &mut Criterion) {
    let streams: Vec<(&str, Vec<(u32, u64)>)> = vec![
        ("synthetic", synthetic(200_000)),
        ("recorded", value_stream(&suite()[0], DataSet::Test, Selection::LoadsOnly)),
    ];
    for (name, events) in &streams {
        let mut group = c.benchmark_group(format!("trace_ingest/{name}"));
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_function("scalar", |b| b.iter(|| black_box(scalar(events))));
        for shards in [2usize, 4] {
            group.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, &s| {
                b.iter(|| black_box(sharded(events, s)))
            });
        }
        group.finish();
    }

    // Adaptive-overhead pair on the phase-free synthetic stream: the
    // detector watches every event but never fires, so the gap between
    // these two is the cost of phase detection alone.
    let events = synthetic(200_000);
    let mut group = c.benchmark_group("adaptive_overhead/synthetic");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("convergent", |b| b.iter(|| black_box(convergent_ingest(&events))));
    group.bench_function("adaptive", |b| b.iter(|| black_box(adaptive_ingest(&events))));
    group.finish();
}

/// Old replay loop: decode each chunk into a fresh `Vec`, profile it.
fn replay_baseline(encoded: &[u8]) -> InstructionProfiler {
    let mut p = InstructionProfiler::new(TrackerConfig::default());
    baseline::replay(black_box(encoded), |chunk| p.observe_batch(&chunk));
    p
}

/// Current replay loop: zero-copy chunk reader decoding into one reused
/// scratch buffer — the `vprof replay` serial path.
fn replay_zerocopy(encoded: &[u8]) -> InstructionProfiler {
    let mut p = InstructionProfiler::new(TrackerConfig::default());
    let mut reader = trace_codec::ChunkReader::new(black_box(encoded)).unwrap();
    let mut scratch: Vec<(u32, u64)> = Vec::new();
    while reader.next_chunk_into(&mut scratch).unwrap() {
        p.observe_batch(&scratch);
    }
    p
}

fn bench_replay(c: &mut Criterion) {
    let streams: Vec<(&str, Vec<(u32, u64)>)> = vec![
        ("synthetic", synthetic(200_000)),
        ("recorded", value_stream(&suite()[0], DataSet::Test, Selection::LoadsOnly)),
    ];
    for (name, events) in &streams {
        let encoded = trace_codec::encode(events, trace_codec::DEFAULT_CHUNK_EVENTS);
        // The replica must agree with the real decoder before it is a
        // meaningful baseline.
        let mut replica: Vec<(u32, u64)> = Vec::new();
        baseline::replay(&encoded, |chunk| replica.extend(chunk));
        assert_eq!(&replica, events, "{name}: baseline replica decodes correctly");

        let mut group = c.benchmark_group(format!("trace_replay/{name}"));
        group.throughput(Throughput::Elements(events.len() as u64));
        group.bench_function("pr4_baseline", |b| b.iter(|| black_box(replay_baseline(&encoded))));
        group.bench_function("zerocopy", |b| b.iter(|| black_box(replay_zerocopy(&encoded))));
        group.finish();
    }
}

/// Best-of-batches events/sec for `f` over `events` — the vendored
/// criterion keeps its measurements private, so the JSON artifact
/// measures independently with the same best-of discipline. Generic over
/// the profiler type so the same harness times full, convergent and
/// adaptive ingestion.
type IngestFn<'a, P> = &'a dyn Fn(&[(u32, u64)]) -> P;

fn rate<P>(events: &[(u32, u64)], f: IngestFn<'_, P>) -> f64 {
    black_box(f(events)); // warm-up
    let mut best = Duration::MAX;
    let deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < deadline {
        let start = Instant::now();
        black_box(f(events));
        best = best.min(start.elapsed());
    }
    events.len() as f64 / best.as_secs_f64()
}

/// Writes `BENCH_shard.json`-style output when `BENCH_SHARD_JSON` names a
/// path: events/sec for scalar vs sharded ingestion.
fn write_json_summary() {
    let Ok(path) = std::env::var("BENCH_SHARD_JSON") else { return };
    if path.is_empty() || std::env::args().any(|a| a == "--test") {
        return;
    }
    let streams = [
        ("synthetic", synthetic(200_000)),
        ("recorded", value_stream(&suite()[0], DataSet::Test, Selection::LoadsOnly)),
    ];
    let mut entries = Vec::new();
    for (name, events) in &streams {
        let scalar_eps = rate(events, &scalar);
        let sharded2_eps = rate(events, &|e| sharded(e, 2));
        let sharded4_eps = rate(events, &|e| sharded(e, 4));
        let encoded = trace_codec::encode(events, trace_codec::DEFAULT_CHUNK_EVENTS);
        let replay_pr4_eps = rate(events, &|e| {
            let _ = e;
            replay_baseline(&encoded)
        });
        let replay_zerocopy_eps = rate(events, &|e| {
            let _ = e;
            replay_zerocopy(&encoded)
        });
        entries.push(format!(
            "{{\"stream\":\"{name}\",\"events\":{},\"scalar_eps\":{scalar_eps:.0},\
             \"sharded2_eps\":{sharded2_eps:.0},\"sharded4_eps\":{sharded4_eps:.0},\
             \"replay_pr4_eps\":{replay_pr4_eps:.0},\
             \"replay_zerocopy_eps\":{replay_zerocopy_eps:.0},\
             \"replay_speedup\":{:.3}}}",
            events.len(),
            replay_zerocopy_eps / replay_pr4_eps,
        ));
    }
    // Adaptive-overhead entry: phase detection on a stream that never
    // shifts. `adaptive_overhead` is the fractional slowdown over the
    // stock convergent profiler; the target is ≤ 0.05 (recorded here for
    // trend tracking, not hard-asserted — CI machines are noisy).
    let phase_free = synthetic(200_000);
    let convergent_eps = rate(&phase_free, &convergent_ingest);
    let adaptive_eps = rate(&phase_free, &adaptive_ingest);
    let adaptive = format!(
        "{{\"stream\":\"synthetic\",\"convergent_eps\":{convergent_eps:.0},\
         \"adaptive_eps\":{adaptive_eps:.0},\"adaptive_overhead\":{:.3},\
         \"target_overhead\":0.05}}",
        convergent_eps / adaptive_eps - 1.0,
    );
    let json = format!(
        "{{\"bench\":\"trace_shard\",\"streams\":[{}],\"adaptive\":{adaptive}}}\n",
        entries.join(",")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => print!("wrote {path}: {json}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn bench_all(c: &mut Criterion) {
    bench_ingestion(c);
    bench_replay(c);
    write_json_summary();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
