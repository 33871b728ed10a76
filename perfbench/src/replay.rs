//! `trace-replay`: VPC1 traces replayed through the full profiler
//! (`InstructionProfiler`, exact histogram on), as `vprof replay` does:
//! `TraceFile::open` → `ChunkReader::next_chunk_into` → `observe_batch`
//! → `metrics()` and `aggregate`.
//!
//! Two trace families: the ten programs' recorded `--all` traces on both
//! inputs (a few hundred hot pcs, tables that stay in cache), and seeded
//! heavy-tailed and diurnal streams over thousands of pcs (tables that
//! spill far out of it). Decode, CRC and profile update do all the work;
//! the emulator and hook never run.
//!
//! The traced run ends with the serve phase (`crate::ingest`): the same
//! layers fed chunk by chunk through the serve daemon.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vp_bench::SuiteRunner;
use vp_core::durable::render_profile_durable;
use vp_core::{aggregate, EntityMetrics, InstructionProfiler, TrackerConfig};
use vp_instrument::{Analysis, Instrumenter, Selection, TraceEncoder, TraceFile};
use vp_sim::{InstrEvent, Machine};
use vp_workloads::adversarial::{diurnal, heavy_tailed};
use vp_workloads::suite;

use crate::check::{self, NaiveAnalysis, NaiveCounter, Ops, PcSummary};
use crate::live::{unit, DATASETS};
use crate::report::Report;
use crate::stats::{self, median, median_by, ms};
use crate::{remaining, Args, BUDGET};

/// Events in each wide stream.
const WIDE_EVENTS: usize = 1 << 21;
/// Pcs of the heavy-tailed stream.
const HEAVY_PCS: u32 = 4096;
/// Pcs of the diurnal stream.
const DIURNAL_PCS: u32 = 2048;

/// A seed for stream `k` of a run, mixed from the run's seed
/// (splitmix64), so that nearby seeds give unrelated streams.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded wide streams: a Zipf-like value distribution with a fat
/// tail of distinct values, and a slow drift of the dominant value.
fn wide_streams(seed: u64) -> Vec<(&'static str, Vec<(u32, u64)>)> {
    let epochs = 4;
    let epoch = (WIDE_EVENTS / (DIURNAL_PCS as usize * epochs)) as u64;
    vec![
        ("wide/heavy", heavy_tailed(HEAVY_PCS, 1 << 16, 1.1, WIDE_EVENTS, stream_seed(seed, 1))),
        ("wide/diurnal", diurnal(DIURNAL_PCS, epoch, epochs as u64, 20, stream_seed(seed, 2))),
    ]
}

fn file_name(unit: &str) -> String {
    format!("{}.vpc", unit.replace('/', "-"))
}

/// Records like `vprof record --all`: every register-defining value.
struct Recorder(TraceEncoder);

impl Analysis for Recorder {
    fn after_instr(&mut self, _m: &Machine, event: &InstrEvent) {
        if let Some((_, value)) = event.dest {
            self.0.push(event.index, value);
        }
    }
}

/// The set-up a user pays: build the programs and inputs, record every
/// trace, generate the wide streams, and write them all. The files are
/// written without `fsync` (unlike `vprof record`), because disk sync
/// times on a shared machine vary many-fold from run to run; the sync
/// cost is measured on its own in the serve phase.
fn record_all(seed: u64, dir: &Path) -> Result<(), String> {
    let write = |unit: &str, bytes: Vec<u8>| {
        let path = dir.join(file_name(unit));
        std::fs::write(&path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    for w in suite() {
        for ds in DATASETS {
            let mut rec = Recorder(TraceEncoder::new());
            Instrumenter::new()
                .select(Selection::RegisterDefining)
                .run(w.program(), w.machine_config(ds), BUDGET, &mut rec)
                .map_err(|e| format!("{}: {e}", unit(&w, ds)))?;
            write(&unit(&w, ds), rec.0.finish())?;
        }
    }
    for (name, stream) in wide_streams(seed) {
        let mut enc = TraceEncoder::new();
        enc.push_all(&stream);
        write(name, enc.finish())?;
    }
    Ok(())
}

/// One set-up sample, seconds.
pub fn setup_sample(args: &Args, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    record_all(args.seed, dir)?;
    Ok(t.elapsed().as_secs_f64())
}

/// Writes the references: the live full profile of every program and
/// input (which its replay must equal byte for byte) and the naive
/// counter's answer for every trace.
pub fn references(args: &Args, dir: &Path) -> Result<Ops, String> {
    let live = SuiteRunner::new().jobs(1).selection(Selection::RegisterDefining);
    let workloads = suite();
    let mut units = Vec::new();
    for ds in DATASETS {
        for p in live.run_workloads(&workloads, ds).workloads {
            let w =
                workloads.iter().find(|w| w.name() == p.name).expect("profiled a suite program");
            let path = dir.join(format!("expect-{}", file_name(&unit(w, ds))));
            std::fs::write(&path, render_profile_durable(&p.metrics))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    for w in &workloads {
        for ds in DATASETS {
            let mut naive = NaiveAnalysis::default();
            Instrumenter::new()
                .select(Selection::RegisterDefining)
                .run(w.program(), w.machine_config(ds), BUDGET, &mut naive)
                .map_err(|e| format!("{}: {e}", unit(w, ds)))?;
            units.push((unit(w, ds), naive.0.summary()));
        }
    }
    for (name, stream) in wide_streams(args.seed) {
        let mut naive = NaiveCounter::default();
        naive.observe_all(&stream);
        units.push((name.to_string(), naive.summary()));
    }
    check::write_summaries(&dir.join("oracle.txt"), &units)?;
    Ok(Ops::default())
}

struct Trace {
    unit: String,
    path: PathBuf,
    wide: bool,
    /// The live full profile it must replay to (suite traces only).
    expect: Option<String>,
}

/// Exact counts of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    chunks: u64,
    events: u64,
    tnv_hits: u64,
    tnv_evictions: u64,
}

/// Span totals of a traced pass, ms.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    open: f64,
    decode: f64,
    observe_suite: f64,
    observe_wide: f64,
    metrics: f64,
    footprint_mb: f64,
}

struct Pass {
    wall_ms: f64,
    /// Per-chunk latency: from asking for the chunk to its profile
    /// update returning.
    acks_ms: Vec<f64>,
    spans: Spans,
    counts: Counts,
    profiles: Vec<Vec<EntityMetrics>>,
}

/// Replays every trace once. `traced` adds a clock read between decode
/// and observe (the split the per-layer metrics need) and the open and
/// metrics spans.
fn pass(traces: &[Trace], traced: bool) -> Result<Pass, String> {
    let mut acks_ms = Vec::with_capacity(1024);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut profiles = Vec::with_capacity(traces.len());
    let mut scratch: Vec<(u32, u64)> = Vec::new();
    let start = Instant::now();
    for t in traces {
        let t0 = Instant::now();
        let file = TraceFile::open(&t.path).map_err(|e| format!("{}: {e}", t.unit))?;
        let mut reader = file.reader().map_err(|e| format!("{}: {e}", t.unit))?;
        if traced {
            spans.open += ms(t0.elapsed());
        }
        let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
        loop {
            let c0 = Instant::now();
            if !reader.next_chunk_into(&mut scratch).map_err(|e| format!("{}: {e}", t.unit))? {
                break;
            }
            if traced {
                let c1 = Instant::now();
                profiler.observe_batch(&scratch);
                let c2 = Instant::now();
                spans.decode += ms(c1 - c0);
                let observe =
                    if t.wide { &mut spans.observe_wide } else { &mut spans.observe_suite };
                *observe += ms(c2 - c1);
                acks_ms.push(ms(c2 - c0));
            } else {
                profiler.observe_batch(&scratch);
                acks_ms.push(ms(c0.elapsed()));
            }
        }
        let m0 = Instant::now();
        let metrics = profiler.metrics();
        std::hint::black_box(aggregate(&metrics));
        if traced {
            spans.metrics += ms(m0.elapsed());
            spans.footprint_mb =
                spans.footprint_mb.max(profiler.footprint_bytes() as f64 / (1 << 20) as f64);
        }
        let tnv = profiler.tnv_events();
        counts.chunks += reader.chunks_read() as u64;
        counts.events += reader.events_read();
        counts.tnv_hits += tnv.hits;
        counts.tnv_evictions += tnv.evictions;
        profiles.push(metrics);
    }
    Ok(Pass { wall_ms: ms(start.elapsed()), acks_ms, spans, counts, profiles })
}

/// Checks every replayed profile: suite traces against the live full
/// profile (byte-identical rendering) and the naive counter, wide
/// traces against the naive counter.
fn check_pass(
    pass: &Pass,
    traces: &[Trace],
    oracle: &BTreeMap<String, Vec<PcSummary>>,
    ops: &mut Ops,
) {
    for (t, metrics) in traces.iter().zip(&pass.profiles) {
        let mut result = match oracle.get(&t.unit) {
            Some(expected) => check::check_profile(expected, metrics),
            None => Err("no oracle answer".to_string()),
        };
        if let (Ok(()), Some(expect)) = (&result, &t.expect) {
            if render_profile_durable(metrics) != *expect {
                result = Err("replay profile differs from the live full profile".to_string());
            }
        }
        ops.record(&t.unit, result);
    }
}

/// Passes until `seconds` have gone by (at least `min_passes`).
fn passes(
    traces: &[Trace],
    oracle: &BTreeMap<String, Vec<PcSummary>>,
    traced: bool,
    seconds: f64,
    min_passes: usize,
    counts: &mut Option<Counts>,
    ops: &mut Ops,
) -> Result<Vec<Pass>, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    while out.len() < min_passes || !remaining(deadline).is_zero() {
        let mut p = pass(traces, traced)?;
        check_pass(&p, traces, oracle, ops);
        ops.record("pass counts", check::same(&p.counts, counts.get_or_insert(p.counts)));
        p.profiles.clear();
        out.push(p);
    }
    Ok(out)
}

/// Layer calls timed alone, ms over every trace: `crc32` over the file
/// bytes, and per-event `observe` against `observe_batch` on the same
/// decoded events.
fn isolated(traces: &[Trace]) -> Result<[f64; 3], String> {
    let mut t = [0.0; 3];
    let mut events: Vec<(u32, u64)> = Vec::new();
    for tr in traces {
        let file = TraceFile::open(&tr.path).map_err(|e| format!("{}: {e}", tr.unit))?;
        let c = Instant::now();
        std::hint::black_box(vp_obs::crc::crc32(file.bytes()));
        t[0] += ms(c.elapsed());
        events.clear();
        file.reader()
            .and_then(|mut r| r.read_to_end_into(&mut events))
            .map_err(|e| format!("{}: {e}", tr.unit))?;
        let c = Instant::now();
        let mut scalar = InstructionProfiler::new(TrackerConfig::with_full());
        for &(pc, value) in &events {
            scalar.observe(pc, value);
        }
        std::hint::black_box(&scalar);
        t[1] += ms(c.elapsed());
        drop(scalar);
        let c = Instant::now();
        let mut batched = InstructionProfiler::new(TrackerConfig::with_full());
        batched.observe_batch(&events);
        std::hint::black_box(&batched);
        t[2] += ms(c.elapsed());
    }
    Ok(t)
}

pub fn measure(args: &Args, dir: &Path, ops: &mut Ops, report: &mut Report) -> Result<(), String> {
    let oracle = check::read_summaries(&dir.join("oracle.txt"))?;
    let mut traces = Vec::new();
    for w in suite() {
        for ds in DATASETS {
            let u = unit(&w, ds);
            let expect_path = dir.join(format!("expect-{}", file_name(&u)));
            let expect = std::fs::read_to_string(&expect_path)
                .map_err(|e| format!("cannot read {}: {e}", expect_path.display()))?;
            traces.push(Trace {
                path: dir.join(file_name(&u)),
                unit: u,
                wide: false,
                expect: Some(expect),
            });
        }
    }
    for name in ["wide/heavy", "wide/diurnal"] {
        traces.push(Trace {
            unit: name.to_string(),
            path: dir.join(file_name(name)),
            wide: true,
            expect: None,
        });
    }
    let mut counts = None;
    // Warm-up pass, checked like the rest.
    passes(&traces, &oracle, false, 0.0, 1, &mut counts, ops)?;
    if !args.trace {
        let timed = passes(&traces, &oracle, false, args.seconds, 3, &mut counts, ops)?;
        let c = counts.expect("a pass ran");
        let acks: Vec<f64> = timed.iter().flat_map(|p| p.acks_ms.iter().copied()).collect();
        let pass_ms = median_by(&timed, |p| p.wall_ms);
        report.set("pass_ms", pass_ms);
        report.set("throughput_mevents_s", c.events as f64 / (pass_ms * 1e3));
        report.set("peak_rss_mb", crate::peak_rss_mb(None).ok_or("cannot read VmHWM")?);
        report.set("ack_p50_ms", stats::percentile(&acks, 50.0));
        report.set("ack_p99_ms", stats::percentile(&acks, 99.0));
        return Ok(());
    }
    // Traced: untraced passes, traced passes, layer calls timed alone,
    // and the serve phase, a quarter of the time each.
    let quarter = args.seconds / 4.0;
    let plain = passes(&traces, &oracle, false, quarter, 3, &mut counts, ops)?;
    let untraced = counts.expect("a pass ran");
    let mut traced_counts = None;
    let traced = passes(&traces, &oracle, true, quarter, 3, &mut traced_counts, ops)?;
    let tc = traced_counts.expect("a pass ran");
    ops.record("traced counts", check::same(&tc, &untraced));
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(quarter);
    let mut alone: Vec<[f64; 3]> = Vec::new();
    while alone.len() < 3 || !remaining(deadline).is_zero() {
        alone.push(isolated(&traces)?);
    }
    crate::ingest::measure_layers(&dir.join("serve"), args.seed, quarter, ops, report)?;
    let alone_median = |i: usize| median(&alone.iter().map(|a| a[i]).collect::<Vec<_>>());
    let (crc, scalar, batched) = (alone_median(0), alone_median(1), alone_median(2));
    let untraced_ms = median_by(&plain, |p| p.wall_ms);
    let traced_ms = median_by(&traced, |p| p.wall_ms);
    report.set("tnv.hits", tc.tnv_hits as f64);
    report.set("tnv.evictions", tc.tnv_evictions as f64);
    report.set("trace.chunks", tc.chunks as f64);
    report.set("trace_codec.open_ms", median_by(&traced, |p| p.spans.open));
    report.set("trace_codec.decode_ms", median_by(&traced, |p| p.spans.decode));
    report.set("crc.crc32_ms", crc);
    report.set("instr_profile.observe_suite_ms", median_by(&traced, |p| p.spans.observe_suite));
    report.set("instr_profile.observe_wide_ms", median_by(&traced, |p| p.spans.observe_wide));
    report.set("instr_profile.observe_scalar_ms", scalar);
    report.set("instr_profile.observe_batched_ms", batched);
    report.set("instr_profile.batch_speedup", scalar / batched);
    report.set("metrics.compute_ms", median_by(&traced, |p| p.spans.metrics));
    report.set("instr_profile.footprint_mb", median_by(&traced, |p| p.spans.footprint_mb));
    let acks = traced.iter().map(|p| p.acks_ms.len()).sum::<usize>();
    report.set("ack.samples", acks as f64);
    report.set("ack.max_percentile", stats::highest_percentile(acks).unwrap_or(0.0));
    report.set("bench.trace_overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0);
    Ok(())
}
