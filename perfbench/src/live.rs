//! `live-suite`: the ten suite programs on their test and train inputs,
//! profiled live through `SuiteRunner` (all register-defining
//! instructions, one job) in full, convergent and adaptive modes.
//!
//! The emulator, hook dispatch and profile update do all the work; no
//! codec, disk or socket code runs. The inputs are the fixed sets in
//! `vp_workloads`, so the seed does not change this workload.
//!
//! The traced run adds the layer ladder: the same programs and inputs
//! run uninstrumented, with an empty analysis, and with each profiler
//! attached directly, so adjacent rungs give each layer's self time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use vp_bench::{ProfileMode, SuiteRunner, WorkloadProfile};
use vp_core::{
    AdaptiveProfiler, ConvergentConfig, ConvergentProfiler, EntityMetrics, InstructionProfiler,
    PhaseBudget, TrackerConfig,
};
use vp_instrument::{Analysis, Instrumenter, Selection};
use vp_obs::CounterId;
use vp_workloads::{suite, DataSet, Workload};

use crate::check::{self, NaiveAnalysis, Ops, PcSummary};
use crate::report::Report;
use crate::stats::{self, median, median_by, ms};
use crate::{remaining, Args, BUDGET};

pub const DATASETS: [DataSet; 2] = [DataSet::Test, DataSet::Train];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Mode {
    Full,
    Convergent,
    Adaptive,
}

const MODES: [Mode; 3] = [Mode::Full, Mode::Convergent, Mode::Adaptive];

/// The runner `vprof profile-suite --all [--convergent|--adaptive]`
/// builds, with one job.
fn runner(mode: Mode) -> SuiteRunner {
    let base = SuiteRunner::new().jobs(1).selection(Selection::RegisterDefining);
    match mode {
        Mode::Full => base,
        Mode::Convergent => base
            .tracker(TrackerConfig::default())
            .mode(ProfileMode::Convergent(ConvergentConfig::default())),
        Mode::Adaptive => base
            .tracker(TrackerConfig::default())
            .mode(ProfileMode::Adaptive(ConvergentConfig::default(), PhaseBudget::default())),
    }
}

pub fn unit(w: &Workload, ds: DataSet) -> String {
    format!("{}/{}", w.name(), ds.name())
}

/// One set-up sample: building the programs and inputs, seconds per
/// build. It takes under a millisecond, so the sample repeats it 200
/// times.
pub fn setup_sample() -> f64 {
    let t = Instant::now();
    for _ in 0..200 {
        std::hint::black_box(suite());
    }
    t.elapsed().as_secs_f64() / 200.0
}

/// Writes the naive counter's answer for every program and input.
pub fn references(dir: &Path) -> Result<Ops, String> {
    let mut units = Vec::new();
    for w in suite() {
        for ds in DATASETS {
            let mut naive = NaiveAnalysis::default();
            Instrumenter::new()
                .select(Selection::RegisterDefining)
                .run(w.program(), w.machine_config(ds), BUDGET, &mut naive)
                .map_err(|e| format!("{}: {e}", unit(&w, ds)))?;
            units.push((unit(&w, ds), naive.0.summary()));
        }
    }
    check::write_summaries(&dir.join("oracle.txt"), &units)?;
    Ok(Ops::default())
}

/// Exact counts of one pass; equal in every pass and run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    instructions: u64,
    analysis_events: u64,
    tnv_hits: u64,
    tnv_evictions: u64,
    conv_profiled: u64,
    conv_skipped: u64,
}

/// One pass: every program, input and mode, one `SuiteRunner` call
/// each.
struct Pass {
    wall_ms: f64,
    /// Per-profile latency: the call that returned it. In the traced
    /// run these are the pass's spans.
    acks_ms: Vec<f64>,
    profiles: Vec<(String, Mode, WorkloadProfile)>,
}

/// The measuring side: the programs, one runner per mode, and the
/// references every pass is checked against.
struct Live {
    workloads: Vec<Workload>,
    runners: [SuiteRunner; 3],
    oracle: BTreeMap<String, Vec<PcSummary>>,
    /// Convergent and adaptive profiles of the first pass.
    first: BTreeMap<(String, Mode), Vec<EntityMetrics>>,
}

impl Live {
    fn pass(&self) -> Pass {
        let mut acks_ms = Vec::with_capacity(self.workloads.len() * 6);
        let mut profiles = Vec::with_capacity(self.workloads.len() * 6);
        let start = Instant::now();
        for ds in DATASETS {
            for (runner, mode) in self.runners.iter().zip(MODES) {
                for w in &self.workloads {
                    let t = Instant::now();
                    let mut out = runner.run_workloads(std::slice::from_ref(w), ds);
                    acks_ms.push(ms(t.elapsed()));
                    let profile = out.workloads.pop().expect("one workload in, one profile out");
                    profiles.push((unit(w, ds), mode, profile));
                }
            }
        }
        Pass { wall_ms: ms(start.elapsed()), acks_ms, profiles }
    }

    /// Checks every profile of a pass and returns its counts. Full
    /// profiles go against the naive counter; convergent and adaptive
    /// profiles against the first pass's (they are deterministic), with
    /// a profiled fraction in (0, 1].
    fn check_pass(&mut self, pass: &Pass, ops: &mut Ops) -> Counts {
        let mut c = Counts::default();
        for (unit, mode, p) in &pass.profiles {
            c.instructions += p.instructions;
            c.analysis_events += p.events.get(CounterId::InstrEvents);
            c.tnv_hits += p.events.get(CounterId::TnvHits);
            c.tnv_evictions += p.events.get(CounterId::TnvEvictions);
            if *mode == Mode::Convergent {
                c.conv_profiled += p.events.get(CounterId::ConvProfiled);
                c.conv_skipped += p.events.get(CounterId::ConvSkipped);
            }
            let result = if *mode == Mode::Full {
                match self.oracle.get(unit) {
                    Some(expected) => check::check_profile(expected, &p.metrics),
                    None => Err("no oracle answer".to_string()),
                }
            } else if !(p.profile_fraction > 0.0 && p.profile_fraction <= 1.0) {
                Err(format!("profiled fraction {}", p.profile_fraction))
            } else {
                let first =
                    self.first.entry((unit.clone(), *mode)).or_insert_with(|| p.metrics.clone());
                check::same(&p.metrics, first)
            };
            ops.record(&format!("{unit} {mode:?}"), result);
        }
        c
    }

    /// Passes until `seconds` have gone by and at least `min_acks`
    /// profiles were timed (the p99 rule), checking each pass.
    fn passes(
        &mut self,
        counts: &mut Option<Counts>,
        seconds: f64,
        min_acks: usize,
        ops: &mut Ops,
    ) -> Vec<Pass> {
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut out: Vec<Pass> = Vec::new();
        let mut acks = 0;
        while out.len() < 3 || !remaining(deadline).is_zero() || acks < min_acks {
            let p = self.pass();
            let c = self.check_pass(&p, ops);
            ops.record("pass counts", check::same(&c, counts.get_or_insert(c)));
            acks += p.acks_ms.len();
            // The profiles are checked; keep only the timings.
            out.push(Pass { profiles: Vec::new(), ..p });
        }
        out
    }
}

struct Empty;
impl Analysis for Empty {}

/// One ladder repetition: summed time of each rung over every program
/// and input, in ms: `[sim, empty, full, convergent, adaptive]`, and
/// the counts of the three profiled rungs, which must equal a pass's.
fn ladder(workloads: &[Workload]) -> Result<([f64; 5], Counts), String> {
    let mut t = [0.0; 5];
    let mut counts = Counts::default();
    let mut count = |run: &vp_instrument::InstrumentedRun, tnv: vp_obs::TnvEvents| {
        counts.instructions += run.outcome.instructions;
        counts.analysis_events += run.counts.instr_events;
        counts.tnv_hits += tnv.hits;
        counts.tnv_evictions += tnv.evictions;
    };
    let instr = Instrumenter::new().select(Selection::RegisterDefining);
    for w in workloads {
        for ds in DATASETS {
            let fail = |e: vp_sim::SimError| format!("{}: {e}", unit(w, ds));
            let c = Instant::now();
            std::hint::black_box(w.run(ds, BUDGET).map_err(fail)?);
            t[0] += ms(c.elapsed());
            let c = Instant::now();
            std::hint::black_box(
                instr.run(w.program(), w.machine_config(ds), BUDGET, &mut Empty).map_err(fail)?,
            );
            t[1] += ms(c.elapsed());
            let c = Instant::now();
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            let run = instr.run(w.program(), w.machine_config(ds), BUDGET, &mut p).map_err(fail)?;
            std::hint::black_box(&p);
            t[2] += ms(c.elapsed());
            count(&run, p.tnv_events());
            drop(p);
            let c = Instant::now();
            let mut p =
                ConvergentProfiler::new(TrackerConfig::default(), ConvergentConfig::default());
            let run = instr.run(w.program(), w.machine_config(ds), BUDGET, &mut p).map_err(fail)?;
            std::hint::black_box(&p);
            t[3] += ms(c.elapsed());
            count(&run, p.tnv_events());
            drop(p);
            let c = Instant::now();
            let mut p = AdaptiveProfiler::new(
                TrackerConfig::default(),
                ConvergentConfig::default(),
                PhaseBudget::default(),
            );
            let run = instr.run(w.program(), w.machine_config(ds), BUDGET, &mut p).map_err(fail)?;
            std::hint::black_box(&p);
            t[4] += ms(c.elapsed());
            count(&run, p.tnv_events());
            drop(p);
        }
    }
    Ok((t, counts))
}

pub fn measure(args: &Args, dir: &Path, ops: &mut Ops, report: &mut Report) -> Result<(), String> {
    let mut live = Live {
        workloads: suite(),
        runners: MODES.map(runner),
        oracle: check::read_summaries(&dir.join("oracle.txt"))?,
        first: BTreeMap::new(),
    };
    // Warm-up pass: caches, allocator, and the references for the
    // convergent and adaptive determinism checks.
    let warm = live.pass();
    let mut counts = Some(live.check_pass(&warm, ops));
    drop(warm);
    let counts_of = |c: Option<Counts>| c.expect("at least one pass ran");
    if !args.trace {
        let timed = live.passes(&mut counts, args.seconds, stats::P99_MIN_SAMPLES, ops);
        let c = counts_of(counts);
        let acks: Vec<f64> = timed.iter().flat_map(|p| p.acks_ms.iter().copied()).collect();
        let pass_ms = median_by(&timed, |p| p.wall_ms);
        report.set("pass_ms", pass_ms);
        report.set("throughput_mevents_s", c.instructions as f64 / (pass_ms * 1e3));
        report.set("peak_rss_mb", crate::peak_rss_mb(None).ok_or("cannot read VmHWM")?);
        report.set("ack_p50_ms", stats::percentile(&acks, 50.0));
        report.set("ack_p99_ms", stats::percentile(&acks, 99.0));
        return Ok(());
    }
    // Traced: untraced passes, traced passes (per-profile spans), ladder.
    let third = args.seconds / 3.0;
    let plain = live.passes(&mut counts, third, 0, ops);
    let untraced_counts = counts_of(counts);
    let mut traced_counts = None;
    let traced = live.passes(&mut traced_counts, third, 0, ops);
    let tc = counts_of(traced_counts);
    ops.record("traced counts", check::same(&tc, &untraced_counts));
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(third);
    let mut rungs: Vec<[f64; 5]> = Vec::new();
    while rungs.len() < 3 || !remaining(deadline).is_zero() {
        let (t, lc) = ladder(&live.workloads)?;
        ops.record(
            "ladder counts",
            check::same(&lc, &Counts { conv_profiled: 0, conv_skipped: 0, ..tc }),
        );
        rungs.push(t);
    }
    let rung = |i: usize| median(&rungs.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (sim, empty, full, conv, adaptive) = (rung(0), rung(1), rung(2), rung(3), rung(4));
    let untraced_ms = median_by(&plain, |p| p.wall_ms);
    let traced_ms = median_by(&traced, |p| p.wall_ms);
    // The suite's instructions once per program and input (the ladder
    // runs each once per rung); the pass runs them once per mode.
    let ladder_instructions = tc.instructions as f64 / MODES.len() as f64;
    report.set("sim.run_ms", sim);
    report.set("sim.minstr_s", ladder_instructions / (sim * 1e3));
    report.set("runner.dispatch_ms", empty - sim);
    report.set("instr_profile.full_ms", full - empty);
    report.set("convergent.update_ms", conv - empty);
    report.set("phase.adaptive_ms", adaptive - conv);
    report.set("phase.adaptive_over_convergent_pct", (adaptive - conv) / conv * 100.0);
    report.set(
        "convergent.profiled_fraction",
        tc.conv_profiled as f64 / (tc.conv_profiled + tc.conv_skipped) as f64,
    );
    report.set("live.slowdown_full", full / sim);
    report.set("live.slowdown_convergent", conv / sim);
    report.set("live.slowdown_adaptive", adaptive / sim);
    report.set("live.unattributed_ms", traced_ms - (full + conv + adaptive));
    report.set("live.instructions", tc.instructions as f64);
    report.set("live.analysis_events", tc.analysis_events as f64);
    report.set("tnv.hits", tc.tnv_hits as f64);
    report.set("tnv.evictions", tc.tnv_evictions as f64);
    let acks = traced.iter().map(|p| p.acks_ms.len()).sum::<usize>();
    report.set("ack.samples", acks as f64);
    report.set("ack.max_percentile", stats::highest_percentile(acks).unwrap_or(0.0));
    report.set("bench.trace_overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0);
    Ok(())
}
