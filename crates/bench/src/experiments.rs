//! The experiment registry: every table and figure of the paper, E1–E17,
//! as one entry of [`REGISTRY`], served by `vprof exp <id|all>`.
//!
//! Each entry renders its section — a `==== Ek: title ====` heading, the
//! report body and a blank separator line — as an [`ExpReport`]: the
//! human-readable text plus the telemetry records behind it. Concatenating
//! every section in registry order gives `experiments.out`, the committed
//! paper record, which `tests/golden.rs` compares against a fresh run
//! section by section.
//!
//! Determinism contract: with wall-clock fields excluded (they are listed
//! in [`vp_obs::telemetry::VOLATILE_KEYS`]), every record and every table
//! line is byte-identical across runs and across [`RunConfig::jobs`]
//! settings. The one exception is the text of the [`Experiment::timed`]
//! entry (E12), whose slowdown columns are wall-clock measurements.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};

use vp_asm::Program;
use vp_core::{
    aggregate, compare, correlation, group_by_class, invariance_histogram, render_metric_table,
    report::row, temporal::TemporalProfiler, track::TrackerConfig, ConvergentConfig,
    ConvergentProfiler, EntityMetrics, FullProfile, InstructionProfiler, MemoryProfiler,
    ParamProfiler, ParamSlot, Policy, ReportRow, SampleStrategy, SampledProfiler, TnvTable,
};
use vp_instrument::{parallel_map, Analysis, Instrumenter, Selection};
use vp_isa::OpClass;
use vp_obs::recorder::Stopwatch;
use vp_obs::telemetry::record;
use vp_obs::{CounterId, Counts, Json};
use vp_predict::{
    collect_pathed_stream, evaluate as eval_predictor, evaluate_pathed, FilteredPredictor,
    HybridPredictor, LastValuePredictor, Predictor, PredictorStats, StridePredictor,
    TwoLevelPredictor,
};
use vp_sim::stats::quantile_table;
use vp_sim::{Cfg, InputSet, Machine, MachineConfig};
use vp_specialize::{
    demo, evaluate as eval_specialized, find_candidates, specialize, specialize_all,
    specialize_multi, Candidate, CandidateOptions, MultiCandidate,
};
use vp_workloads::{DataSet, Workload};

use crate::{all_instr_profile, load_profile, value_stream, SuiteRunner, BUDGET};

/// One experiment's output: the report text and the telemetry records
/// (schema-versioned, see [`vp_obs::telemetry`]) that carry the same
/// numbers machine-readably.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpReport {
    /// The rendered human-readable report (tables included).
    pub text: String,
    /// Telemetry records mirroring the report's numbers.
    pub records: Vec<Json>,
}

impl ExpReport {
    fn text(text: String) -> ExpReport {
        ExpReport { text, records: Vec::new() }
    }
}

/// How an experiment run may use the machine. Neither knob changes a
/// deterministic number: `jobs` only fans workload runs out over threads,
/// and `reps` only sets how many timed runs each of E12's wall-clock
/// medians takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads for the experiments that fan out (E1, E8);
    /// `0` = available parallelism.
    pub jobs: usize,
    /// Timed runs per E12 median, after one untimed warm-up.
    pub reps: usize,
}

impl Default for RunConfig {
    /// What `vprof exp` runs with: every core, medians of 5.
    fn default() -> RunConfig {
        RunConfig { jobs: 0, reps: 5 }
    }
}

/// One registry entry: a paper table or figure and the code that
/// reproduces it.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// `"E1"` ..= `"E17"`.
    pub id: &'static str,
    /// The section heading's title.
    pub title: &'static str,
    /// The report text carries wall-clock times, so only its masked
    /// records are reproducible.
    pub timed: bool,
    body: fn(&[Workload], RunConfig) -> ExpReport,
}

impl Experiment {
    /// Runs the experiment over `workloads` and renders its section of
    /// the paper record: heading, report body, blank separator line.
    pub fn run(&self, workloads: &[Workload], config: RunConfig) -> ExpReport {
        let body = (self.body)(workloads, config);
        let text = format!("==== {}: {} ====\n{}\n", self.id, self.title, body.text);
        ExpReport { text, records: body.records }
    }
}

const fn entry(
    id: &'static str,
    title: &'static str,
    body: fn(&[Workload], RunConfig) -> ExpReport,
) -> Experiment {
    Experiment { id, title, timed: false, body }
}

/// Every experiment, in paper-record order.
pub static REGISTRY: [Experiment; 17] = [
    entry("E1", "benchmark programs and data sets (Table III.1)", |ws, c| benchmarks(ws, c.jobs)),
    entry("E2", "load value profiles (test input)", |ws, _| loads(ws)),
    entry("E3", "all register-defining instruction value profiles (test input)", |ws, _| {
        all_instrs(ws)
    }),
    entry("E4", "invariance distribution (execution-weighted, suite-wide)", |ws, _| {
        inv_histogram(ws)
    }),
    entry("E5", "value invariance by instruction class (suite-wide, test input)", |ws, _| {
        by_class(ws)
    }),
    entry("E6", "TNV replacement policy accuracy (|Inv-Top(N) - Inv-All(N)|)", |ws, _| {
        tnv_policy(ws)
    }),
    entry("E7", "convergent profiler: overhead and accuracy vs full profiling", |ws, _| {
        convergent(ws)
    }),
    entry("E8", "test vs train data sets (Table V.5)", |ws, c| train_test(ws, c.jobs)),
    entry("E9", "memory location value profiles (stored values, test input)", |ws, _| memory(ws)),
    entry("E10", "procedure parameter / return value profiles (test input)", |ws, _| params(ws)),
    entry("E11", "basic block quantile table (Table IV.1, test input)", |ws, _| bb_quantile(ws)),
    Experiment {
        timed: true,
        ..entry(
            "E12",
            "profiling overhead: events per instruction and wall-clock slowdown",
            |ws, c| overhead(ws, c.reps),
        )
    },
    entry("E13", "code specialization on semi-invariant values", |ws, _| specialization(ws)),
    entry("E14", "value predictors on load streams; profile-guided filtering", |ws, _| {
        prediction(ws)
    }),
    entry("E15", "path-sensitive last-value prediction (extension)", |ws, _| path(ws)),
    entry("E16", "interval profiles: invariance over time (extension)", |ws, _| temporal(ws)),
    entry("E17", "multi-way specialization on top-k TNV values (extension)", |_, _| multiway()),
];

/// A `vprof exp` argument that names no experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment(pub String);

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown experiment `{}` (valid: {})", self.0, valid_ids())
    }
}

impl std::error::Error for UnknownExperiment {}

/// The ids [`select`] accepts, for error messages: `E1, E2, …, E17 or all`.
pub fn valid_ids() -> String {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    format!("{} or all", ids.join(", "))
}

/// The registry entries `id` names: one experiment, or all of them for
/// `"all"`.
pub fn select(id: &str) -> Result<&'static [Experiment], UnknownExperiment> {
    if id == "all" {
        return Ok(&REGISTRY);
    }
    REGISTRY
        .iter()
        .find(|e| e.id == id)
        .map(std::slice::from_ref)
        .ok_or_else(|| UnknownExperiment(id.to_string()))
}

/// Splits a rendered paper record into its sections, each keyed by its
/// experiment id and running from its heading line up to the next one.
pub fn sections(record: &str) -> Vec<(&str, &str)> {
    let starts: Vec<usize> = record
        .match_indices("==== E")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || record.as_bytes()[i - 1] == b'\n')
        .collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &start)| {
            let end = starts.get(k + 1).copied().unwrap_or(record.len());
            let section = &record[start..end];
            let id = section["==== ".len()..].split(':').next().unwrap_or_default();
            (id, section)
        })
        .collect()
}

/// E1 — Table III.1: the benchmark suite, its data sets and dynamic
/// instruction counts. `jobs` fans the workload runs out over worker
/// threads; the report is identical either way.
pub fn benchmarks(workloads: &[Workload], jobs: usize) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>14} {:>14} description",
        "program", "static size", "test Kinstrs", "train Kinstrs"
    );
    let rows = parallel_map(jobs, workloads, |w| {
        let test = w.run(DataSet::Test, BUDGET).expect("test run").instructions;
        let train = w.run(DataSet::Train, BUDGET).expect("train run").instructions;
        (test, train)
    });
    let mut records =
        vec![record("experiment", "E1", vec![("workloads", Json::U64(workloads.len() as u64))])];
    for (w, (test, train)) in workloads.iter().zip(rows) {
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>14.1} {:>14.1} {}",
            w.name(),
            w.program().len(),
            test as f64 / 1_000.0,
            train as f64 / 1_000.0,
            w.description()
        );
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E1".to_string())),
                ("static_size", Json::U64(w.program().len() as u64)),
                ("test_instructions", Json::U64(test)),
                ("train_instructions", Json::U64(train)),
            ],
        ));
    }
    ExpReport { text, records }
}

/// A per-benchmark metric table over the test input, one row per workload
/// (E2 for loads, E3 for every register-defining instruction).
fn metric_table(
    workloads: &[Workload],
    title: &str,
    profile: fn(&Workload, DataSet) -> InstructionProfiler,
) -> ExpReport {
    let rows: Vec<ReportRow> = workloads
        .iter()
        .map(|w| ReportRow {
            label: w.name().to_string(),
            aggregate: profile(w, DataSet::Test).aggregate(),
        })
        .collect();
    ExpReport::text(format!("{}\n", render_metric_table(title, &rows)))
}

/// E2 — the load-value profile table: per benchmark, `LVP`, `Inv-Top(1)`,
/// `Inv-Top(N)` (TNV estimate), `Inv-All` (exact), `%zero` and `Diff(L/I)`
/// over all load instructions, execution-weighted.
///
/// Paper shape: load values are highly invariant on average (roughly half
/// of dynamic loads covered by the top value), `Inv-Top` tracks `Inv-All`
/// closely, and LVP understates invariance when values interleave.
fn loads(workloads: &[Workload]) -> ExpReport {
    metric_table(workloads, "loads, execution-weighted (values in %)", load_profile)
}

/// E3 — the same metric table as E2 over *every* register-defining
/// instruction, the paper's broader profiling universe.
///
/// Paper shape: aggregate invariance is lower than for loads alone
/// (address arithmetic and loop counters vary), yet a substantial fraction
/// of all dynamic instructions still produce their top value.
fn all_instrs(workloads: &[Workload]) -> ExpReport {
    metric_table(
        workloads,
        "all defining instructions, execution-weighted (values in %)",
        all_instr_profile,
    )
}

/// E4 — the invariance-distribution figures: for loads and for all
/// defining instructions, the fraction of dynamic executions whose
/// instruction falls into each 10%-wide `Inv-Top(1)` bucket.
///
/// Paper shape: the distribution is strongly bimodal — big masses in the
/// 0–10% bucket (varying instructions) and the 90–100% bucket (invariant
/// ones), with little in between. That bimodality is what makes
/// "semi-invariant" a usable classification.
fn inv_histogram(workloads: &[Workload]) -> ExpReport {
    let mut load_metrics = Vec::new();
    let mut all_metrics = Vec::new();
    for w in workloads {
        load_metrics.extend(load_profile(w, DataSet::Test).metrics());
        all_metrics.extend(all_instr_profile(w, DataSet::Test).metrics());
    }
    let mut text = String::new();
    let mut figure = |title: &str, buckets: [f64; 10]| {
        let _ = writeln!(text, "{title}");
        for (i, weight) in buckets.iter().enumerate() {
            let bar = "#".repeat((weight * 60.0).round() as usize);
            let _ = writeln!(
                text,
                "  {:>3}-{:<4} {:>6.1}% {bar}",
                i * 10,
                format!("{}%", (i + 1) * 10),
                weight * 100.0
            );
        }
        let _ = writeln!(text);
    };
    figure(
        "loads: fraction of dynamic executions per Inv-Top(1) bucket",
        invariance_histogram(&load_metrics, |m| m.inv_top1),
    );
    figure(
        "all defining instructions: fraction per Inv-Top(1) bucket",
        invariance_histogram(&all_metrics, |m| m.inv_top1),
    );
    figure(
        "loads: fraction per Inv-Top(N) bucket (whole TNV table)",
        invariance_histogram(&load_metrics, |m| m.inv_topn),
    );
    ExpReport::text(text)
}

/// E5 — invariance by instruction class: the paper's per-opcode-type
/// breakdown of value invariance and last-value predictability.
///
/// Paper shape: loads and logic/compare results are the most invariant
/// classes; plain integer ALU (dominated by address arithmetic and loop
/// counters) is the least; multiplies and FP sit in between.
fn by_class(workloads: &[Workload]) -> ExpReport {
    let mut per_class: BTreeMap<OpClass, Vec<EntityMetrics>> = BTreeMap::new();
    for w in workloads {
        let profiler = all_instr_profile(w, DataSet::Test);
        for (class, ms) in group_by_class(w.program(), &profiler.metrics()) {
            per_class.entry(class).or_default().extend(ms);
        }
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>14} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "class", "execs", "LVP%", "InvT1%", "InvTN%", "InvA1%", "%zero"
    );
    for (class, metrics) in &per_class {
        let a = aggregate(metrics);
        let _ = writeln!(
            text,
            "{:<10} {:>14} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            class.name(),
            a.executions,
            a.lvp * 100.0,
            a.inv_top1 * 100.0,
            a.inv_topn * 100.0,
            a.inv_all1.unwrap_or(0.0) * 100.0,
            a.pct_zero * 100.0,
        );
    }
    ExpReport::text(text)
}

fn run_convergent(w: &Workload, config: ConvergentConfig) -> ConvergentProfiler {
    let mut profiler = ConvergentProfiler::new(TrackerConfig::default(), config);
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
        .expect("convergent run");
    profiler
}

/// E7 — the convergent profiler: overhead (fraction of executions
/// profiled) and accuracy (invariance error versus the full profile), per
/// benchmark, plus a sweep over sampler aggressiveness and an ablation
/// against flat sampling at a matched budget.
pub fn convergent(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>10} {:>10} {:>12} {:>12}",
        "program", "full inv%", "conv inv%", "profiled%", "mean|diff|"
    );
    let mut records =
        vec![record("experiment", "E7", vec![("workloads", Json::U64(workloads.len() as u64))])];
    for w in workloads {
        let full = load_profile(w, DataSet::Test);
        let conv = run_convergent(w, ConvergentConfig::default());
        let cmp = compare(&full.metrics(), &conv.metrics());
        let _ = writeln!(
            text,
            "{:<10} {:>10.1} {:>10.1} {:>11.1}% {:>12.4}",
            w.name(),
            full.aggregate().inv_top1 * 100.0,
            conv.aggregate().inv_top1 * 100.0,
            conv.overall_profile_fraction() * 100.0,
            cmp.mean_abs_inv_diff,
        );
        let mut events = Counts::new();
        conv.events().add_to(&mut events);
        conv.tnv_events().add_to(&mut events);
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E7".to_string())),
                ("full_inv_top1", Json::F64(full.aggregate().inv_top1)),
                ("conv_inv_top1", Json::F64(conv.aggregate().inv_top1)),
                ("profile_fraction", Json::F64(conv.overall_profile_fraction())),
                ("mean_abs_inv_diff", Json::F64(cmp.mean_abs_inv_diff)),
                ("events", events.to_json()),
            ],
        ));
    }

    let _ = writeln!(text, "\nsampler sweep (suite means): burst length x backoff aggressiveness");
    let _ = writeln!(text, "{:<26} {:>12} {:>12}", "configuration", "profiled%", "mean|diff|");
    let sweeps = [
        (
            "burst 500, skip 1k, x2",
            ConvergentConfig {
                burst: 500,
                initial_skip: 1_000,
                backoff: 2.0,
                ..ConvergentConfig::default()
            },
        ),
        ("burst 200, skip 2k, x4", ConvergentConfig::default()),
        (
            "burst 100, skip 4k, x8",
            ConvergentConfig {
                burst: 100,
                initial_skip: 4_000,
                backoff: 8.0,
                ..ConvergentConfig::default()
            },
        ),
        (
            "burst 50, skip 8k, x16",
            ConvergentConfig {
                burst: 50,
                initial_skip: 8_000,
                backoff: 16.0,
                ..ConvergentConfig::default()
            },
        ),
    ];
    for (name, config) in sweeps {
        let mut profiled = 0.0;
        let mut err = 0.0;
        for w in workloads {
            let full = load_profile(w, DataSet::Test);
            let conv = run_convergent(w, config);
            profiled += conv.overall_profile_fraction();
            err += compare(&full.metrics(), &conv.metrics()).mean_abs_inv_diff;
        }
        let n = workloads.len() as f64;
        let _ = writeln!(text, "{:<26} {:>11.1}% {:>12.4}", name, profiled / n * 100.0, err / n);
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E7-sweep".to_string())),
                ("profile_fraction", Json::F64(profiled / n)),
                ("mean_abs_inv_diff", Json::F64(err / n)),
            ],
        ));
    }

    // Ablation: the convergent sampler against CPI-style flat sampling
    // (Anderson et al. [1]) at a matched profiling budget. The convergent
    // profiler spends its budget where profiles have NOT converged, so at
    // equal profiled fractions it should be at least as accurate.
    let _ = writeln!(text, "\nablation vs flat sampling (suite means):");
    let _ = writeln!(text, "{:<26} {:>12} {:>12}", "scheme", "profiled%", "mean|diff|");
    let mut conv_frac = 0.0;
    let mut conv_err = 0.0;
    for w in workloads {
        let full = load_profile(w, DataSet::Test);
        let conv = run_convergent(w, ConvergentConfig::default());
        conv_frac += conv.overall_profile_fraction();
        conv_err += compare(&full.metrics(), &conv.metrics()).mean_abs_inv_diff;
    }
    conv_frac /= workloads.len() as f64;
    conv_err /= workloads.len() as f64;
    let _ = writeln!(
        text,
        "{:<26} {:>11.1}% {:>12.4}",
        "convergent (default)",
        conv_frac * 100.0,
        conv_err
    );
    records.push(record(
        "measure",
        "convergent (default)",
        vec![
            ("exp", Json::Str("E7-ablation".to_string())),
            ("profile_fraction", Json::F64(conv_frac)),
            ("mean_abs_inv_diff", Json::F64(conv_err)),
        ],
    ));

    // Match the flat samplers' period to the convergent profiler's spend.
    let period = (1.0 / conv_frac).round().max(1.0) as u64;
    for (name, strategy) in [
        (format!("periodic 1/{period}"), SampleStrategy::Periodic { period }),
        (format!("random   1/{period}"), SampleStrategy::Random { period }),
    ] {
        let mut frac = 0.0;
        let mut err = 0.0;
        for w in workloads {
            let full = load_profile(w, DataSet::Test);
            let mut sampled = SampledProfiler::new(TrackerConfig::default(), strategy);
            Instrumenter::new()
                .select(Selection::LoadsOnly)
                .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut sampled)
                .expect("sampled run");
            frac += sampled.overall_profile_fraction();
            err += compare(&full.metrics(), &sampled.metrics()).mean_abs_inv_diff;
        }
        let n = workloads.len() as f64;
        let _ = writeln!(text, "{:<26} {:>11.1}% {:>12.4}", name, frac / n * 100.0, err / n);
        records.push(record(
            "measure",
            &name,
            vec![
                ("exp", Json::Str("E7-ablation".to_string())),
                ("profile_fraction", Json::F64(frac / n)),
                ("mean_abs_inv_diff", Json::F64(err / n)),
            ],
        ));
    }
    ExpReport { text, records }
}

fn policy_error(streams: &[Vec<u64>], capacity: usize, policy: Policy, n: usize) -> f64 {
    let mut weighted = 0.0f64;
    let mut total = 0u64;
    for stream in streams {
        let mut tnv = TnvTable::new(capacity, policy);
        let mut full = FullProfile::new();
        for &v in stream {
            tnv.observe(v);
            full.observe(v);
        }
        let err = (tnv.inv_top(n) - full.inv_all(n)).abs();
        weighted += err * stream.len() as f64;
        total += stream.len() as u64;
    }
    if total == 0 {
        0.0
    } else {
        weighted / total as f64
    }
}

/// E6 — TNV replacement-policy accuracy across table sizes and policies:
/// execution-weighted mean `|Inv-Top(N) - Inv-All(N)|`, suite-wide, plus
/// the LFU lock-in stress case.
///
/// Streams are collected per PC into a sorted map, so the error sums run
/// in a deterministic order (summing f64 in hash-map order used to make
/// the low digits run-dependent).
pub fn tnv_policy(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();

    // Gather per-load value streams across the suite, in (workload, pc)
    // order so every float accumulation below is order-stable.
    let mut streams: Vec<Vec<u64>> = Vec::new();
    for w in workloads {
        let mut per_pc: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (pc, v) in value_stream(w, DataSet::Test, Selection::LoadsOnly) {
            per_pc.entry(pc).or_default().push(v);
        }
        streams.extend(per_pc.into_values());
    }
    let total_values: usize = streams.iter().map(Vec::len).sum();
    let _ = writeln!(text, "{} load value streams, {} total values\n", streams.len(), total_values);
    let mut records = vec![record(
        "experiment",
        "E6",
        vec![
            ("workloads", Json::U64(workloads.len() as u64)),
            ("streams", Json::U64(streams.len() as u64)),
            ("values", Json::U64(total_values as u64)),
        ],
    )];

    let _ = writeln!(text, "{:<26} {:>8} {:>8} {:>8} {:>8}", "policy", "N=2", "N=4", "N=8", "N=16");
    type PolicyFactory = Box<dyn Fn(usize) -> Policy>;
    let configs: Vec<(String, PolicyFactory)> = vec![
        (
            "lfu-clear (paper)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear { steady: cap / 2, clear_interval: 2000 }),
        ),
        (
            "lfu-clear (interval 500)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear { steady: cap / 2, clear_interval: 500 }),
        ),
        (
            "lfu-clear (steady 1/4)".to_string(),
            Box::new(|cap: usize| Policy::LfuClear {
                steady: (cap / 4).max(1),
                clear_interval: 2000,
            }),
        ),
        ("lfu".to_string(), Box::new(|_| Policy::Lfu)),
        ("lru".to_string(), Box::new(|_| Policy::Lru)),
    ];
    for (name, make) in &configs {
        let errs: Vec<f64> = [2usize, 4, 8, 16]
            .iter()
            .map(|&cap| policy_error(&streams, cap, make(cap), cap))
            .collect();
        let cells: Vec<String> = errs.iter().map(|e| format!("{e:8.4}")).collect();
        let _ = writeln!(text, "{:<26} {}", name, cells.join(" "));
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E6".to_string())),
                ("err_n2", Json::F64(errs[0])),
                ("err_n4", Json::F64(errs[1])),
                ("err_n8", Json::F64(errs[2])),
                ("err_n16", Json::F64(errs[3])),
            ],
        ));
    }

    // The stress case the clearing policy exists for (the LFU lock-in
    // pathology): an early phase fills the table with moderately hot
    // values; afterwards a new value dominates but arrives interleaved
    // with one-off noise values. Under plain LFU every noise miss evicts
    // the newcomer (it is always the minimum-count entry), so the new hot
    // value can never accumulate. Clearing the bottom part gives it free
    // slots and a full interval to out-count the stale steady entries.
    let _ =
        writeln!(text, "\nLFU lock-in stress: 4 early values x500, then 90% value 9 + 10% noise:");
    let mut stress: Vec<u64> = Vec::new();
    for i in 0..2_000u64 {
        stress.push(1 + i % 4);
    }
    for i in 0..48_000u64 {
        stress.push(if i % 10 == 9 { 1_000 + i } else { 9 });
    }
    let exact = 0.9 * 48_000.0 / 50_000.0 * 100.0;
    for (name, policy) in [
        ("lfu-clear", Policy::LfuClear { steady: 2, clear_interval: 2000 }),
        ("lfu", Policy::Lfu),
        ("lru", Policy::Lru),
    ] {
        let mut tnv = TnvTable::new(4, policy);
        for &v in &stress {
            tnv.observe(v);
        }
        let _ = writeln!(
            text,
            "  {:<10} top value {:?} (true top is 9), Inv-Top(1) {:5.1}% (exact {exact:.1}%)",
            name,
            tnv.top_value(),
            tnv.inv_top(1) * 100.0
        );
        let mut events = Counts::new();
        tnv.events().add_to(&mut events);
        records.push(record(
            "measure",
            name,
            vec![
                ("exp", Json::Str("E6-stress".to_string())),
                ("top_value", tnv.top_value().map_or(Json::Null, Json::U64)),
                ("inv_top1", Json::F64(tnv.inv_top(1))),
                ("events", events.to_json()),
            ],
        ));
    }
    ExpReport { text, records }
}

/// E8 — Table V.5: load-value profiles on the *test* versus *train*
/// inputs, side by side, plus cross-input stability statistics.
///
/// Paper shape (confirming Wall \[38\] for value profiles): per-benchmark
/// metrics are very similar across inputs, per-instruction invariance is
/// strongly correlated, and the profiled top value usually agrees — which
/// is what makes profile-guided specialization on a training input sound.
/// `jobs` fans the per-workload profiling out over worker threads; each
/// workload/input profile is produced by one profiler instance, so the
/// report is identical to a serial run.
fn train_test(workloads: &[Workload], jobs: usize) -> ExpReport {
    let mut text = String::new();
    let per_workload = parallel_map(jobs, workloads, |w| {
        (load_profile(w, DataSet::Train).metrics(), load_profile(w, DataSet::Test).metrics())
    });
    for (w, (train, test)) in workloads.iter().zip(&per_workload) {
        let rows = [row("train", train), row("test", test)];
        let _ = writeln!(
            text,
            "{}",
            render_metric_table(&format!("{}: loads by data set", w.name()), &rows)
        );
        let c = compare(train, test);
        let _ = writeln!(
            text,
            "  common sites {}  inv-corr {:+.3}  lvp-corr {:+.3}  mean|inv diff| {:.4}  top-value agreement {:.0}%\n",
            c.common,
            c.inv_correlation,
            c.lvp_correlation,
            c.mean_abs_inv_diff,
            c.top_value_agreement * 100.0
        );
    }

    // Pooled cross-input stability over ALL register-defining instructions
    // of the whole suite: per-site (train, test) invariance pairs. This is
    // the statistic behind "profiles transfer across inputs" — single-load
    // kernels make per-program correlations degenerate, the pool does not.
    let mut train_inv = Vec::new();
    let mut test_inv = Vec::new();
    let mut agree = 0usize;
    let full = parallel_map(jobs, workloads, |w| {
        (all_instr_profile(w, DataSet::Train), all_instr_profile(w, DataSet::Test))
    });
    for (train_p, test_p) in &full {
        let train = train_p.metrics();
        let test = test_p.metrics();
        let test_by_id: HashMap<u64, _> = test.iter().map(|m| (m.id, m)).collect();
        for m in &train {
            if let Some(t) = test_by_id.get(&m.id) {
                train_inv.push(m.inv_top1);
                test_inv.push(t.inv_top1);
                if m.top_value.is_some() && m.top_value == t.top_value {
                    agree += 1;
                }
            }
        }
    }
    let sites = train_inv.len().max(1) as f64;
    let _ = writeln!(text, "pooled over all register-defining sites of the suite:");
    let _ = writeln!(text, "  sites                  {}", train_inv.len());
    let _ = writeln!(text, "  inv-top1 correlation   {:+.3}", correlation(&train_inv, &test_inv));
    let _ = writeln!(
        text,
        "  mean |inv diff|        {:.4}",
        train_inv.iter().zip(&test_inv).map(|(a, b)| (a - b).abs()).sum::<f64>() / sites
    );
    let _ = writeln!(text, "  top-value agreement    {:.1}%", agree as f64 / sites * 100.0);

    // Combined-input profile: merging the train profiler into the test
    // profiler gives one profile describing both runs — the shard-merge
    // semantics of `InstructionProfiler::merge` (exact scalar counters,
    // TNV under-estimates). The suite runner reports both data sets with
    // the same machinery.
    let _ = writeln!(text, "\ncombined train+test load profiles (merged shards):");
    let combined_rows: Vec<_> = full
        .into_iter()
        .zip(workloads)
        .map(|((train_p, test_p), w)| {
            let mut merged = test_p;
            merged.merge(train_p);
            row(w.name(), &merged.metrics())
        })
        .collect();
    let _ = writeln!(
        text,
        "{}",
        render_metric_table("all register-defining sites, both inputs", &combined_rows)
    );

    let suite_profile = SuiteRunner::new().jobs(jobs).run_workloads(workloads, DataSet::Test);
    let (pool, agg) = suite_profile.pooled();
    let _ = writeln!(
        text,
        "suite runner cross-check [test loads]: {} sites pooled, inv-top1 {:.1}%",
        pool.len(),
        agg.inv_top1 * 100.0
    );
    ExpReport::text(text)
}

/// E9 — memory-location value profiles (the thesis extension): invariance
/// of the values *stored* to each memory word, per benchmark, plus each
/// benchmark's hottest locations. One `run` record carries the summed TNV
/// and drop counters, so `vprof stats` can surface cap-dropped stores.
///
/// Paper shape: memory locations are even more invariant than load
/// instructions on several programs (a location written by one store site
/// inherits its invariance; shared locations mix), and a small number of
/// hot locations dominate the store traffic.
fn memory(workloads: &[Workload]) -> ExpReport {
    let mut rows = Vec::new();
    let mut hot_lines = Vec::new();
    let mut warnings = String::new();
    let mut events = Counts::new();
    for w in workloads {
        let mut profiler = MemoryProfiler::new(TrackerConfig::with_full());
        Instrumenter::new()
            .select(Selection::MemoryOps)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
            .expect("memory profile run");
        rows.push(row(w.name(), &profiler.metrics()));
        profiler.tnv_events().add_to(&mut events);
        events.add(CounterId::MemDropped, profiler.dropped());
        if profiler.dropped() > 0 {
            let _ = writeln!(
                warnings,
                "warning: {}: {} stores dropped at the location cap — rows are incomplete",
                w.name(),
                profiler.dropped()
            );
        }
        let hottest: Vec<String> = profiler
            .hottest(3)
            .into_iter()
            .map(|m| {
                format!("{:#x} (stores {}, inv {:.0}%)", m.id, m.executions, m.inv_top1 * 100.0)
            })
            .collect();
        hot_lines.push(format!(
            "{:<10} {:>6} locations; hottest: {}",
            w.name(),
            profiler.locations(),
            hottest.join(", ")
        ));
    }
    let mut text = warnings;
    let _ = writeln!(
        text,
        "{}",
        render_metric_table("memory locations, store-weighted (values in %)", &rows)
    );
    let _ = writeln!(text, "location counts and hot spots:");
    for line in hot_lines {
        let _ = writeln!(text, "  {line}");
    }
    let records = vec![record(
        "run",
        "exp-memory",
        vec![("tool", Json::Str("exp-memory".to_string())), ("events", events.to_json())],
    )];
    ExpReport { text, records }
}

/// E10 — procedure parameter and return-value profiles: invariance of the
/// argument registers and returns of every declared procedure, per
/// benchmark. Only benchmarks with non-main procedures appear.
///
/// Paper shape: many procedures are called with nearly constant arguments
/// (here: `vortex`'s query tag is fully invariant, `perl`'s hash argument
/// varies), making arguments prime specialization hooks.
fn params(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:<12} {:<8} {:>9} {:>8} {:>8} {:>8}",
        "program", "procedure", "slot", "execs", "InvT1%", "LVP%", "distinct"
    );
    for w in workloads {
        let mut profiler = ParamProfiler::new(TrackerConfig::with_full(), 2);
        Instrumenter::new()
            .select(Selection::None)
            .with_procedures(true)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut profiler)
            .expect("param profile run");
        let procs = w.program().procedures();
        for p in profiler.metrics().into_iter().filter(|p| p.metrics.executions > 0) {
            let name = procs.get(p.proc_index).map_or("?", |pr| pr.name.as_str());
            let slot = match p.slot {
                ParamSlot::Arg(i) => format!("arg{i}"),
                ParamSlot::Ret => "ret".to_string(),
            };
            let _ = writeln!(
                text,
                "{:<10} {:<12} {:<8} {:>9} {:>8.1} {:>8.1} {:>8}",
                w.name(),
                name,
                slot,
                p.metrics.executions,
                p.metrics.inv_top1 * 100.0,
                p.metrics.lvp * 100.0,
                p.metrics.distinct.unwrap_or(0),
            );
        }
    }
    let _ = writeln!(text, "\n(only benchmarks with non-main procedures appear: calls are the");
    let _ = writeln!(text, "instrumentation points, exactly as with ATOM's procedure hooks)");
    ExpReport::text(text)
}

/// E11 — Table IV.1: the basic-block quantile table. For each benchmark,
/// the number (and fraction) of hottest static basic blocks needed to
/// cover 50/90/99/100% of dynamic execution.
///
/// Paper shape: execution is extremely concentrated — a small fraction of
/// static blocks covers the vast majority of dynamic execution, which is
/// why profiling effort (and specialization) can focus on few sites.
fn bb_quantile(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>8} {:>14} {:>14} {:>14} {:>14}",
        "program", "blocks", "50%", "90%", "99%", "100%"
    );
    for w in workloads {
        let mut machine =
            Machine::new(w.program().clone(), w.machine_config(DataSet::Test)).expect("machine");
        machine.run(BUDGET).expect("run");
        let cfg = Cfg::build(w.program());
        let counts = cfg.block_counts(machine.stats().per_instr());
        let cells: Vec<String> = quantile_table(&counts, &[0.5, 0.9, 0.99, 1.0])
            .iter()
            .map(|r| format!("{} ({:.0}%)", r.blocks, r.block_fraction * 100.0))
            .collect();
        let _ = writeln!(
            text,
            "{:<10} {:>8} {:>14} {:>14} {:>14} {:>14}",
            w.name(),
            cfg.blocks().len(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
        );
    }
    let _ = writeln!(text, "\ncells: hottest blocks needed (as % of executed static blocks)");
    ExpReport::text(text)
}

fn run_plain(w: &Workload) -> u64 {
    let mut machine =
        Machine::new(w.program().clone(), w.machine_config(DataSet::Test)).expect("machine");
    machine.run(BUDGET).expect("run").instructions
}

fn run_with<A: Analysis>(w: &Workload, selection: Selection, analysis: &mut A) -> u64 {
    Instrumenter::new()
        .select(selection)
        .run(w.program(), w.machine_config(DataSet::Test), BUDGET, analysis)
        .expect("instrumented run")
        .counts
        .total()
}

/// Runs every configuration once to warm caches and the allocator (a
/// cold first timing over-reports by up to 2x), then `reps` rounds that
/// each time every configuration once, in turn, so host drift lands on
/// all configurations alike instead of showing up as slowdown ratios.
/// Returns each configuration's last value and its *median* wall time in
/// nanoseconds.
fn interleaved_medians<const N: usize>(
    reps: usize,
    mut configs: [&mut dyn FnMut() -> u64; N],
) -> [(u64, u64); N] {
    let mut values = configs.each_mut().map(|f| f()); // warm-up, untimed
    let mut times: [Vec<u64>; N] = std::array::from_fn(|_| Vec::with_capacity(reps.max(1)));
    for _ in 0..reps.max(1) {
        for (i, f) in configs.iter_mut().enumerate() {
            let clock = Stopwatch::start();
            values[i] = f();
            times[i].push(clock.elapsed_ns());
        }
    }
    std::array::from_fn(|i| {
        times[i].sort_unstable();
        (values[i], times[i][times[i].len() / 2])
    })
}

/// E12 — profiling overhead: analysis events per instruction (exact,
/// machine-independent) and wall-clock slowdown (this machine, median of
/// `reps` runs after a warm-up) for full load profiling, full
/// all-instruction profiling and the convergent profiler; plus the memory
/// footprint comparison.
pub fn overhead(workloads: &[Workload], reps: usize) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "(wall times are medians of {} runs after a warm-up; each run times the four",
        reps.max(1)
    );
    let _ = writeln!(text, " configurations in turn, so host drift hits them alike)");
    let _ = writeln!(
        text,
        "{:<10} {:>10} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9} | {:>10}",
        "program",
        "instrs",
        "ld ev/i",
        "ld slow",
        "all ev/i",
        "all slow",
        "conv ev/i",
        "conv slow",
        "conv prof%"
    );
    let mut records = vec![record(
        "experiment",
        "E12",
        vec![
            ("workloads", Json::U64(workloads.len() as u64)),
            ("reps", Json::U64(reps.max(1) as u64)),
        ],
    )];
    for w in workloads {
        let mut conv_fraction = 0.0;
        let [(instrs, base_ns), (load_events, load_ns), (all_events, all_ns), (conv_events, conv_ns)] =
            interleaved_medians(
                reps,
                [
                    &mut || run_plain(w),
                    &mut || {
                        let mut p = InstructionProfiler::new(TrackerConfig::default());
                        run_with(w, Selection::LoadsOnly, &mut p)
                    },
                    &mut || {
                        let mut p = InstructionProfiler::new(TrackerConfig::default());
                        run_with(w, Selection::RegisterDefining, &mut p)
                    },
                    &mut || {
                        let mut conv = ConvergentProfiler::new(
                            TrackerConfig::default(),
                            ConvergentConfig::default(),
                        );
                        let events = run_with(w, Selection::RegisterDefining, &mut conv);
                        conv_fraction = conv.overall_profile_fraction();
                        events
                    },
                ],
            );

        let per = |e: u64| e as f64 / instrs as f64;
        let slow = |ns: u64| ns as f64 / base_ns.max(1) as f64;
        let _ = writeln!(
            text,
            "{:<10} {:>10} | {:>9.3} {:>8.2}x | {:>9.3} {:>8.2}x | {:>9.3} {:>8.2}x | {:>9.1}%",
            w.name(),
            instrs,
            per(load_events),
            slow(load_ns),
            per(all_events),
            slow(all_ns),
            per(conv_events),
            slow(conv_ns),
            conv_fraction * 100.0,
        );
        let mode = |events: u64, ns: u64| {
            Json::obj(vec![
                ("events", Json::U64(events)),
                ("events_per_instr", Json::F64(per(events))),
                ("median_wall_ns", Json::U64(ns)),
                ("slowdown", Json::F64(slow(ns))),
            ])
        };
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E12".to_string())),
                ("instructions", Json::U64(instrs)),
                ("baseline_wall_ns", Json::U64(base_ns)),
                ("load", mode(load_events, load_ns)),
                ("all", mode(all_events, all_ns)),
                ("conv", mode(conv_events, conv_ns)),
                ("conv_profile_fraction", Json::F64(conv_fraction)),
            ],
        ));
    }

    // Space: the TNV table's constant-footprint claim vs the exact
    // histogram whose size scales with distinct values.
    let _ = writeln!(text, "\nprofile memory footprint (all-instruction profile):");
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>14} {:>8}",
        "program", "TNV bytes", "full-hist bytes", "ratio"
    );
    for w in workloads {
        let tnv_only = {
            let mut p = InstructionProfiler::new(TrackerConfig::default());
            run_with(w, Selection::RegisterDefining, &mut p);
            p.footprint_bytes()
        };
        let with_full = {
            let mut p = InstructionProfiler::new(TrackerConfig::with_full());
            run_with(w, Selection::RegisterDefining, &mut p);
            p.footprint_bytes()
        };
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>14} {:>7.1}x",
            w.name(),
            tnv_only,
            with_full,
            with_full as f64 / tnv_only as f64
        );
        records.push(record(
            "measure",
            w.name(),
            vec![
                ("exp", Json::Str("E12-footprint".to_string())),
                ("tnv_bytes", Json::U64(tnv_only as u64)),
                ("full_hist_bytes", Json::U64(with_full as u64)),
            ],
        ));
    }

    let _ =
        writeln!(text, "\nev/i = analysis events per executed instruction (exact overhead cause);");
    let _ = writeln!(
        text,
        "slow = wall-clock relative to the uninstrumented emulator on this machine."
    );
    let _ =
        writeln!(text, "The convergent profiler still *sees* each event but skips the TNV work;");
    let _ = writeln!(text, "`conv prof%` is the fraction of executions fully profiled.");
    ExpReport { text, records }
}

/// Profiles the loads of `program` on `config` with exact ground truth.
fn profile_kernel(program: &Program, config: MachineConfig) -> InstructionProfiler {
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    Instrumenter::new()
        .select(Selection::LoadsOnly)
        .run(program, config, BUDGET, &mut profiler)
        .expect("profile");
    profiler
}

/// E13 — the code-specialization case study (thesis Chapter X): profile
/// the m88ksim-style kernel, specialize its semi-invariant configuration
/// load, and measure dynamic-instruction speedup across invariance levels;
/// then apply the same pipeline to every suite benchmark.
///
/// Paper shape: solid speedups at high invariance that decay as the value
/// gets perturbed more often, with the candidate filter refusing to
/// specialize below its invariance bar; behaviour is bit-identical in all
/// cases (the guard).
fn specialization(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(text, "kernel sweep (20k iterations, perturbation period varied):");
    let _ = writeln!(
        text,
        "{:>10} {:>10} {:>12} {:>12} {:>9} {:>6}",
        "perturb", "inv-top1%", "base", "special", "speedup", "exact"
    );
    let program = demo::program();
    for period in [0u64, 1000, 200, 50, 10, 3] {
        let input = demo::input(20_000, period);
        let profiler = profile_kernel(&program, MachineConfig::new().input(input.clone()));
        let inv =
            profiler.metrics_for(demo::config_load_index(&program)).map_or(0.0, |m| m.inv_top1);
        let candidates =
            find_candidates(&program, &profiler.metrics(), CandidateOptions::default());
        let label = if period == 0 { "never".into() } else { format!("1/{period}") };
        if candidates.is_empty() {
            let _ = writeln!(
                text,
                "{label:>10} {:>10.1} {:>12} {:>12} {:>9} {:>6}",
                inv * 100.0,
                "-",
                "-",
                "skipped",
                "-"
            );
            continue;
        }
        let specialized = specialize_all(&program, &candidates).expect("specialize");
        let report = eval_specialized(&program, &specialized, &input, BUDGET).expect("evaluate");
        let _ = writeln!(
            text,
            "{label:>10} {:>10.1} {:>12} {:>12} {:>8.3}x {:>6}",
            inv * 100.0,
            report.base_instructions,
            report.specialized_instructions,
            report.speedup(),
            if report.equivalent { "yes" } else { "NO" },
        );
    }

    let _ = writeln!(text, "\nsuite-wide automatic specialization:");
    let _ = writeln!(text, "  self  = profiled and measured on the test input");
    let _ = writeln!(text, "  cross = profiled on train, measured on test (values must transfer)");
    let _ = writeln!(
        text,
        "{:<10} {:>6} {:>13} {:>13} {:>6}",
        "program", "cands", "self speedup", "cross speedup", "exact"
    );
    for w in workloads {
        let mut speedups: Vec<Option<f64>> = Vec::new();
        let mut cands = 0usize;
        let mut exact = true;
        for profile_ds in [DataSet::Test, DataSet::Train] {
            let profiler = profile_kernel(w.program(), w.machine_config(profile_ds));
            let candidates =
                find_candidates(w.program(), &profiler.metrics(), CandidateOptions::default());
            if profile_ds == DataSet::Test {
                cands = candidates.len();
            }
            if candidates.is_empty() {
                speedups.push(None);
                continue;
            }
            let specialized = specialize_all(w.program(), &candidates).expect("specialize");
            let report =
                eval_specialized(w.program(), &specialized, w.input(DataSet::Test), BUDGET)
                    .expect("evaluate");
            exact &= report.equivalent;
            speedups.push(Some(report.speedup()));
        }
        let cell = |v: &Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}x"));
        let _ = writeln!(
            text,
            "{:<10} {:>6} {:>13} {:>13} {:>6}",
            w.name(),
            cands,
            cell(&speedups[0]),
            cell(&speedups[1]),
            if exact { "yes" } else { "NO" },
        );
    }
    let _ =
        writeln!(text, "\nThe cross column shows whether the specialized VALUE transfers across");
    let _ =
        writeln!(text, "inputs, not just the invariance (E8). m88ksim's configuration word is the");
    let _ =
        writeln!(text, "same on both inputs, so the train-profiled guard fires as often as the");
    let _ =
        writeln!(text, "self-profiled one; on an input-dependent value it would never fire and");
    let _ = writeln!(text, "only its overhead would remain — which is why the guard is mandatory.");
    ExpReport::text(text)
}

/// E14 — value prediction and profile-guided filtering (paper §II.A
/// context): hit rates of the predictor families of refs \[17, 27, 34, 39\]
/// on suite load streams, and the effect of filtering a last-value
/// predictor with a train-input value profile.
///
/// Reference shape (Wang & Franklin): hybrid > stride ≈ two-level > LVP on
/// average; profile filtering trades a little coverage for a large cut in
/// mispredictions.
fn prediction(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>7} {:>8} {:>8} {:>9} {:>9} | {:>9} {:>9} {:>10}",
        "program",
        "lvp%",
        "stride%",
        "2level%",
        "hyb(l,s)%",
        "hyb(s,2)%",
        "lvp-misp%",
        "filt-misp%",
        "filt-hit%"
    );
    let table_row = |text: &mut String, label: &str, c: [f64; 8]| {
        let _ = writeln!(
            text,
            "{:<10} {:>7.1} {:>8.1} {:>8.1} {:>9.1} {:>9.1} | {:>9.1} {:>9.1} {:>10.1}",
            label, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]
        );
    };
    let mut sums = [0.0f64; 8];
    for w in workloads {
        let stream = value_stream(w, DataSet::Test, Selection::LoadsOnly);
        let profile = load_profile(w, DataSet::Train);
        let stats =
            |p: &mut dyn Predictor| -> PredictorStats { eval_predictor(p, stream.iter().copied()) };
        let lvp = stats(&mut LastValuePredictor::new(1024));
        let stride = stats(&mut StridePredictor::new(1024));
        let two = stats(&mut TwoLevelPredictor::new());
        let hyb_ls = stats(&mut HybridPredictor::new(
            LastValuePredictor::new(1024),
            StridePredictor::new(1024),
        ));
        let hyb_s2 =
            stats(&mut HybridPredictor::new(StridePredictor::new(1024), TwoLevelPredictor::new()));
        let filt = stats(&mut FilteredPredictor::from_profile(
            LastValuePredictor::new(1024),
            &profile.metrics(),
            0.5,
        ));
        let total = lvp.total().max(1) as f64;
        let cells = [
            lvp.hit_rate() * 100.0,
            stride.hit_rate() * 100.0,
            two.hit_rate() * 100.0,
            hyb_ls.hit_rate() * 100.0,
            hyb_s2.hit_rate() * 100.0,
            lvp.mispredictions as f64 / total * 100.0,
            filt.mispredictions as f64 / total * 100.0,
            filt.hit_rate() * 100.0,
        ];
        for (s, c) in sums.iter_mut().zip(cells) {
            *s += c;
        }
        table_row(&mut text, w.name(), cells);
    }
    let n = workloads.len() as f64;
    table_row(&mut text, "mean", sums.map(|s| s / n));
    let _ =
        writeln!(text, "\nfilter = only predict loads whose TRAIN-input profile has LVP >= 0.5");
    ExpReport::text(text)
}

/// E15's motivating kernel: one procedure, two call sites, site-constant
/// arguments.
const TWO_SITE_KERNEL: &str = r#"
    .text
    main:
        li r9, 5000
    loop:
        andi r12, r9, 1
        bz   r12, even
        li   a0, 10
        call f
        j    next
    even:
        li   a0, 20
        call f
    next:
        addi r9, r9, -1
        bnz  r9, loop
        sys  exit
    .proc f
    f:
        add  v0, a0, a0     # 20 or 40, fully determined by the call site
        ret
    .endp
"#;

/// E15 (extension) — path-sensitive value prediction, the thesis's
/// future-work item: index last-value prediction by `(pc, path history)`
/// à la Young & Smith \[40\], which the thesis singles out as "especially
/// beneficial for procedures called from several locations".
///
/// Expected shape: a large win on the multi-call-site kernel (the value is
/// a function of the path), small-to-none on the suite's mostly
/// single-path hot loops — with no regression anywhere.
fn path(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ =
        writeln!(text, "{:<22} {:>10} {:>10} {:>10}", "program", "events", "lvp hit%", "path hit%");
    let program = vp_asm::assemble(TWO_SITE_KERNEL).expect("kernel assembles");
    let target = program.procedure("f").expect("f").range.start;
    let kernel = (
        "two-site kernel",
        &program,
        MachineConfig::new(),
        Selection::Custom([target].into_iter().collect()),
    );
    let suite = workloads
        .iter()
        .map(|w| (w.name(), w.program(), w.machine_config(DataSet::Test), Selection::LoadsOnly));
    for (name, program, config, selection) in std::iter::once(kernel).chain(suite) {
        let stream = collect_pathed_stream(program, config, BUDGET, selection, 16)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let (path_hits, blind_hits, total) = evaluate_pathed(&stream);
        let _ = writeln!(
            text,
            "{:<22} {:>10} {:>10.1} {:>10.1}",
            name,
            total,
            blind_hits as f64 / total.max(1) as f64 * 100.0,
            path_hits as f64 / total.max(1) as f64 * 100.0
        );
    }
    let _ = writeln!(text, "\npath hit% uses a (pc, 16-bit path history) table; lvp hit% the same");
    let _ =
        writeln!(text, "table with the path pinned to zero. The kernel's procedure argument is");
    let _ = writeln!(text, "perfectly path-determined; suite loads are mostly path-independent.");
    ExpReport::text(text)
}

/// E16 (extension) — invariance over time: interval profiles that expose
/// program phases. A phase-wise invariant instruction looks semi-invariant
/// to a whole-run profile but fully invariant within each phase — the case
/// the TNV clearing policy and re-specialization exist for.
fn temporal(workloads: &[Workload]) -> ExpReport {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<10} {:>7} {:>12} {:>14} {:>8}",
        "program", "loads", "whole-run%", "within-window%", "phases"
    );
    for w in workloads {
        let mut temporal = TemporalProfiler::new(TrackerConfig::default(), 500);
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut temporal)
            .expect("temporal run");
        let mut full = InstructionProfiler::new(TrackerConfig::default());
        Instrumenter::new()
            .select(Selection::LoadsOnly)
            .run(w.program(), w.machine_config(DataSet::Test), BUDGET, &mut full)
            .expect("full run");

        // Report the load with the largest gap between windowed and
        // whole-run invariance (the most phase-like load).
        let best = full
            .metrics()
            .into_iter()
            .map(|m| {
                let idx = m.id as u32;
                (temporal.windowed_invariance(idx), m.inv_top1, temporal.phase_count(idx))
            })
            .max_by(|a, b| (a.0 - a.1).total_cmp(&(b.0 - b.1)));
        if let Some((windowed, whole, phases)) = best {
            let _ = writeln!(
                text,
                "{:<10} {:>7} {:>11.1}% {:>13.1}% {:>8}",
                w.name(),
                full.profiled_instructions(),
                whole * 100.0,
                windowed * 100.0,
                phases,
            );
        }
    }
    let _ = writeln!(text, "\nRows show each program's most phase-like load: within-window");
    let _ = writeln!(text, "invariance far above whole-run invariance with a small phase count");
    let _ = writeln!(text, "means the value is a per-phase constant (gcc's mode word: three");
    let _ = writeln!(text, "phases, ~100% within each, ~33% overall).");
    ExpReport::text(text)
}

/// E17's kernel: a bimodal load (60% one value, 40% another) feeding a
/// long pure chain — the distribution where multi-way wins.
const BIMODAL_KERNEL: &str = r#"
    .data
    which: .quad 0
    vals:  .quad 80, 120
    .text
    main:
        la  r10, which
        la  r11, vals
        li  r9, 20000
        li  r18, 0
    loop:
        ldd  r12, 0(r10)
        addi r12, r12, 1
        remi r12, r12, 5
        std  r12, 0(r10)
        slti r13, r12, 3
        xori r13, r13, 1
        slli r13, r13, 3
        add  r13, r13, r11
        ldd  r2, 0(r13)      # bimodal load: 80 (60%) or 120 (40%)
        srli r3, r2, 2
        muli r3, r3, 7
        addi r3, r3, 3
        xori r3, r3, 44
        slli r4, r3, 1
        add  r5, r4, r3
        srli r5, r5, 1
        andi r5, r5, 2047
        muli r5, r5, 13
        addi r5, r5, 29
        xori r5, r5, 333
        srli r5, r5, 1
        add  r18, r18, r5
        addi r9, r9, -1
        bnz  r9, loop
        andi a0, r18, 255
        sys  exit
"#;

/// E17 (extension) — multi-way specialization on the top-k TNV values:
/// the payoff of keeping N values per entity instead of one. On a bimodal
/// load (60/40 between two values), a one-way guard covers 60% of
/// executions; a two-way dispatch covers all of them.
fn multiway() -> ExpReport {
    let run = |p: &Program| {
        let mut m = Machine::new(p.clone(), MachineConfig::new().input(InputSet::empty()))
            .expect("machine");
        let out = m.run(BUDGET).expect("run");
        (out.exit_code, out.instructions)
    };
    let mut text = String::new();
    let program = vp_asm::assemble(BIMODAL_KERNEL).expect("kernel assembles");
    let load_index = program
        .code()
        .iter()
        .enumerate()
        .filter(|(_, i)| i.is_load())
        .map(|(i, _)| i as u32)
        .nth(1)
        .expect("bimodal load");

    // Profile to recover the top values and their combined invariance.
    let profiler = profile_kernel(&program, MachineConfig::new());
    let tracker = profiler.tracker(load_index).expect("profiled");
    let top: Vec<u64> = tracker.tnv().top(2).iter().map(|e| e.value).collect();
    let metrics = profiler.metrics_for(load_index).expect("metrics");
    let _ = writeln!(
        text,
        "bimodal load @{load_index}: Inv-Top(1) {:.1}%, Inv-Top(2) {:.1}%, top values {:?}\n",
        metrics.inv_top1 * 100.0,
        tracker.inv_top(2) * 100.0,
        top
    );

    let (base_code, base) = run(&program);
    let _ =
        writeln!(text, "{:<22} {:>12} {:>9} {:>6}", "variant", "instructions", "speedup", "exact");
    let _ = writeln!(text, "{:<22} {:>12} {:>9} {:>6}", "baseline", base, "1.000x", "yes");
    let one = specialize(
        &program,
        &Candidate {
            load_index,
            value: top[0],
            invariance: metrics.inv_top1,
            executions: metrics.executions,
        },
    )
    .expect("one-way");
    let two = specialize_multi(
        &program,
        &MultiCandidate {
            load_index,
            values: top.clone(),
            invariance: tracker.inv_top(2),
            executions: metrics.executions,
        },
    )
    .expect("two-way");
    for (name, variant) in [("one-way (top-1)", one), ("two-way (top-2)", two)] {
        let (code, n) = run(&variant);
        let _ = writeln!(
            text,
            "{:<22} {:>12} {:>8.3}x {:>6}",
            name,
            n,
            base as f64 / n as f64,
            if code == base_code { "yes" } else { "NO" }
        );
    }
    let _ =
        writeln!(text, "\nThe two-way dispatch converts the 40%-of-executions slow path of the");
    let _ = writeln!(text, "one-way guard into a second folded fast path — the use case for which");
    let _ = writeln!(text, "the TNV table retains N values rather than one.");
    ExpReport::text(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_obs::telemetry::mask_volatile;
    use vp_workloads::suite;

    #[test]
    fn benchmarks_deterministic_across_jobs() {
        let ws = suite();
        let a = benchmarks(&ws[..3], 1);
        let b = benchmarks(&ws[..3], 4);
        assert_eq!(a, b);
        assert_eq!(a.records.len(), 4);
    }

    #[test]
    fn tnv_policy_deterministic() {
        let ws = suite();
        let a = tnv_policy(&ws[..2]);
        let b = tnv_policy(&ws[..2]);
        assert_eq!(a, b, "policy errors must not depend on hash-map iteration order");
        assert!(a.text.contains("lfu-clear (paper)"));
    }

    #[test]
    fn overhead_masks_to_deterministic_records() {
        let ws = suite();
        let a = overhead(&ws[..2], 1);
        let b = overhead(&ws[..2], 1);
        let masked =
            |r: &ExpReport| r.records.iter().map(|j| mask_volatile(j).render()).collect::<Vec<_>>();
        assert_eq!(masked(&a), masked(&b), "masked records must be byte-stable");
        assert!(a.text.contains("medians of 1 runs"));
        // Event counts are exact and survive masking.
        let load = a.records[1].get("load").unwrap();
        assert!(load.get("events").unwrap().as_u64().unwrap() > 0);
    }
}
