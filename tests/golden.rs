//! Golden-file regression tests: the paper record and the telemetry
//! behind it.
//!
//! `experiments.out` at the repository root is the paper record: the
//! section of every experiment in `vp_bench::experiments::REGISTRY`, run
//! over the full suite. One registry run (jobs 1, reps 1), shared by the
//! tests below, is compared against it section by section — E12's
//! wall-clock text excepted — and each record-emitting experiment's
//! *masked* telemetry (wall times and other volatile fields replaced by
//! `"<volatile>"`, see [`vp_obs::telemetry::VOLATILE_KEYS`]) against
//! `tests/golden/exp_<id>.jsonl`. The excerpts quoted in `EXPERIMENTS.md`
//! are held to the record too.
//!
//! To regenerate after an intentional change (E12's committed section is
//! kept, since a debug run's timings say nothing):
//!
//! ```text
//! VP_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use value_profiling::core::{ConvergentConfig, PhaseBudget};
use value_profiling::obs::telemetry::{mask_volatile, parse_jsonl, to_jsonl};
use value_profiling::obs::Json;
use value_profiling::workloads::{suite, DataSet};
use vp_bench::experiments::{sections, RunConfig, REGISTRY};
use vp_bench::{
    optimize_from_outcome, telemetry, ExpReport, OptimizeConfig, ProfileMode, SuiteRunner,
};

/// The experiments that emit telemetry records, one golden each.
const RECORD_GOLDENS: [&str; 5] =
    ["exp_E1.jsonl", "exp_E6.jsonl", "exp_E7.jsonl", "exp_E9.jsonl", "exp_E12.jsonl"];

fn repo_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

fn golden_dir() -> PathBuf {
    repo_file("tests").join("golden")
}

fn updating() -> bool {
    std::env::var_os("VP_UPDATE_GOLDEN").is_some()
}

/// Compares `actual` against `tests/golden/<name>`, or rewrites the file
/// when `VP_UPDATE_GOLDEN` is set.
fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if updating() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {}: {e}\n(regenerate with VP_UPDATE_GOLDEN=1 cargo test --test golden)",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its golden file; if the change is intentional, regenerate with \
         VP_UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

fn masked_jsonl(records: &[Json]) -> String {
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    to_jsonl(&masked)
}

/// Every registry entry run once over the full suite, in registry order.
fn registry_run() -> &'static [ExpReport] {
    static RUN: OnceLock<Vec<ExpReport>> = OnceLock::new();
    RUN.get_or_init(|| {
        let ws = suite();
        REGISTRY.iter().map(|e| e.run(&ws, RunConfig { jobs: 1, reps: 1 })).collect()
    })
}

#[test]
fn paper_record_matches_experiments_out() {
    let path = repo_file("experiments.out");
    let committed = fs::read_to_string(&path).unwrap();
    let committed = sections(&committed);
    let run = registry_run();
    if updating() {
        let record: String = REGISTRY
            .iter()
            .zip(run)
            .map(|(e, report)| match committed.iter().find(|s| s.0 == e.id) {
                Some(&(_, kept)) if e.timed => kept,
                _ => report.text.as_str(),
            })
            .collect();
        fs::write(&path, record).unwrap();
        return;
    }
    let ids: Vec<&str> = committed.iter().map(|s| s.0).collect();
    let expected_ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(ids, expected_ids, "experiments.out must hold one section per registry entry");
    let mut drifted = Vec::new();
    for ((e, report), (_, section)) in REGISTRY.iter().zip(run).zip(&committed) {
        if e.timed || report.text == *section {
            continue;
        }
        let first = section.lines().zip(report.text.lines()).position(|(a, b)| a != b);
        let line =
            first.unwrap_or_else(|| section.lines().count().min(report.text.lines().count()));
        drifted.push(format!(
            "section {} drifted at its line {}:\n  committed: {:?}\n  fresh:     {:?}",
            e.id,
            line + 1,
            section.lines().nth(line).unwrap_or("<end>"),
            report.text.lines().nth(line).unwrap_or("<end>"),
        ));
    }
    assert!(
        drifted.is_empty(),
        "experiments.out no longer matches the code:\n{}\nif the change is intentional, \
         regenerate with VP_UPDATE_GOLDEN=1 cargo test --test golden and re-check \
         EXPERIMENTS.md",
        drifted.join("\n")
    );
}

#[test]
fn experiment_records_match_goldens() {
    let mut emitting = Vec::new();
    for (e, report) in REGISTRY.iter().zip(registry_run()) {
        if !report.records.is_empty() {
            let name = format!("exp_{}.jsonl", e.id);
            check(&name, &masked_jsonl(&report.records));
            emitting.push(name);
        }
    }
    assert_eq!(emitting, RECORD_GOLDENS, "the set of record-emitting experiments changed");
}

#[test]
fn experiments_md_excerpts_appear_in_paper_record() {
    // Every line of a ```text block under "## Ek" must be a line of
    // section Ek of the paper record (E12's timings excepted), so the
    // prose cannot quote numbers the record no longer holds. The sections
    // come from the registry run, which the test above holds
    // experiments.out to; that also keeps this check valid while
    // VP_UPDATE_GOLDEN rewrites the file.
    let doc = fs::read_to_string(repo_file("EXPERIMENTS.md")).unwrap();
    let mut current: Option<&str> = None;
    let mut in_text = false;
    let mut checked: Vec<&str> = Vec::new();
    let mut missing = Vec::new();
    for line in doc.lines() {
        if let Some(heading) = line.strip_prefix("## ") {
            current = heading.split_whitespace().next().filter(|id| id.starts_with('E'));
        } else if line == "```text" {
            in_text = true;
        } else if line == "```" {
            in_text = false;
        } else if in_text {
            let Some(id) = current else { continue };
            let k = REGISTRY.iter().position(|e| e.id == id).expect("EXPERIMENTS.md names an id");
            if REGISTRY[k].timed {
                continue;
            }
            if !registry_run()[k].text.lines().any(|l| l == line) {
                missing.push(format!("{id}: {line:?}"));
            }
            checked.push(id);
        }
    }
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes lines that are not in experiments.out:\n{}",
        missing.join("\n")
    );
    for e in REGISTRY.iter().filter(|e| !e.timed) {
        assert!(checked.contains(&e.id), "EXPERIMENTS.md quotes no output for {}", e.id);
    }
}

#[test]
fn adaptive_phase_shift_run_matches_golden() {
    // A deterministic phase-shift run: the gcc workload's mode load
    // changes value between compile phases, so adaptive profiling with a
    // small window detects shifts. The masked telemetry (with its
    // per-workload `phase` objects) and the `vprof stats` rendering (with
    // its adaptive section) are both pinned.
    let ws = suite();
    let mode = ProfileMode::Adaptive(
        ConvergentConfig::default(),
        PhaseBudget { max_rearms: 8, window: 256 },
    );
    let profile = SuiteRunner::new().mode(mode).run_workloads(&ws[..3], DataSet::Test);
    let shifts: u64 = profile
        .workloads
        .iter()
        .map(|w| w.phase.expect("adaptive run reports phase stats").shifts_detected)
        .sum();
    assert!(shifts > 0, "the golden run must actually contain a phase shift");
    let records = telemetry::suite_records(
        "profile-suite",
        DataSet::Test,
        1,
        "adaptive-loads",
        &profile,
        None,
    );
    check("adaptive_suite.jsonl", &masked_jsonl(&records));
    // Render stats from the *masked* records, exactly what `vprof stats`
    // would show on the checked-in telemetry — wall times and rates
    // degrade to placeholders, everything else is deterministic.
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    let stats = value_profiling::obs::stats::summarize_records(&masked).unwrap();
    assert!(stats.contains("adaptive"), "stats must render the phase section:\n{stats}");
    check("adaptive_suite_stats.txt", &stats);
}

#[test]
fn optimize_run_matches_golden() {
    // The end-to-end optimize pipeline over a fixed workload set that
    // includes the stationary m88ksim case, so the golden pins a real
    // specialized site (guard values, hit/miss counts) alongside
    // rejections. Three artifacts are pinned: the durable CRC-footered
    // report, the masked telemetry, and the `vprof stats` rendering.
    let picked = ["compress", "gcc", "li", "m88ksim"];
    let ws: Vec<_> = suite().into_iter().filter(|w| picked.contains(&w.name())).collect();
    let outcome = SuiteRunner::new().try_run_workloads(&ws, DataSet::Train);
    assert!(outcome.is_clean(), "golden profiling pass must be fault-free");
    let report = optimize_from_outcome(&outcome, &ws, "full", &OptimizeConfig::default()).unwrap();
    let m88ksim = report.workloads.iter().find(|w| w.name == "m88ksim").unwrap();
    assert!(!m88ksim.result.sites.is_empty(), "the golden run must actually specialize a site");
    check("optimize_report.txt", &report.render_durable());
    let records = report.optimize_records("optimize");
    check("optimize_suite.jsonl", &masked_jsonl(&records));
    // Render stats from the *masked* records, exactly what `vprof stats`
    // would show on the checked-in telemetry.
    let masked: Vec<Json> = records.iter().map(mask_volatile).collect();
    let stats = value_profiling::obs::stats::summarize_records(&masked).unwrap();
    assert!(stats.contains("optimize"), "stats must render the optimize section:\n{stats}");
    check("optimize_suite_stats.txt", &stats);
}

#[test]
fn non_adaptive_goldens_carry_no_phase_section() {
    // Absent-when-off: the experiment goldens must contain no phase
    // fields, so runs without `--adaptive` stay byte-identical to before
    // the detector existed.
    for name in RECORD_GOLDENS {
        let text = fs::read_to_string(golden_dir().join(name)).unwrap();
        assert!(!text.contains("\"phase\""), "{name} grew a phase field");
    }
}

#[test]
fn golden_telemetry_parses_and_is_masked() {
    // The checked-in .jsonl goldens must stay valid, schema-tagged JSONL
    // with every volatile field masked (masking is idempotent).
    for name in RECORD_GOLDENS.into_iter().chain(["adaptive_suite.jsonl", "optimize_suite.jsonl"]) {
        let path = golden_dir().join(name);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read {}: {e} (run VP_UPDATE_GOLDEN=1 cargo test --test golden)",
                path.display()
            )
        });
        let records = parse_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!records.is_empty(), "{name} is empty");
        for r in &records {
            assert!(r.get("schema").is_some(), "{name}: record without schema tag");
            assert_eq!(&mask_volatile(r), r, "{name}: volatile field left unmasked");
        }
    }
}
