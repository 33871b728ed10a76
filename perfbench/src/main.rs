//! The repository benchmark: three workloads that drive the value
//! profiler end to end, each checked against an independent oracle, plus
//! a traced run that times every layer. See `README.md` beside this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! vp-perfbench --workload <live-suite|trace-replay>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process that is invoked times the set-up (into `setup_s`), writes
//! the inputs and the oracle's reference answers under `.bench_work/`,
//! and runs the timed passes in a fresh child process, so that the
//! child's peak RSS covers the passes alone. The traced `trace-replay`
//! run also starts the serve daemon, as a third process. The invoked
//! process prints the result line, the last line of standard output.

mod check;
mod ingest;
mod live;
mod replay;
mod report;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use check::Ops;
use report::Report;
use stats::median;

/// Everything the benchmark writes lives under this directory of the
/// current (checkout) directory.
const WORK_DIR: &str = ".bench_work";

/// glibc malloc settings of the measuring process (and the daemon it
/// starts): the mmap
/// threshold fixed at glibc's default 128 KiB, which turns off its
/// dynamic adjustment.
pub const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=131072";

/// Instruction budget per program run, far above any suite program.
pub const BUDGET: u64 = 100_000_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LiveSuite,
    TraceReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "live-suite" => Some(Workload::LiveSuite),
            "trace-replay" => Some(Workload::TraceReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LiveSuite => "live-suite",
            Workload::TraceReplay => "trace-replay",
        }
    }
}

fn value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| value(argv, flag).ok_or_else(|| format!("missing {flag}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Seconds of measuring left before `deadline`.
pub fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

/// Peak resident set of a process (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn work_dir(workload: Workload) -> PathBuf {
    Path::new(WORK_DIR).join(workload.name())
}

/// Set-up samples taken before the passes and again after them, so that
/// `setup_s` spans the run rather than one moment of it.
fn setup_samples(args: &Args) -> usize {
    match (args.trace, args.workload) {
        (true, _) => 1,
        (false, Workload::TraceReplay) => 3,
        (false, Workload::LiveSuite) => 4,
    }
}

/// Times one set-up sample, in seconds.
fn setup_sample(args: &Args, dir: &Path) -> Result<f64, String> {
    match args.workload {
        Workload::LiveSuite => Ok(live::setup_sample()),
        Workload::TraceReplay => replay::setup_sample(args, dir),
    }
}

/// The invoked process: set-up samples, references, the passes in a
/// child, set-up samples again, then the result line.
fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let dir = work_dir(args.workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = run_in(&args, argv, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    let (ops, report) = result?;
    println!("{}", report.render(&ops, args.trace));
    Ok(ExitCode::SUCCESS)
}

fn run_in(args: &Args, argv: &[String], dir: &Path) -> Result<(Ops, Report), String> {
    let samples = setup_samples(args);
    let mut setup = Vec::with_capacity(2 * samples);
    for _ in 0..samples {
        setup.push(setup_sample(args, dir)?);
    }
    let ops = match args.workload {
        Workload::LiveSuite => live::references(dir)?,
        Workload::TraceReplay => replay::references(args, dir)?,
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .arg("measure")
        .args(argv)
        .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
        .status()
        .map_err(|e| format!("cannot run the measuring process: {e}"))?;
    if !status.success() {
        return Err(format!("the measuring process failed: {status}"));
    }
    let (ops, mut report) = read_result(&dir.join(RESULT_FILE), ops)?;
    if !args.trace {
        for _ in 0..samples {
            setup.push(setup_sample(args, dir)?);
        }
    }
    report.set("setup_s", median(&setup));
    Ok((ops, report))
}

/// Where the measuring child leaves its operations and metrics.
const RESULT_FILE: &str = "result.txt";

/// Writes `attempted failed` and then one `name value` line per metric.
fn write_result(path: &Path, ops: &Ops, report: &Report) -> Result<(), String> {
    let mut text = format!("{} {}\n", ops.attempted, ops.failed);
    for (name, value) in report.values() {
        text.push_str(&format!("{name} {value}\n"));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads what [`write_result`] wrote, adding it to `ops`.
fn read_result(path: &Path, mut ops: Ops) -> Result<(Ops, Report), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bad = || format!("{}: malformed result", path.display());
    let mut lines = text.lines();
    let mut head = lines.next().ok_or_else(bad)?.split(' ').map(|v| v.parse::<u64>());
    let (Some(Ok(attempted)), Some(Ok(failed))) = (head.next(), head.next()) else {
        return Err(bad());
    };
    ops.record_many(
        "measuring process",
        attempted,
        (failed > 0).then(|| (failed, "see above".to_string())),
    );
    let mut report = Report::default();
    for line in lines {
        let (name, value) = line.split_once(' ').ok_or_else(bad)?;
        let value: f64 = value.parse().map_err(|_| bad())?;
        report.set_named(name, value).ok_or_else(bad)?;
    }
    Ok((ops, report))
}

/// The measuring child: timed passes and their checks.
fn measure(argv: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let mut ops = Ops::default();
    let mut report = Report::default();
    let dir = work_dir(args.workload);
    match args.workload {
        Workload::LiveSuite => live::measure(&args, &dir, &mut ops, &mut report)?,
        Workload::TraceReplay => replay::measure(&args, &dir, &mut ops, &mut report)?,
    }
    write_result(&dir.join(RESULT_FILE), &ops, &report)?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Fault injection and the mmap fallback are switched by the
    // environment; the benchmark measures the default paths only.
    std::env::remove_var("VP_FAULTS");
    std::env::remove_var("VP_NO_MMAP");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("measure") => measure(&argv[1..]),
        Some("daemon") => ingest::daemon_main(&argv[1..]),
        _ => run(&argv),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            parse_args(&argv("--workload trace-replay --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::TraceReplay, 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("--workload live-suite --seed 7 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload live-suite --seed 7 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload live-suite --seconds 1 --trace 0")).is_err());
    }
}
