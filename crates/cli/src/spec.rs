//! The profiling options of `profile-suite`, `optimize`, `worker`,
//! `replay`, `serve` and `profile`, parsed once into a [`ProfileSpec`].
//!
//! Every cross-flag rule lives here, so the commands cannot drift
//! apart: `--adaptive` and `--convergent` exclude each other, as do
//! `--jobs` and `--workers`; `--phase-window`/`--max-rearms` need
//! `--adaptive`; a memory budget needs the full profiler; and a flag a
//! command does not take is an error, never silently ignored.

use std::fmt;
use std::time::Duration;

use vp_bench::ProfileMode;
use vp_core::{ConvergentConfig, MemBudget, PhaseBudget};

/// A command that takes profiling options. All but `profile` run the
/// full and `--adaptive` profilers and take
/// `--deadline-ms`/`--mem-budget-mb`; all but `replay` run
/// `--convergent`, all but `serve` and `profile` take `--shards`, and
/// only `profile-suite` and `optimize` take `--jobs`/`--workers`.
/// `profile` runs the full or `--convergent` profiler and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    ProfileSuite,
    Optimize,
    Worker,
    Replay,
    Serve,
    Profile,
}

impl Command {
    pub fn name(self) -> &'static str {
        match self {
            Command::ProfileSuite => "profile-suite",
            Command::Optimize => "optimize",
            Command::Worker => "worker",
            Command::Replay => "replay",
            Command::Serve => "serve",
            Command::Profile => "profile",
        }
    }
}

/// Why a command line's profiling options were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A flag's value does not parse, or is out of range (`why`).
    BadValue { flag: &'static str, value: String, why: Option<&'static str> },
    /// Two flags that pick different things.
    Exclusive(&'static str, &'static str),
    /// `--phase-window`/`--max-rearms` without `--adaptive`.
    PhaseNeedsAdaptive,
    /// `--mem-budget-mb` with a constant-space mode (named).
    BudgetNeedsFull(&'static str),
    /// A flag the command does not take.
    Unsupported { command: &'static str, flag: &'static str },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadValue { flag, value, why } => {
                write!(f, "bad {flag} value `{value}`")?;
                why.map_or(Ok(()), |why| write!(f, " ({why})"))
            }
            SpecError::Exclusive(a, b) => write!(f, "{a} and {b} are mutually exclusive"),
            SpecError::PhaseNeedsAdaptive => {
                write!(f, "--phase-window/--max-rearms require --adaptive")
            }
            SpecError::BudgetNeedsFull(mode) => write!(
                f,
                "--mem-budget-mb is not supported with --{mode}: a memory budget needs the full profiler (the {mode} trackers are already constant-space)"
            ),
            SpecError::Unsupported { command, flag } => {
                write!(f, "{command} does not support {flag}")
            }
        }
    }
}

impl From<SpecError> for String {
    fn from(e: SpecError) -> String {
        e.to_string()
    }
}

pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

pub fn option_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Parses `name`'s value, if given; `min` rejects smaller values with
/// `why`.
pub fn number<T: std::str::FromStr + PartialOrd>(
    args: &[String],
    name: &'static str,
    min: Option<(T, &'static str)>,
) -> Result<Option<T>, SpecError> {
    let Some(v) = option_value(args, name) else { return Ok(None) };
    let bad = |why| SpecError::BadValue { flag: name, value: v.to_string(), why };
    let n: T = v.parse().map_err(|_| bad(None))?;
    match min {
        Some((min, why)) if n < min => Err(bad(Some(why))),
        _ => Ok(Some(n)),
    }
}

/// The profiling options one command line asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSpec {
    /// `--convergent`, `--adaptive [--phase-window N] [--max-rearms N]`,
    /// or the full profiler.
    pub mode: ProfileMode,
    /// `--mem-budget-mb N`; full mode only.
    pub mem_budget: Option<MemBudget>,
    /// `--deadline-ms N`.
    pub deadline: Option<Duration>,
    /// `--jobs N` in-process threads (default 1).
    pub jobs: usize,
    /// `--workers N` worker processes, instead of threads.
    pub workers: Option<usize>,
    /// `--shards N` entity shards (default 1).
    pub shards: usize,
}

impl ProfileSpec {
    /// Parses and checks `command`'s profiling options.
    pub fn parse(command: Command, args: &[String]) -> Result<ProfileSpec, SpecError> {
        let jobs: Option<usize> = number(args, "--jobs", None)?;
        let workers: Option<usize> = number(args, "--workers", None)?;
        let shards: Option<usize> = number(args, "--shards", Some((1, "need at least one shard")))?;
        let deadline = number(args, "--deadline-ms", None)?.map(Duration::from_millis);
        let mem_budget = number::<usize>(args, "--mem-budget-mb", None)?.map(MemBudget::mib);
        let window: Option<u64> =
            number(args, "--phase-window", Some((1, "window must be positive")))?;
        let max_rearms: Option<u64> = number(args, "--max-rearms", None)?;

        if jobs.is_some() && workers.is_some() {
            return Err(SpecError::Exclusive("--jobs", "--workers"));
        }
        let (adaptive, convergent) = (flag(args, "--adaptive"), flag(args, "--convergent"));
        if adaptive && convergent {
            return Err(SpecError::Exclusive("--adaptive", "--convergent"));
        }
        if !adaptive && (window.is_some() || max_rearms.is_some()) {
            return Err(SpecError::PhaseNeedsAdaptive);
        }
        let mode = if adaptive {
            let mut budget = PhaseBudget::default();
            budget.window = window.unwrap_or(budget.window);
            budget.max_rearms = max_rearms.unwrap_or(budget.max_rearms);
            ProfileMode::Adaptive(ConvergentConfig::default(), budget)
        } else if convergent {
            ProfileMode::Convergent(ConvergentConfig::default())
        } else {
            ProfileMode::Full
        };
        if mem_budget.is_some() && mode != ProfileMode::Full {
            return Err(SpecError::BudgetNeedsFull(mode.name()));
        }

        let suite = matches!(command, Command::ProfileSuite | Command::Optimize);
        let streams = command != Command::Profile;
        for (given, supported, flag) in [
            (convergent, command != Command::Replay, "--convergent"),
            (adaptive, streams, "--adaptive"),
            (mem_budget.is_some(), streams, "--mem-budget-mb"),
            (deadline.is_some(), streams, "--deadline-ms"),
            (jobs.is_some(), suite, "--jobs"),
            (workers.is_some(), suite, "--workers"),
            (shards.is_some(), streams && command != Command::Serve, "--shards"),
        ] {
            if given && !supported {
                return Err(SpecError::Unsupported { command: command.name(), flag });
            }
        }
        Ok(ProfileSpec {
            mode,
            mem_budget,
            deadline,
            jobs: jobs.unwrap_or(1),
            workers,
            shards: shards.unwrap_or(1),
        })
    }

    /// The flags that give a `worker` process this spec's profiling
    /// options. Parallelism stays with the parent.
    pub fn worker_args(&self) -> Vec<String> {
        let mut args: Vec<String> = Vec::new();
        match self.mode {
            ProfileMode::Full => {}
            ProfileMode::Convergent(_) => args.push("--convergent".into()),
            ProfileMode::Adaptive(_, budget) => args.extend([
                "--adaptive".into(),
                "--phase-window".into(),
                budget.window.to_string(),
                "--max-rearms".into(),
                budget.max_rearms.to_string(),
            ]),
            ProfileMode::Sampled(_) => unreachable!("no command line selects sampling"),
        }
        if let Some(budget) = self.mem_budget {
            args.extend(["--mem-budget-mb".into(), (budget.limit_bytes() >> 20).to_string()]);
        }
        if let Some(deadline) = self.deadline {
            args.extend(["--deadline-ms".into(), deadline.as_millis().to_string()]);
        }
        args.extend(["--shards".into(), self.shards.to_string()]);
        args
    }
}
