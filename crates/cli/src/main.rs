//! `vprof` — the Value Profiling command-line tool.
//!
//! ```text
//! vprof list                          list built-in workloads
//! vprof run <target> [options]        run a program uninstrumented
//! vprof disasm <target>               print the assembled listing
//! vprof profile <target> [options]    value-profile a program
//! vprof compare <workload>            train-vs-test profile stability
//! vprof predict <workload>            value-predictor comparison
//! vprof specialize [period]           profile->specialize->measure demo
//! ```
//!
//! `<target>` is a built-in workload name (see `vprof list`) or a path to a
//! `.s` assembly file.

mod commands;
mod spec;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("vprof: {message}");
            ExitCode::FAILURE
        }
    }
}
