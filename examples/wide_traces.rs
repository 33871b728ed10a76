//! Writes two wide seeded value streams as `vprof record`-format traces,
//! the inputs of the `replay --shards` measurement in DESIGN.md §11:
//! `heavy.vpc` (2M events over 4096 pcs, Zipf-like values with a fat
//! tail) and `diurnal.vpc` (2M events over 2048 pcs, a slowly drifting
//! dominant value).
//!
//! Run with: `cargo run --release --example wide_traces -- <dir>`

use value_profiling::instrument::TraceEncoder;
use value_profiling::workloads::adversarial::{diurnal, heavy_tailed};

const EVENTS: usize = 1 << 21;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::PathBuf::from(std::env::args().nth(1).ok_or("usage: wide_traces <dir>")?);
    std::fs::create_dir_all(&dir)?;
    let epochs = 4;
    let streams = [
        ("heavy.vpc", heavy_tailed(4096, 1 << 16, 1.1, EVENTS, 1)),
        ("diurnal.vpc", diurnal(2048, (EVENTS / (2048 * epochs)) as u64, epochs as u64, 20, 1)),
    ];
    for (name, events) in streams {
        let mut enc = TraceEncoder::new();
        enc.push_all(&events);
        std::fs::write(dir.join(name), enc.finish())?;
    }
    Ok(())
}
