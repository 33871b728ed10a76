//! # vp-instrument — ATOM-style binary instrumentation for VP64
//!
//! The Value Profiling paper collected its profiles with ATOM (Srivastava &
//! Eustace \[35\]): a tool that lets analysis code be attached to program
//! points — before/after instructions, at loads and stores, at procedure
//! entry and exit — and that exposes the program as a hierarchy of
//! procedures, basic blocks and instructions.
//!
//! This crate reproduces that programming model over the `vp-sim` emulator:
//!
//! * [`ProgramView`] — the static query interface (procedures → basic
//!   blocks → instructions),
//! * [`Analysis`] — the trait analysis tools implement; its callbacks
//!   receive the executing [`vp_sim::Machine`] plus the event data,
//! * [`Instrumenter`] — selects instrumentation points
//!   ([`Selection`]) and runs a program with the analysis attached,
//!   counting every analysis invocation so profiling *overhead* can be
//!   reported exactly (experiment E12),
//! * [`trace_codec`] — the compact varint-chunked, CRC-checked
//!   `(pc, value)` trace format: record the event stream once, replay it
//!   offline any number of times (`vprof record`/`replay`, `serve`, and
//!   intra-workload sharding),
//! * [`cancel`] — cooperative cancellation tokens and deadlines; the
//!   runner, replay, and the parallel maps check them at chunk
//!   boundaries so a hung workload can be cut loose without killing
//!   anything.
//!
//! ## Example: counting load instructions
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use vp_instrument::{Analysis, Instrumenter, Selection};
//! use vp_sim::{InstrEvent, Machine, MachineConfig};
//!
//! struct LoadCounter(u64);
//! impl Analysis for LoadCounter {
//!     fn after_instr(&mut self, _m: &Machine, event: &InstrEvent) {
//!         if event.instr.is_load() {
//!             self.0 += 1;
//!         }
//!     }
//! }
//!
//! let program = vp_asm::assemble(
//!     ".data\nx: .quad 9\n.text\nmain: la r1, x\n ldd r2, 0(r1)\n sys exit\n",
//! )?;
//! let mut counter = LoadCounter(0);
//! let run = Instrumenter::new()
//!     .select(Selection::LoadsOnly)
//!     .run(&program, MachineConfig::new(), 1_000, &mut counter)?;
//! assert_eq!(counter.0, 1);
//! assert_eq!(run.counts.instr_events, 1); // only the load was instrumented
//! # Ok(())
//! # }
//! ```

pub mod cancel;
pub mod frame;
pub mod net;
pub mod parallel;
pub mod plan;
pub mod runner;
pub mod trace_codec;
pub mod view;

pub use cancel::{CancelToken, Cancelled};
pub use frame::{Frame, FrameError, FrameReader};
pub use net::{MsgError, NetListener, SessionMsg};
pub use parallel::{
    effective_jobs, parallel_map, parallel_map_observed, try_parallel_map_deadline, FailureKind,
    ItemFailure,
};
pub use plan::Selection;
pub use runner::{Analysis, EventCounts, InstrumentedRun, Instrumenter};
pub use trace_codec::{ChunkReader, CodecError, TraceEncoder, TraceFile, TraceStats};
pub use view::{InstrRef, ProcView, ProgramView};
