//! The serve phase of `trace-replay`'s traced run: two client
//! connections from the benchmark process concurrently stream seeded
//! traces, as two tenants, into a serve daemon running in its own
//! process. Sessions are full-mode; the clients stay inside the daemon's
//! window and end every session with `END`.
//!
//! The daemon is `vp_bench::serve::serve` as `vprof serve --socket S
//! --state-dir D --window 128 --checkpoint-every 64` runs it, started by
//! this binary's `daemon` subcommand.
//!
//! It feeds the decode and profile-update layers `trace-replay` times,
//! but chunk by chunk, with durable chunk logs, fsync'd checkpoints and
//! socket round trips alongside. Its timings vary too much from run to
//! run to gate on (see README.md), so they are per-layer metrics.

use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use vp_bench::serve::{serve, ServeConfig};
use vp_core::durable::{append_jsonl, render_profile_durable};
use vp_core::{InstructionProfiler, TrackerConfig};
use vp_instrument::frame::{self, FrameError, FrameReader};
use vp_instrument::net::{self, MsgError, SessionMsg};
use vp_instrument::trace_codec::raw_chunks;
use vp_instrument::{TraceEncoder, TraceFile};
use vp_workloads::adversarial::diurnal;

use crate::check::{self, NaiveCounter, Ops};
use crate::remaining;
use crate::replay::stream_seed;
use crate::report::Report;
use crate::stats::{self, median, median_by, ms};

/// Events per chunk the clients send.
const CHUNK_EVENTS: usize = 2048;
/// Chunks per session; a multiple of [`CHECKPOINT_EVERY`], so every
/// chunk is covered by an `ACK` frame.
const CHUNKS: usize = 1280;
/// The daemon's inflight window and checkpoint interval. Between frames
/// the daemon polls its socket and sleeps 10 ms when nothing is waiting,
/// and after each `ACK` it holds at most `WINDOW - CHECKPOINT_EVERY`
/// queued chunks. With the defaults (16 and 8) those chunks last about a
/// millisecond, so whether a client refilled the window in time decided
/// the pass: pass times spread 0.3-0.7 (IQR over median) across ten
/// runs. 64 queued chunks keep the daemon busy far longer than a client
/// takes to refill.
const WINDOW: u64 = 128;
const CHECKPOINT_EVERY: u64 = 64;
/// Bound on any single wait for the daemon.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// The two tenants and the workload name of their sessions.
const TENANTS: [(&str, &str); 2] = [("t0", "diurnal"), ("t1", "diurnal")];

fn socket_path(dir: &Path) -> PathBuf {
    dir.join("serve.sock")
}

fn state_dir(dir: &Path) -> PathBuf {
    dir.join("state")
}

/// The tenants' seeded streams: a diurnal drift of the dominant value
/// over 512 pcs, with 20% noise, drawn with a seed of each tenant's own.
/// Both tenants are the same size, so the daemon's memory does not
/// depend on which session thread lands in which allocator arena.
fn streams(seed: u64) -> [Vec<(u32, u64)>; 2] {
    const PCS: u32 = 512;
    const EPOCHS: u64 = 4;
    let epoch = (CHUNKS * CHUNK_EVENTS) as u64 / (u64::from(PCS) * EPOCHS);
    [3, 4].map(|k| diurnal(PCS, epoch, EPOCHS, 20, stream_seed(seed, k)))
}

/// A daemon process started by this benchmark.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and returns once its socket accepts.
    fn start(dir: &Path) -> Result<Daemon, String> {
        let socket = socket_path(dir);
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let child = Command::new(exe)
            .arg("daemon")
            .arg(&socket)
            .arg(state_dir(dir))
            .env("GLIBC_TUNABLES", crate::MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon { child, socket };
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited at start-up: {status}"));
            }
            if remaining(deadline).is_zero() {
                daemon.stop();
                return Err("the daemon's socket never accepted".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain with a `SHUTDOWN` frame and waits for it
    /// to exit; kills it if it has not exited within the timeout.
    fn stop(mut self) {
        if let Ok(mut s) = UnixStream::connect(&self.socket) {
            let _ = frame::write_magic(&mut s)
                .and_then(|()| net::write_msg(&mut s, &SessionMsg::Shutdown));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while remaining(deadline) > Duration::ZERO {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        eprintln!("perfbench: the daemon did not drain; killing it");
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The `daemon` subcommand: `daemon <socket> <state-dir>`.
pub fn daemon_main(argv: &[String]) -> Result<ExitCode, String> {
    let [socket, state] = argv else {
        return Err("usage: daemon <socket> <state-dir>".to_string());
    };
    let mut cfg = ServeConfig::new(PathBuf::from(socket), PathBuf::from(state));
    cfg.window = WINDOW;
    cfg.checkpoint_every = CHECKPOINT_EVERY;
    serve(cfg)?;
    Ok(ExitCode::SUCCESS)
}

/// Replays an encoded trace the way `trace-replay` does.
fn replay_profile(file: &TraceFile) -> Result<InstructionProfiler, String> {
    let mut reader = file.reader().map_err(|e| e.to_string())?;
    let mut profiler = InstructionProfiler::new(TrackerConfig::with_full());
    let mut scratch = Vec::new();
    while reader.next_chunk_into(&mut scratch).map_err(|e| e.to_string())? {
        profiler.observe_batch(&scratch);
    }
    Ok(profiler)
}

/// One chunk as the client sends it.
struct Chunk {
    count: u32,
    crc: u32,
    payload: Vec<u8>,
}

/// What the daemon has answered so far in a session.
#[derive(Default)]
struct Replies {
    acked: u64,
    /// Time the client saw each `ACK` (and the final `END_OK`), with its
    /// cursor, in arrival order.
    acks: Vec<(Instant, u64)>,
    throttles: u64,
    end: Option<(u64, String)>,
    error: Option<String>,
    closed: bool,
}

impl Replies {
    /// Reads one reply (blocking) and records it.
    fn read(&mut self, reader: &mut FrameReader<UnixStream>) {
        let msg = net::read_msg(reader);
        let now = Instant::now();
        match msg {
            Ok(SessionMsg::Ack { acked }) => {
                self.acked = self.acked.max(acked);
                self.acks.push((now, acked));
            }
            Ok(SessionMsg::Throttle { acked }) => {
                self.throttles += 1;
                self.acked = self.acked.max(acked);
            }
            Ok(SessionMsg::EndOk { acked, profile }) => {
                self.acks.push((now, acked));
                self.end = Some((acked, profile));
            }
            Ok(SessionMsg::Err { reason }) => {
                self.error.get_or_insert(format!("ERR: {reason}"));
            }
            Ok(other) => {
                self.error.get_or_insert(format!("unexpected reply {other:?}"));
            }
            Err(MsgError::Frame(FrameError::PeerClosed)) => self.closed = true,
            Err(e) => {
                self.error.get_or_insert(format!("reply stream: {e}"));
                self.closed = true;
            }
        }
    }

    /// Reads replies until `done` holds, or an error or a close ends the
    /// session.
    fn read_until(
        &mut self,
        reader: &mut FrameReader<UnixStream>,
        done: impl Fn(&Replies) -> bool,
    ) {
        while !(done(self) || self.error.is_some() || self.closed) {
            self.read(reader);
        }
    }
}

/// What one session measured.
#[derive(Debug, Default)]
struct SessionOut {
    hello_ms: f64,
    end_ms: f64,
    window_wait_ms: f64,
    throttles: u64,
    acks_ms: Vec<f64>,
    unacked: u64,
    acked: u64,
    profile: Option<String>,
    error: Option<String>,
}

/// Latency from each chunk's send to the first `ACK` covering it, and
/// the number of chunks no `ACK` covered. `acks` is in arrival order.
fn ack_latencies(sends: &[Instant], acks: &[(Instant, u64)]) -> (Vec<f64>, u64) {
    let mut out = Vec::with_capacity(sends.len());
    let mut unacked = 0;
    let mut j = 0;
    for (seq, &sent) in sends.iter().enumerate() {
        while j < acks.len() && acks[j].1 <= seq as u64 {
            j += 1;
        }
        match acks.get(j) {
            Some(&(at, _)) => out.push(ms(at.saturating_duration_since(sent))),
            None => unacked += 1,
        }
    }
    (out, unacked)
}

/// Failed operations of a session that sent `chunks` chunks: the session
/// itself (refused, killed, short-acked, or a wrong profile) and every
/// chunk no `ACK` covered.
fn session_failures(out: &SessionOut, chunks: u64, expect: &str) -> Option<(u64, String)> {
    let problem = if let Some(e) = &out.error {
        Some(e.clone())
    } else if out.acked != chunks {
        Some(format!("END_OK acked {} of {chunks} chunks", out.acked))
    } else if out.profile.as_deref() != Some(expect) {
        Some("END_OK profile differs from the replay profile".to_string())
    } else {
        None
    };
    let failed = u64::from(problem.is_some()) + out.unacked;
    (failed > 0).then(|| {
        let msg = problem.unwrap_or_else(|| format!("{} chunks never acknowledged", out.unacked));
        (failed, msg)
    })
}

/// Opens a session and returns the socket, its reader, and the
/// `HELLO` → `HELLO_OK` time.
fn hello(
    socket: &Path,
    tenant: &str,
    workload: &str,
) -> Result<(UnixStream, FrameReader<UnixStream>, f64), String> {
    let io = |e: io::Error| format!("connection: {e}");
    let t = Instant::now();
    let mut stream = UnixStream::connect(socket).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let mut reader = FrameReader::new(stream.try_clone().map_err(io)?);
    frame::write_magic(&mut stream).map_err(io)?;
    net::write_msg(
        &mut stream,
        &SessionMsg::Hello { tenant: tenant.to_string(), workload: workload.to_string() },
    )
    .map_err(io)?;
    reader.expect_magic().map_err(|e| format!("greeting: {e}"))?;
    match net::read_msg(&mut reader) {
        Ok(SessionMsg::HelloOk { acked: 0 }) => Ok((stream, reader, ms(t.elapsed()))),
        Ok(other) => Err(format!("HELLO answered with {other:?}")),
        Err(e) => Err(format!("HELLO: {e}")),
    }
}

/// One full session: `HELLO`, every chunk inside the window, `END`, and
/// the close that follows `END_OK`. Between sends the client reads every
/// reply that has already arrived, so an `ACK` is timed when it lands,
/// not when the window next fills.
fn session(socket: &Path, tenant: &str, workload: &str, chunks: &[Chunk]) -> SessionOut {
    let (mut stream, mut reader, hello_ms) = match hello(socket, tenant, workload) {
        Ok(h) => h,
        Err(e) => {
            return SessionOut {
                error: Some(e),
                unacked: chunks.len() as u64,
                ..SessionOut::default()
            }
        }
    };
    let mut r = Replies::default();
    let mut sends = Vec::with_capacity(chunks.len());
    let mut window_wait = Duration::ZERO;
    let mut end_ms = 0.0;
    for (seq, c) in chunks.iter().enumerate() {
        let seq = seq as u64;
        while !(r.error.is_some() || r.closed) && net::data_ready(&stream).unwrap_or(true) {
            r.read(&mut reader);
        }
        if seq - r.acked >= WINDOW {
            let w = Instant::now();
            r.read_until(&mut reader, |r| seq - r.acked < WINDOW);
            window_wait += w.elapsed();
        }
        if r.error.is_some() || r.closed {
            break;
        }
        sends.push(Instant::now());
        let msg = SessionMsg::Chunk { seq, count: c.count, crc: c.crc, payload: c.payload.clone() };
        if let Err(e) = net::write_msg(&mut stream, &msg) {
            r.error = Some(format!("send chunk {seq}: {e}"));
            break;
        }
    }
    if r.error.is_none() && !r.closed {
        let e = Instant::now();
        match net::write_msg(&mut stream, &SessionMsg::End) {
            Ok(()) => {
                r.read_until(&mut reader, |r| r.end.is_some());
                end_ms = ms(e.elapsed());
            }
            Err(e) => r.error = Some(format!("send END: {e}")),
        }
    }
    // The daemon closes the connection once it has released the session;
    // waiting for that keeps the next session of this tenant from racing
    // the release.
    r.read_until(&mut reader, |_| false);
    let (acks_ms, unacked) = ack_latencies(&sends, &r.acks);
    let (acked, profile) = match r.end {
        Some((acked, profile)) => (acked, Some(profile)),
        None => (0, None),
    };
    if profile.is_none() && r.error.is_none() {
        r.error = Some("connection closed before END_OK".to_string());
    }
    SessionOut {
        hello_ms,
        end_ms,
        window_wait_ms: ms(window_wait),
        throttles: r.throttles,
        acks_ms,
        unacked: unacked + (chunks.len() - sends.len()) as u64,
        acked,
        profile,
        error: r.error,
    }
}

/// `QUERY` → `STATS` round trips on an otherwise idle session.
fn query_rtts(socket: &Path, n: usize) -> Result<Vec<f64>, String> {
    let (mut stream, mut reader, _) = hello(socket, "probe", "rtt")?;
    let io = |e: io::Error| format!("connection: {e}");
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        net::write_msg(&mut stream, &SessionMsg::Query).map_err(io)?;
        match net::read_msg(&mut reader) {
            Ok(SessionMsg::Stats { .. }) => rtts.push(ms(t.elapsed())),
            Ok(other) => return Err(format!("QUERY answered with {other:?}")),
            Err(e) => return Err(format!("QUERY: {e}")),
        }
    }
    net::write_msg(&mut stream, &SessionMsg::End).map_err(io)?;
    loop {
        match net::read_msg(&mut reader) {
            Ok(SessionMsg::EndOk { .. }) => {}
            Ok(other) => return Err(format!("END answered with {other:?}")),
            Err(MsgError::Frame(FrameError::PeerClosed)) => return Ok(rtts),
            Err(e) => return Err(format!("END: {e}")),
        }
    }
}

/// The fsync floor: `append_jsonl` of a checkpoint-sized record in the
/// state directory, median of 32 appends to a fresh file, ms.
fn append_sync_ms(state: &Path) -> Result<f64, String> {
    let path = state.join("bench-append.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut times = Vec::with_capacity(32);
    for i in 0..32u64 {
        let acked = CHECKPOINT_EVERY * i;
        let events = acked * CHUNK_EVENTS as u64;
        let line = format!(
            "{{\"kind\":\"session-checkpoint\",\"tenant\":\"t0\",\"workload\":\"diurnal\",\"acked\":{acked},\"events\":{events}}}\n"
        );
        let t = Instant::now();
        append_jsonl(&path, &line).map_err(|e| format!("append {}: {e}", path.display()))?;
        times.push(ms(t.elapsed()));
    }
    std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    Ok(median(&times))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

struct Pass {
    wall_ms: f64,
    sessions: Vec<SessionOut>,
}

/// Exact counts of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    chunks_acked: u64,
    sessions_completed: u64,
}

/// Threads of a process (`Threads:` of its status).
fn threads(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

/// The measuring side: the running daemon, and each tenant's chunks and
/// the `END_OK` profile they must produce.
struct Ingest {
    socket: PathBuf,
    pid: u32,
    /// Threads of the daemon with no session open.
    idle_threads: u64,
    tenants: [Vec<Chunk>; 2],
    expects: [String; 2],
}

impl Ingest {
    /// Waits (up to a second) until the daemon's session threads of the
    /// last pass have exited, so that no session thread's memory outlives
    /// its pass into the next.
    fn wait_idle(&self) {
        let deadline = Instant::now() + Duration::from_secs(1);
        while threads(self.pid).is_some_and(|n| n > self.idle_threads)
            && !remaining(deadline).is_zero()
        {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Both tenants' sessions, concurrently, one connection each, on an
    /// idle daemon (the wait for it is not timed).
    fn pass(&self) -> Pass {
        self.wait_idle();
        let start = Instant::now();
        let sessions = std::thread::scope(|s| {
            let handles: Vec<_> = TENANTS
                .iter()
                .zip(&self.tenants)
                .map(|(&(tenant, workload), chunks)| {
                    s.spawn(move || session(&self.socket, tenant, workload, chunks))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
        });
        Pass { wall_ms: ms(start.elapsed()), sessions }
    }

    fn check_pass(&self, p: &Pass, ops: &mut Ops) -> Counts {
        let mut c = Counts::default();
        for ((s, expect), (tenant, _)) in p.sessions.iter().zip(&self.expects).zip(TENANTS) {
            let failures = session_failures(s, CHUNKS as u64, expect);
            ops.record_many(&format!("{tenant} session"), 1 + CHUNKS as u64, failures);
            if s.profile.is_some() {
                c.chunks_acked += s.acked;
                c.sessions_completed += 1;
            }
        }
        c
    }

    /// Passes until `seconds` have gone by (at least `min_passes`),
    /// calling `after_each` after each.
    fn passes(
        &self,
        seconds: f64,
        min_passes: usize,
        mut after_each: impl FnMut(&Pass),
        counts: &mut Option<Counts>,
        ops: &mut Ops,
    ) -> Vec<Pass> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut out = Vec::new();
        while out.len() < min_passes || !remaining(deadline).is_zero() {
            let p = self.pass();
            let c = self.check_pass(&p, ops);
            ops.record("pass counts", check::same(&c, counts.get_or_insert(c)));
            after_each(&p);
            out.push(p);
        }
        out
    }
}

/// Runs the serve phase under `dir` for `seconds` and reports its
/// per-layer metrics. The tenants' traces are checked against the naive
/// counter, and every `END_OK` profile against their replay profile.
pub fn measure_layers(
    dir: &Path,
    seed: u64,
    seconds: f64,
    ops: &mut Ops,
    report: &mut Report,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut tenants: [Vec<Chunk>; 2] = [Vec::new(), Vec::new()];
    let mut expects: [String; 2] = [String::new(), String::new()];
    for (i, ((tenant, _), stream)) in TENANTS.iter().zip(streams(seed)).enumerate() {
        let mut enc = TraceEncoder::with_chunk_events(CHUNK_EVENTS);
        enc.push_all(&stream);
        let file = TraceFile::from_bytes(enc.finish());
        let profiler = replay_profile(&file)?;
        let mut naive = NaiveCounter::default();
        naive.observe_all(&stream);
        ops.record(
            &format!("{tenant} reference"),
            check::check_profile(&naive.summary(), &profiler.metrics()),
        );
        expects[i] = render_profile_durable(&profiler.metrics());
        tenants[i] = raw_chunks(file.bytes())
            .map_err(|e| format!("{tenant}: {e}"))?
            .iter()
            .map(|c| Chunk { count: c.count, crc: c.crc, payload: c.payload.to_vec() })
            .collect();
    }
    let events = (2 * CHUNKS * CHUNK_EVENTS) as f64;
    let daemon = Daemon::start(dir)?;
    let ingest = Ingest {
        socket: socket_path(dir),
        pid: daemon.pid(),
        idle_threads: threads(daemon.pid()).unwrap_or(1),
        tenants,
        expects,
    };
    let state = state_dir(dir);
    let mut state_bytes = Vec::new();
    let mut probes = Vec::new();
    let mut rtts = Vec::new();
    let mut counts = None;
    // Warm-up pass, checked like the rest.
    ingest.passes(0.0, 1, |_| {}, &mut counts, ops);
    let timed = ingest.passes(
        seconds,
        3,
        |_| {
            state_bytes.push(dir_bytes(&state) as f64 / events);
            probes.push(query_rtts(&ingest.socket, 16).map(|r| rtts.extend(r)));
        },
        &mut counts,
        ops,
    );
    let appends: Result<Vec<f64>, String> = (0..3).map(|_| append_sync_ms(&state)).collect();
    let daemon_rss = crate::peak_rss_mb(Some(daemon.pid()));
    daemon.stop();
    for probe in probes {
        ops.record("query probe", probe);
    }
    let c = counts.expect("a pass ran");
    let acks: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.sessions.iter().flat_map(|s| s.acks_ms.iter().copied()))
        .collect();
    if acks.is_empty() {
        return Err("no chunk was acknowledged".to_string());
    }
    let pass_ms = median_by(&timed, |p| p.wall_ms);
    let per_session = |f: &dyn Fn(&SessionOut) -> f64| {
        median_by(&timed, |p| p.sessions.iter().map(f).sum::<f64>() / p.sessions.len() as f64)
    };
    report.set("serve.pass_ms", pass_ms);
    report.set("serve.throughput_mevents_s", events / (pass_ms * 1e3));
    report.set("serve.ack_p50_ms", stats::percentile(&acks, 50.0));
    report.set("serve.ack_p99_ms", stats::percentile(&acks, 99.0));
    report.set("serve.peak_rss_mb", daemon_rss.ok_or("cannot read the daemon's VmHWM")?);
    report.set("net.hello_ms", per_session(&|s| s.hello_ms));
    report.set("net.query_rtt_ms", if rtts.is_empty() { 0.0 } else { median(&rtts) });
    report.set("durable.append_sync_ms", median(&appends?));
    report.set("net.window_wait_ms", per_session(&|s| s.window_wait_ms));
    let throttles: u64 = timed.iter().flat_map(|p| p.sessions.iter().map(|s| s.throttles)).sum();
    report.set("net.throttles", throttles as f64);
    report.set("net.end_ms", per_session(&|s| s.end_ms));
    report.set("serve.state_bytes_per_event", median(&state_bytes));
    report.set("serve.chunks_acked", c.chunks_acked as f64);
    report.set("serve.sessions_completed", c.sessions_completed as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_latency_takes_the_first_covering_ack() {
        let t0 = Instant::now();
        let at = |m: u64| t0 + Duration::from_millis(m);
        let sends = [at(0), at(1), at(2), at(3)];
        // ACK{2} at 10 ms covers chunks 0 and 1; ACK{4} at 20 ms covers 2, 3.
        let (lat, unacked) = ack_latencies(&sends, &[(at(10), 2), (at(20), 4)]);
        assert_eq!(lat, vec![10.0, 9.0, 18.0, 17.0]);
        assert_eq!(unacked, 0);
        // Without the second ACK, chunks 2 and 3 are missing.
        let (lat, unacked) = ack_latencies(&sends, &[(at(10), 2)]);
        assert_eq!((lat.len(), unacked), (2, 2));
    }

    #[test]
    fn session_failure_accounting() {
        let ok = SessionOut { acked: 8, profile: Some("p".to_string()), ..SessionOut::default() };
        assert_eq!(session_failures(&ok, 8, "p"), None);
        let wrong = SessionOut { profile: Some("q".to_string()), ..ok };
        assert_eq!(session_failures(&wrong, 8, "p").map(|f| f.0), Some(1));
        let short = SessionOut {
            acked: 6,
            unacked: 2,
            profile: Some("p".to_string()),
            ..SessionOut::default()
        };
        assert_eq!(session_failures(&short, 8, "p").map(|f| f.0), Some(3));
        let busy =
            SessionOut { error: Some("BUSY".to_string()), unacked: 8, ..SessionOut::default() };
        assert_eq!(session_failures(&busy, 8, "p").map(|f| f.0), Some(9));
        let lost = SessionOut {
            acked: 8,
            unacked: 1,
            profile: Some("p".to_string()),
            ..SessionOut::default()
        };
        assert_eq!(
            session_failures(&lost, 8, "p"),
            Some((1, "1 chunks never acknowledged".to_string()))
        );
    }
}
