//! Output checks that share no code with the profiler: a naive per-pc
//! value counter, the comparison of a profile against it, and the
//! accounting of attempted and failed operations.
//!
//! The counter is a plain `HashMap` of `HashMap`s. It reads only the
//! `(pc, value)` events and the profiler's public `EntityMetrics` output;
//! nothing in `vp_core` computes any number it checks.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;

use vp_core::EntityMetrics;
use vp_instrument::Analysis;
use vp_sim::{InstrEvent, Machine};

/// Exact per-pc value counts of an event stream.
#[derive(Debug, Default)]
pub struct NaiveCounter {
    counts: HashMap<u32, HashMap<u64, u64>>,
}

impl NaiveCounter {
    pub fn observe(&mut self, pc: u32, value: u64) {
        *self.counts.entry(pc).or_default().entry(value).or_insert(0) += 1;
    }

    pub fn observe_all(&mut self, events: &[(u32, u64)]) {
        for &(pc, value) in events {
            self.observe(pc, value);
        }
    }

    /// One summary per pc, ordered by pc.
    pub fn summary(&self) -> Vec<PcSummary> {
        let mut out: Vec<PcSummary> = self
            .counts
            .iter()
            .map(|(&pc, values)| PcSummary {
                pc,
                executions: values.values().sum(),
                top1: values.values().copied().max().unwrap_or(0),
                distinct: values.len() as u64,
            })
            .collect();
        out.sort_by_key(|s| s.pc);
        out
    }
}

/// Feeds every register-defining instruction's value into a naive
/// counter, as the profilers' own hook does.
#[derive(Debug, Default)]
pub struct NaiveAnalysis(pub NaiveCounter);

impl Analysis for NaiveAnalysis {
    fn after_instr(&mut self, _m: &Machine, event: &InstrEvent) {
        if let Some((_, value)) = event.dest {
            self.0.observe(event.index, value);
        }
    }
}

/// What the naive counter knows about one pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcSummary {
    pub pc: u32,
    pub executions: u64,
    /// Count of the most frequent value.
    pub top1: u64,
    pub distinct: u64,
}

/// Checks a full-mode profile's executions, Inv-All top-1 and
/// distinct-value count of every pc against the naive counter.
pub fn check_profile(expected: &[PcSummary], got: &[EntityMetrics]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} pcs profiled, {} expected", got.len(), expected.len()));
    }
    for (e, m) in expected.iter().zip(got) {
        if m.id != u64::from(e.pc) {
            return Err(format!("pc {} profiled where {} expected", m.id, e.pc));
        }
        if m.executions != e.executions {
            return Err(format!(
                "pc {}: {} executions, {} expected",
                e.pc, m.executions, e.executions
            ));
        }
        if m.distinct != Some(e.distinct) {
            return Err(format!(
                "pc {}: {:?} distinct values, {} expected",
                e.pc, m.distinct, e.distinct
            ));
        }
        let inv = e.top1 as f64 / e.executions as f64;
        match m.inv_all1 {
            Some(x) if (x - inv).abs() <= 1e-12 => {}
            other => return Err(format!("pc {}: Inv-All top-1 {other:?}, {inv} expected", e.pc)),
        }
    }
    Ok(())
}

/// `Ok` when `got` equals `want`; otherwise both, for the log.
pub fn same<T: PartialEq + std::fmt::Debug>(got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?}"))
    }
}

/// Writes named summaries, one `unit pc executions top1 distinct` line
/// per pc.
pub fn write_summaries(path: &Path, units: &[(String, Vec<PcSummary>)]) -> Result<(), String> {
    let mut text = String::new();
    for (unit, rows) in units {
        for s in rows {
            writeln!(text, "{unit} {} {} {} {}", s.pc, s.executions, s.top1, s.distinct)
                .expect("writing to a String cannot fail");
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Reads what [`write_summaries`] wrote.
pub fn read_summaries(path: &Path) -> Result<BTreeMap<String, Vec<PcSummary>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out: BTreeMap<String, Vec<PcSummary>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split(' ').collect();
        let num = |k: usize| -> Result<u64, String> {
            f.get(k)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("{}:{}: bad line `{line}`", path.display(), i + 1))
        };
        if f.len() != 5 {
            return Err(format!("{}:{}: bad line `{line}`", path.display(), i + 1));
        }
        let pc =
            u32::try_from(num(1)?).map_err(|_| format!("{}:{}: bad pc", path.display(), i + 1))?;
        out.entry(f[0].to_string()).or_default().push(PcSummary {
            pc,
            executions: num(2)?,
            top1: num(3)?,
            distinct: num(4)?,
        });
    }
    Ok(out)
}

/// Attempted and failed operations of one run. A failure is never
/// skipped: it is counted, and the first one is kept for the log.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ops {
    /// Counts one operation and its check.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.record_many(what, 1, result.err().map(|e| (1, e)));
    }

    /// Counts `attempted` operations of which `failure.0` failed.
    pub fn record_many(&mut self, what: &str, attempted: u64, failure: Option<(u64, String)>) {
        self.attempted += attempted;
        if let Some((n, message)) = failure {
            let n = n.clamp(1, attempted.max(1));
            self.failed += n;
            if self.first_failure.is_none() {
                eprintln!("perfbench: {what}: {message}");
                self.first_failure = Some(format!("{what}: {message}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(id: u64, executions: u64, inv: f64, distinct: u64) -> EntityMetrics {
        EntityMetrics {
            id,
            executions,
            lvp: 0.0,
            inv_top1: 0.0,
            inv_topn: 0.0,
            inv_all1: Some(inv),
            inv_alln: None,
            pct_zero: 0.0,
            distinct: Some(distinct),
            top_value: None,
        }
    }

    #[test]
    fn naive_counter_matches_hand_count() {
        // pc 3: 5,5,7,5 -> 4 executions, top value 5 seen 3 times, 2 distinct.
        // pc 1: 9 -> 1 execution.
        let mut c = NaiveCounter::default();
        c.observe_all(&[(3, 5), (1, 9), (3, 5), (3, 7), (3, 5)]);
        assert_eq!(
            c.summary(),
            vec![
                PcSummary { pc: 1, executions: 1, top1: 1, distinct: 1 },
                PcSummary { pc: 3, executions: 4, top1: 3, distinct: 2 },
            ]
        );
    }

    #[test]
    fn check_accepts_matching_and_rejects_each_field() {
        let expected = vec![PcSummary { pc: 3, executions: 4, top1: 3, distinct: 2 }];
        assert!(check_profile(&expected, &[metrics(3, 4, 0.75, 2)]).is_ok());
        assert!(check_profile(&expected, &[metrics(4, 4, 0.75, 2)]).is_err());
        assert!(check_profile(&expected, &[metrics(3, 5, 0.75, 2)]).is_err());
        assert!(check_profile(&expected, &[metrics(3, 4, 0.5, 2)]).is_err());
        assert!(check_profile(&expected, &[metrics(3, 4, 0.75, 3)]).is_err());
        assert!(check_profile(&expected, &[]).is_err());
        let mut no_full = metrics(3, 4, 0.75, 2);
        no_full.inv_all1 = None;
        assert!(check_profile(&expected, &[no_full]).is_err());
    }

    #[test]
    fn profiler_agrees_with_naive_counter() {
        let events: Vec<(u32, u64)> =
            (0..5_000u64).map(|i| ((i % 7) as u32, (i * i) % 13)).collect();
        let mut naive = NaiveCounter::default();
        naive.observe_all(&events);
        let mut p = vp_core::InstructionProfiler::new(vp_core::TrackerConfig::with_full());
        p.observe_batch(&events);
        assert_eq!(check_profile(&naive.summary(), &p.metrics()), Ok(()));
    }

    #[test]
    fn summaries_round_trip() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.txt");
        let rows = vec![PcSummary { pc: 2, executions: 9, top1: 4, distinct: 3 }];
        write_summaries(&path, &[("a/test".to_string(), rows.clone())]).unwrap();
        let back = read_summaries(&path).unwrap();
        assert_eq!(back["a/test"], rows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_operations_are_counted() {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("bad".to_string()));
        ops.record("c", Err("worse".to_string()));
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert_eq!(ops.first_failure.as_deref(), Some("b: bad"));
        // A session of 75 chunks with 2 missing ACKs: 2 failures, not 75.
        ops.record_many("session", 75, Some((2, "2 chunks unacked".to_string())));
        assert_eq!((ops.attempted, ops.failed), (78, 4));
        // A failure is never counted as less than one operation.
        ops.record_many("x", 1, Some((0, "zero".to_string())));
        assert_eq!((ops.attempted, ops.failed), (79, 5));
    }
}
