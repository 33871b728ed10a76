//! Report rendering and cross-profile comparison.
//!
//! Renders the paper-style metric tables and computes the train-vs-test
//! stability statistics of Table V.5 / experiment E8.

use std::fmt::Write as _;

use crate::metrics::{aggregate, correlation, Aggregate, EntityMetrics};

/// Formats a ratio as a percentage with one decimal, or `-` when absent.
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:5.1}", x * 100.0),
        None => "    -".to_string(),
    }
}

/// One labelled row of a report table.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRow {
    /// Row label (benchmark or entity name).
    pub label: String,
    /// The row's aggregate metrics.
    pub aggregate: Aggregate,
}

/// Renders the paper's standard metric table: one row per benchmark with
/// `LVP`, `Inv-Top(1)`, `Inv-Top(N)`, `Inv-All(1)`, `Inv-All(N)`, `%zero`
/// and `Diff(L/I)` columns (percentages).
pub fn render_metric_table(title: &str, rows: &[ReportRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8}",
        "program", "execs", "LVP", "InvT1", "InvTN", "InvA1", "InvAN", "%zero", "Diff"
    );
    for row in rows {
        let a = &row.aggregate;
        let diff = match a.diff_ratio {
            Some(d) => format!("{d:8.4}"),
            None => "       -".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {}",
            row.label,
            a.executions,
            pct(Some(a.lvp)),
            pct(Some(a.inv_top1)),
            pct(Some(a.inv_topn)),
            pct(a.inv_all1),
            pct(a.inv_alln),
            pct(Some(a.pct_zero)),
            diff,
        );
    }
    if rows.len() > 1 {
        let mean = mean_of(rows);
        let diff = match mean.diff_ratio {
            Some(d) => format!("{d:8.4}"),
            None => "       -".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {}",
            "mean",
            mean.executions,
            pct(Some(mean.lvp)),
            pct(Some(mean.inv_top1)),
            pct(Some(mean.inv_topn)),
            pct(mean.inv_all1),
            pct(mean.inv_alln),
            pct(Some(mean.pct_zero)),
            diff,
        );
    }
    out
}

/// Unweighted mean of row aggregates (the paper's cross-benchmark mean
/// row: each program counts equally regardless of run length).
///
/// Only rows with executions count: a program that never executed a
/// profiled entity has no invariance to average, so it neither drags the
/// ratios toward 0% nor, lacking `Inv-All`/`Diff`, blanks those columns.
/// An optional column is present when every executing row has it.
pub fn mean_of(rows: &[ReportRow]) -> Aggregate {
    let live: Vec<&Aggregate> =
        rows.iter().map(|r| &r.aggregate).filter(|a| a.executions > 0).collect();
    if live.is_empty() {
        return Aggregate::default();
    }
    let n = live.len() as f64;
    let mean = |f: &dyn Fn(&Aggregate) -> f64| live.iter().map(|a| f(a)).sum::<f64>() / n;
    let mean_opt = |f: &dyn Fn(&Aggregate) -> Option<f64>| -> Option<f64> {
        let vals: Option<Vec<f64>> = live.iter().map(|a| f(a)).collect();
        vals.map(|v| v.iter().sum::<f64>() / n)
    };
    Aggregate {
        entities: live.iter().map(|a| a.entities).sum(),
        executions: live.iter().map(|a| a.executions).sum(),
        lvp: mean(&|a| a.lvp),
        inv_top1: mean(&|a| a.inv_top1),
        inv_topn: mean(&|a| a.inv_topn),
        inv_all1: mean_opt(&|a| a.inv_all1),
        inv_alln: mean_opt(&|a| a.inv_alln),
        pct_zero: mean(&|a| a.pct_zero),
        diff_ratio: mean_opt(&|a| a.diff_ratio),
    }
}

/// Result of comparing two profiles of the same program (e.g. train and
/// test inputs, or full vs convergent profiling).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileComparison {
    /// Entities present in both profiles.
    pub common: usize,
    /// Entities present in exactly one profile.
    pub only_one_side: usize,
    /// Mean absolute difference of `Inv-Top(1)`, weighted by the first
    /// profile's execution counts.
    pub mean_abs_inv_diff: f64,
    /// Largest absolute per-entity `Inv-Top(1)` difference.
    pub max_abs_inv_diff: f64,
    /// Pearson correlation of per-entity `Inv-Top(1)` across profiles.
    pub inv_correlation: f64,
    /// Pearson correlation of per-entity LVP across profiles.
    pub lvp_correlation: f64,
    /// Fraction of common entities whose TNV top value agrees.
    pub top_value_agreement: f64,
}

/// Compares two metric sets keyed by entity id.
///
/// This is the machinery of experiment E8 (test vs train stability: the
/// Wall \[38\] result for value profiles) and E7 (convergent vs full
/// accuracy).
pub fn compare(a: &[EntityMetrics], b: &[EntityMetrics]) -> ProfileComparison {
    use std::collections::HashMap;
    let bmap: HashMap<u64, &EntityMetrics> = b.iter().map(|m| (m.id, m)).collect();
    let mut pairs: Vec<(&EntityMetrics, &EntityMetrics)> = Vec::new();
    let mut only = 0usize;
    for m in a {
        match bmap.get(&m.id) {
            Some(other) => pairs.push((m, other)),
            None => only += 1,
        }
    }
    only += b.len() - pairs.len();

    let weight: u64 = pairs.iter().map(|(x, _)| x.executions).sum();
    let mut wsum = 0.0;
    let mut max_diff = 0.0f64;
    let mut agree = 0usize;
    let mut xs = Vec::with_capacity(pairs.len());
    let mut ys = Vec::with_capacity(pairs.len());
    let mut lx = Vec::with_capacity(pairs.len());
    let mut ly = Vec::with_capacity(pairs.len());
    for (x, y) in &pairs {
        let d = (x.inv_top1 - y.inv_top1).abs();
        wsum += d * x.executions as f64;
        max_diff = max_diff.max(d);
        if x.top_value.is_some() && x.top_value == y.top_value {
            agree += 1;
        }
        xs.push(x.inv_top1);
        ys.push(y.inv_top1);
        lx.push(x.lvp);
        ly.push(y.lvp);
    }
    ProfileComparison {
        common: pairs.len(),
        only_one_side: only,
        mean_abs_inv_diff: if weight == 0 { 0.0 } else { wsum / weight as f64 },
        max_abs_inv_diff: max_diff,
        inv_correlation: correlation(&xs, &ys),
        lvp_correlation: correlation(&lx, &ly),
        top_value_agreement: if pairs.is_empty() { 0.0 } else { agree as f64 / pairs.len() as f64 },
    }
}

/// Groups instruction metrics by opcode class — the paper's per-class
/// breakdown (experiment E5). Entity ids must be instruction indices into
/// `program` (the [`InstructionProfiler`](crate::InstructionProfiler)
/// convention); out-of-range ids are ignored.
pub fn group_by_class(
    program: &vp_asm::Program,
    metrics: &[EntityMetrics],
) -> std::collections::BTreeMap<vp_isa::OpClass, Vec<EntityMetrics>> {
    let mut out: std::collections::BTreeMap<vp_isa::OpClass, Vec<EntityMetrics>> =
        std::collections::BTreeMap::new();
    for m in metrics {
        if let Some(instr) = program.code().get(m.id as usize) {
            out.entry(instr.class()).or_default().push(m.clone());
        }
    }
    out
}

/// Convenience: builds a [`ReportRow`] from raw entity metrics.
pub fn row(label: impl Into<String>, metrics: &[EntityMetrics]) -> ReportRow {
    ReportRow { label: label.into(), aggregate: aggregate(metrics) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entity(id: u64, executions: u64, inv: f64) -> EntityMetrics {
        EntityMetrics {
            id,
            executions,
            lvp: inv,
            inv_top1: inv,
            inv_topn: inv,
            inv_all1: Some(inv),
            inv_alln: Some(inv),
            pct_zero: 0.0,
            distinct: Some(1),
            top_value: Some((inv * 100.0) as u64),
        }
    }

    #[test]
    fn table_renders_all_columns() {
        let rows = vec![row("alpha", &[entity(0, 100, 0.9)]), row("beta", &[entity(0, 50, 0.5)])];
        let text = render_metric_table("loads", &rows);
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
        assert!(text.contains("mean"));
        assert!(text.contains("90.0"));
        assert!(text.contains("50.0"));
        assert!(text.contains("LVP"));
    }

    #[test]
    fn mean_is_unweighted() {
        let rows = vec![row("a", &[entity(0, 1000, 1.0)]), row("b", &[entity(0, 10, 0.0)])];
        let mean = mean_of(&rows);
        assert!((mean.inv_top1 - 0.5).abs() < 1e-12);
        assert_eq!(mean.executions, 1010);
        assert_eq!(mean_of(&[]), Aggregate::default());
    }

    #[test]
    fn mean_skips_rows_without_executions() {
        // A program that stores nothing has an all-default row: no
        // executions, no Inv-All, no Diff. It must not count as 0%.
        let rows = vec![
            row("a", &[entity(0, 100, 0.8)]),
            row("idle", &[]),
            row("b", &[entity(0, 10, 0.4)]),
        ];
        let mean = mean_of(&rows);
        assert!((mean.inv_top1 - 0.6).abs() < 1e-12);
        assert!((mean.lvp - 0.6).abs() < 1e-12);
        assert!((mean.inv_all1.unwrap() - 0.6).abs() < 1e-12);
        assert!((mean.inv_alln.unwrap() - 0.6).abs() < 1e-12);
        assert!(mean.diff_ratio.is_some());
        assert_eq!(mean.executions, 110);
        assert_eq!(mean_of(&[row("idle", &[])]), Aggregate::default());
    }

    #[test]
    fn comparison_identical_profiles() {
        let ms = vec![entity(0, 10, 0.9), entity(1, 20, 0.3)];
        let c = compare(&ms, &ms);
        assert_eq!(c.common, 2);
        assert_eq!(c.only_one_side, 0);
        assert_eq!(c.mean_abs_inv_diff, 0.0);
        assert_eq!(c.max_abs_inv_diff, 0.0);
        assert!((c.inv_correlation - 1.0).abs() < 1e-12);
        assert_eq!(c.top_value_agreement, 1.0);
    }

    #[test]
    fn comparison_detects_differences() {
        let a = vec![entity(0, 100, 0.9), entity(1, 100, 0.1), entity(2, 5, 0.5)];
        let b = vec![entity(0, 100, 0.8), entity(1, 100, 0.2)];
        let c = compare(&a, &b);
        assert_eq!(c.common, 2);
        assert_eq!(c.only_one_side, 1);
        assert!((c.max_abs_inv_diff - 0.1).abs() < 1e-12);
        assert!(c.mean_abs_inv_diff > 0.0);
        assert!(c.top_value_agreement < 1.0);
    }

    #[test]
    fn comparison_empty() {
        let c = compare(&[], &[]);
        assert_eq!(c.common, 0);
        assert_eq!(c.top_value_agreement, 0.0);
    }

    #[test]
    fn group_by_class_partitions() {
        let program = vp_asm::assemble(
            ".data\nx: .quad 1\n.text\nmain: la r8, x\n ldd r2, 0(r8)\n add r3, r2, r2\n sys exit\n",
        )
        .unwrap();
        let ms = vec![entity(0, 1, 0.5), entity(2, 1, 0.5), entity(3, 1, 0.5), entity(99, 1, 0.5)];
        let groups = group_by_class(&program, &ms);
        assert_eq!(groups[&vp_isa::OpClass::Load].len(), 1);
        assert_eq!(groups[&vp_isa::OpClass::IntAlu].len(), 2); // lui + add
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 3, "out-of-range id dropped");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(Some(0.5)), " 50.0");
        assert_eq!(pct(None), "    -");
    }
}
