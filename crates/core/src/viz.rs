//! Presentation of discovered insights.
//!
//! Section 1: "We can show to the user such interesting insights as
//! (i) histograms (if one-dimensional), (ii) heat maps (if
//! two-dimensional), or (iii) tables (for high-dimensional aggregates)."
//!
//! This module renders a [`TopAggregate`] into those
//! three shapes as plain text, so examples and the experiment harness can
//! show Figure 1(b)/Figure 6-style output without a plotting stack.

use crate::pipeline::TopAggregate;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const BAR_WIDTH: usize = 40;
const MAX_ROWS: usize = 16;

/// Compact human form of a value: `2.8B`, `120.0M`, `47.0`.
pub(crate) fn humanize(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}B", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Renders the aggregate in the shape matching its dimensionality.
pub fn render(agg: &TopAggregate) -> String {
    match agg.dims.len() {
        0 | 1 => histogram(agg),
        2 => heat_map(agg),
        _ => table(agg),
    }
}

/// One-dimensional: a horizontal bar chart like Figure 1(b)'s histogram.
pub(crate) fn histogram(agg: &TopAggregate) -> String {
    let mut out = format!("{}\n", agg.description());
    let max = agg
        .sample_groups
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_width = agg
        .sample_groups
        .iter()
        .take(MAX_ROWS)
        .map(|(l, _)| l.chars().count())
        .max()
        .unwrap_or(0)
        .clamp(4, 28);
    for (label, value) in agg.sample_groups.iter().take(MAX_ROWS) {
        let bar_len = ((value.abs() / max) * BAR_WIDTH as f64).round() as usize;
        let shown: String = label.chars().take(label_width).collect();
        let _ = writeln!(
            out,
            "  {shown:<label_width$} |{} {}",
            "#".repeat(bar_len.max(usize::from(*value != 0.0))),
            humanize(*value)
        );
    }
    if agg.groups > agg.sample_groups.len().min(MAX_ROWS) {
        let _ = writeln!(out, "  … ({} groups total)", agg.groups);
    }
    out
}

/// Two-dimensional: a value grid like Figure 1(b)'s heat map, with `·` for
/// empty combinations and shading characters by magnitude.
pub(crate) fn heat_map(agg: &TopAggregate) -> String {
    // Group labels are "x, y" pairs; rebuild the two axes.
    let mut cells: BTreeMap<(String, String), f64> = BTreeMap::new();
    for (label, value) in &agg.sample_groups {
        if let Some((x, y)) = label.split_once(", ") {
            cells.insert((x.to_owned(), y.to_owned()), *value);
        }
    }
    let mut xs: Vec<String> = cells.keys().map(|(x, _)| x.clone()).collect();
    let mut ys: Vec<String> = cells.keys().map(|(_, y)| y.clone()).collect();
    xs.sort();
    xs.dedup();
    xs.truncate(MAX_ROWS);
    ys.sort();
    ys.dedup();
    ys.truncate(8);
    let max = cells.values().fold(0.0f64, |a, &v| a.max(v.abs())).max(f64::MIN_POSITIVE);

    let mut out = format!("{}\n", agg.description());
    let xw = xs.iter().map(|s| s.chars().count()).max().unwrap_or(4).clamp(4, 20);
    let _ = write!(out, "  {:<xw$}", "");
    for y in &ys {
        let _ = write!(out, " {:>8.8}", y);
    }
    out.push('\n');
    for x in &xs {
        let shown: String = x.chars().take(xw).collect();
        let _ = write!(out, "  {shown:<xw$}");
        for y in &ys {
            match cells.get(&(x.clone(), y.clone())) {
                None => {
                    let _ = write!(out, " {:>8}", "·");
                }
                Some(v) => {
                    let shade = shade_of(v.abs() / max);
                    let _ = write!(out, " {shade}{:>7}", humanize(*v));
                }
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  (darker = larger: █ ▓ ▒ ░; {} groups total)", agg.groups);
    out
}

fn shade_of(intensity: f64) -> char {
    match intensity {
        i if i > 0.75 => '█',
        i if i > 0.5 => '▓',
        i if i > 0.25 => '▒',
        _ => '░',
    }
}

/// Three or more dimensions: a plain table.
pub(crate) fn table(agg: &TopAggregate) -> String {
    let mut out = format!("{}\n", agg.description());
    let _ = writeln!(out, "  {:<44} {:>14}", agg.dims.join(" | "), agg.mda);
    for (label, value) in agg.sample_groups.iter().take(MAX_ROWS) {
        let _ = writeln!(out, "  {label:<44} {value:>14.4}");
    }
    if agg.groups > agg.sample_groups.len().min(MAX_ROWS) {
        let _ = writeln!(out, "  … ({} groups total)", agg.groups);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(dims: &[&str], groups: &[(&str, f64)]) -> TopAggregate {
        TopAggregate {
            cfs: "type:CEO".into(),
            dims: dims.iter().map(|s| s.to_string()).collect(),
            mda: "sum(netWorth)".into(),
            score: 1.0,
            groups: groups.len(),
            sample_groups: groups.iter().map(|(l, v)| (l.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn one_dim_renders_histogram() {
        let a = agg(
            &["countryOfOrigin"],
            &[("Angola", 2.8e9), ("France", 1.2e8), ("Brazil", 0.9e8)],
        );
        let s = render(&a);
        assert!(s.contains("Angola"));
        // The outlier gets the longest bar.
        let angola_bar = s.lines().find(|l| l.contains("Angola")).unwrap();
        let france_bar = s.lines().find(|l| l.contains("France")).unwrap();
        let count = |l: &str| l.matches('#').count();
        assert!(count(angola_bar) > 5 * count(france_bar).max(1));
    }

    #[test]
    fn two_dims_render_heat_map() {
        let a = agg(
            &["nationality", "numOf(company)"],
            &[
                ("Angola, 2", 35.0),
                ("France, 1", 60.0),
                ("France, 2", 58.0),
                ("Brazil, 1", 61.0),
            ],
        );
        let s = render(&a);
        assert!(s.contains('█'), "largest cell shaded darkest:\n{s}");
        assert!(s.contains('·'), "missing combination shown as ·:\n{s}");
        assert!(s.contains("Angola"));
    }

    #[test]
    fn high_dims_render_table() {
        let a = agg(
            &["nationality", "gender", "company/area"],
            &[("Angola, Female, Diamond", 1.0)],
        );
        let s = render(&a);
        assert!(s.contains("nationality | gender | company/area"));
        assert!(s.contains("Angola, Female, Diamond"));
    }

    #[test]
    fn zero_and_negative_values_are_safe() {
        let a = agg(&["d"], &[("a", 0.0), ("b", -5.0), ("c", 5.0)]);
        let s = render(&a);
        assert!(s.contains("-5.0"));
        // Zero draws no bar.
        let zero_line = s.lines().find(|l| l.trim_start().starts_with("a ")).unwrap();
        assert_eq!(zero_line.matches('#').count(), 0);
    }

    #[test]
    fn truncates_long_group_lists() {
        let groups: Vec<(String, f64)> = (0..40).map(|i| (format!("g{i}"), i as f64)).collect();
        let a = TopAggregate {
            cfs: "x".into(),
            dims: vec!["d".into()],
            mda: "count(*)".into(),
            score: 1.0,
            groups: 40,
            sample_groups: groups,
        };
        let s = render(&a);
        assert!(s.contains("(40 groups total)"));
        assert!(s.lines().count() < 25);
    }
}
