//! Prometheus text-format conformance checking: parse an exposition back
//! and validate its structure. Backs the registry unit tests, the serve
//! loopback tests (against a live `/metrics` scrape), and the `promcheck`
//! CI binary.
//!
//! Checks enforced:
//! - every sample belongs to a family with `# HELP` and `# TYPE` lines
//!   appearing before it, each exactly once;
//! - `# TYPE` is one of `counter`, `gauge`, `histogram`;
//! - all sample values parse as finite floats (counters non-negative,
//!   bucket/count values as integers);
//! - for every histogram series: `le` bounds strictly increasing, bucket
//!   counts monotone non-decreasing, a `+Inf` bucket present and equal to
//!   the series' `_count`, and a finite `_sum` present.
//!
//! [`check_detailed`] additionally returns per-family series label
//! signatures in exposition order, so callers (`promcheck --require`) can
//! assert required families exist and their series are label-sorted.

use std::collections::HashMap;

/// What a valid exposition contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Number of metric families.
    pub families: usize,
    /// Number of families with `# TYPE ... histogram`.
    pub histograms: usize,
    /// Number of series (scalar samples + histogram series).
    pub series: usize,
}

/// Per-family series detail from a valid exposition, for assertions beyond
/// the [`ExpositionSummary`] counts (presence of required families,
/// label-signature ordering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyDetail {
    pub name: String,
    /// Series label signatures (`key=value` pairs joined with `,`; empty
    /// string for an unlabeled series; histogram signatures exclude `le`)
    /// in exposition order.
    pub series: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Default)]
struct HistSeries {
    /// `(le, cumulative_count)` in file order.
    buckets: Vec<(f64, u64)>,
    inf: Option<u64>,
    sum: Option<f64>,
    count: Option<u64>,
}

struct FamilyState {
    kind: Option<Kind>,
    has_help: bool,
    /// Scalar series label signatures in exposition order.
    scalar_labels: Vec<String>,
    hist: HashMap<String, HistSeries>,
    /// Histogram series keys in first-appearance order.
    hist_order: Vec<String>,
}

/// Validates a Prometheus text exposition; returns a summary or the first
/// violation found (with its line number).
pub fn check(text: &str) -> Result<ExpositionSummary, String> {
    check_detailed(text).map(|(summary, _)| summary)
}

/// Like [`check`], additionally returning per-family series detail in
/// exposition order.
pub fn check_detailed(text: &str) -> Result<(ExpositionSummary, Vec<FamilyDetail>), String> {
    let mut families: HashMap<String, FamilyState> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: HELP without text"))?;
            if help.trim().is_empty() {
                return Err(format!("line {lineno}: empty HELP for {name}"));
            }
            let fam = family_entry(&mut families, &mut order, name);
            if fam.has_help {
                return Err(format!("line {lineno}: duplicate HELP for {name}"));
            }
            fam.has_help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
            let kind = match kind.trim() {
                "counter" => Kind::Counter,
                "gauge" => Kind::Gauge,
                "histogram" => Kind::Histogram,
                other => return Err(format!("line {lineno}: unknown TYPE {other:?}")),
            };
            let fam = family_entry(&mut families, &mut order, name);
            if fam.kind.is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            fam.kind = Some(kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal and ignored
        }

        let (name, labels, value) =
            parse_sample(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let value_f: f64 = if value == "+Inf" {
            f64::INFINITY
        } else {
            value.parse().map_err(|_| format!("line {lineno}: bad sample value {value:?}"))?
        };
        if !value_f.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value {value:?}"));
        }

        // Resolve histogram component samples to their base family.
        let (family_name, component) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                let is_hist =
                    families.get(base).is_some_and(|f| f.kind == Some(Kind::Histogram));
                is_hist.then(|| (base.to_owned(), Some(*suffix)))
            })
            .unwrap_or((name.clone(), None));

        let fam = families
            .get_mut(&family_name)
            .ok_or_else(|| format!("line {lineno}: sample {name} before its # TYPE"))?;
        let Some(kind) = fam.kind else {
            return Err(format!("line {lineno}: sample {name} before its # TYPE"));
        };
        if !fam.has_help {
            return Err(format!("line {lineno}: sample {name} before its # HELP"));
        }

        match (kind, component) {
            (Kind::Histogram, Some(component)) => {
                let mut key_labels: Vec<(String, String)> = Vec::new();
                let mut le: Option<String> = None;
                for (k, v) in labels {
                    if k == "le" {
                        le = Some(v);
                    } else {
                        key_labels.push((k, v));
                    }
                }
                let key = key_labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                if !fam.hist.contains_key(&key) {
                    fam.hist_order.push(key.clone());
                }
                let series = fam.hist.entry(key).or_default();
                match component {
                    "_bucket" => {
                        let le = le.ok_or_else(|| {
                            format!("line {lineno}: bucket sample without le label")
                        })?;
                        let count = value
                            .parse::<u64>()
                            .map_err(|_| format!("line {lineno}: non-integer bucket count"))?;
                        if le == "+Inf" {
                            if series.inf.is_some() {
                                return Err(format!("line {lineno}: duplicate +Inf bucket"));
                            }
                            series.inf = Some(count);
                        } else {
                            let bound: f64 = le
                                .parse()
                                .map_err(|_| format!("line {lineno}: bad le bound {le:?}"))?;
                            series.buckets.push((bound, count));
                        }
                    }
                    "_sum" => series.sum = Some(value_f),
                    "_count" => {
                        series.count = Some(value.parse::<u64>().map_err(|_| {
                            format!("line {lineno}: non-integer histogram count")
                        })?)
                    }
                    _ => unreachable!(),
                }
            }
            (Kind::Histogram, None) => {
                return Err(format!("line {lineno}: bare sample {name} for histogram family"));
            }
            (Kind::Counter, _) => {
                if value_f < 0.0 {
                    return Err(format!("line {lineno}: negative counter {name}"));
                }
                fam.scalar_labels.push(label_signature(&labels));
            }
            (Kind::Gauge, _) => fam.scalar_labels.push(label_signature(&labels)),
        }
    }

    let mut histograms = 0usize;
    let mut series = 0usize;
    let mut details: Vec<FamilyDetail> = Vec::with_capacity(order.len());
    for name in &order {
        let fam = &families[name];
        let Some(kind) = fam.kind else {
            return Err(format!("family {name}: HELP without TYPE"));
        };
        if !fam.has_help {
            return Err(format!("family {name}: TYPE without HELP"));
        }
        if kind == Kind::Histogram {
            histograms += 1;
            if fam.hist.is_empty() {
                return Err(format!("histogram {name}: no series"));
            }
            for (key, s) in &fam.hist {
                let label = if key.is_empty() { String::new() } else { format!("{{{key}}}") };
                for w in s.buckets.windows(2) {
                    if w[1].0 <= w[0].0 {
                        return Err(format!(
                            "histogram {name}{label}: le bounds not increasing"
                        ));
                    }
                    if w[1].1 < w[0].1 {
                        return Err(format!(
                            "histogram {name}{label}: bucket counts not monotone"
                        ));
                    }
                }
                let inf = s
                    .inf
                    .ok_or_else(|| format!("histogram {name}{label}: missing +Inf bucket"))?;
                if let Some(&(_, last)) = s.buckets.last() {
                    if inf < last {
                        return Err(format!("histogram {name}{label}: +Inf below last bucket"));
                    }
                }
                let count = s
                    .count
                    .ok_or_else(|| format!("histogram {name}{label}: missing _count"))?;
                if inf != count {
                    return Err(format!(
                        "histogram {name}{label}: +Inf bucket {inf} != _count {count}"
                    ));
                }
                if s.sum.is_none() {
                    return Err(format!("histogram {name}{label}: missing _sum"));
                }
            }
            series += fam.hist.len();
            details.push(FamilyDetail { name: name.clone(), series: fam.hist_order.clone() });
        } else {
            if fam.scalar_labels.is_empty() {
                return Err(format!("family {name}: declared but no samples"));
            }
            series += fam.scalar_labels.len();
            details
                .push(FamilyDetail { name: name.clone(), series: fam.scalar_labels.clone() });
        }
    }
    Ok((ExpositionSummary { families: order.len(), histograms, series }, details))
}

fn label_signature(labels: &[(String, String)]) -> String {
    labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(",")
}

fn family_entry<'a>(
    families: &'a mut HashMap<String, FamilyState>,
    order: &mut Vec<String>,
    name: &str,
) -> &'a mut FamilyState {
    if !families.contains_key(name) {
        families.insert(
            name.to_owned(),
            FamilyState {
                kind: None,
                has_help: false,
                scalar_labels: Vec::new(),
                hist: HashMap::new(),
                hist_order: Vec::new(),
            },
        );
        order.push(name.to_owned());
    }
    families.get_mut(name).unwrap()
}

type Sample = (String, Vec<(String, String)>, String);

/// Splits `name[{labels}] value` into parts. Label values must be plain
/// quoted strings without escapes (all this renderer emits).
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_labels, value) = match line.find('{') {
        Some(_) => {
            let close =
                line.rfind('}').ok_or_else(|| format!("unclosed label braces in {line:?}"))?;
            (line[..close + 1].to_owned(), line[close + 1..].trim())
        }
        None => {
            let mut it = line.split_whitespace();
            let name = it.next().ok_or("empty sample line")?;
            let value = it.next().ok_or_else(|| format!("sample {name} without value"))?;
            (name.to_owned(), value)
        }
    };
    brace_check(&name_labels)?;
    let (name, labels) = match name_labels.find('{') {
        Some(brace) => {
            let inner = &name_labels[brace + 1..name_labels.len() - 1];
            (name_labels[..brace].to_owned(), parse_labels(inner)?)
        }
        None => (name_labels, Vec::new()),
    };
    if name.is_empty()
        || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("bad metric name {name:?}"));
    }
    if value.is_empty() {
        return Err(format!("sample {name} without value"));
    }
    Ok((name, labels, value.to_owned()))
}

fn brace_check(s: &str) -> Result<(), String> {
    let opens = s.matches('{').count();
    let closes = s.matches('}').count();
    if opens != closes || opens > 1 {
        return Err(format!("malformed label braces in {s:?}"));
    }
    Ok(())
}

fn parse_labels(inner: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without '=' in {inner:?}"))?;
        let key = rest[..eq].to_owned();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value in {inner:?}"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("unterminated label value in {inner:?}"))?;
        let value = after[1..1 + close].to_owned();
        labels.push((key, value));
        rest = &after[close + 2..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in {inner:?}"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Registry, DURATION_BOUNDS_SECONDS};

    #[test]
    fn registry_output_passes() {
        let r = Registry::new();
        r.counter_with("reqs_total", "requests", &[]).add(3);
        r.gauge_with("inflight", "in flight", &[]).set(1);
        let h = r.histogram_with(
            "latency_seconds",
            "latency",
            &[("route", "explore")],
            &DURATION_BOUNDS_SECONDS,
        );
        h.observe(0.003);
        h.observe(0.2);
        let summary = check(&r.render()).expect("conformant");
        assert_eq!(summary, ExpositionSummary { families: 3, histograms: 1, series: 3 });
    }

    #[test]
    fn detailed_exposes_series_signatures_in_order() {
        let r = Registry::new();
        r.gauge_with("cost", "cost", &[("graph", "a"), ("quantile", "0.5")]).set(1);
        r.gauge_with("cost", "cost", &[("graph", "a"), ("quantile", "0.95")]).set(2);
        r.gauge_with("cost", "cost", &[("graph", "b"), ("quantile", "0.5")]).set(3);
        r.counter_with("reqs_total", "requests", &[]).inc();
        let (summary, details) = check_detailed(&r.render()).expect("conformant");
        assert_eq!(summary.series, 4);
        let cost = details.iter().find(|d| d.name == "cost").expect("cost family");
        assert_eq!(
            cost.series,
            ["graph=a,quantile=0.5", "graph=a,quantile=0.95", "graph=b,quantile=0.5"]
        );
        assert!(cost.series.windows(2).all(|w| w[0] <= w[1]), "label-sorted");
        let reqs = details.iter().find(|d| d.name == "reqs_total").expect("reqs family");
        assert_eq!(reqs.series, [String::new()]);
    }

    #[test]
    fn sample_before_type_is_rejected() {
        let text = "reqs_total 3\n# HELP reqs_total r\n# TYPE reqs_total counter\n";
        assert!(check(text).unwrap_err().contains("before its # TYPE"));
    }

    #[test]
    fn missing_help_is_rejected() {
        let text = "# TYPE reqs_total counter\nreqs_total 3\n";
        assert!(check(text).unwrap_err().contains("before its # HELP"));
    }

    #[test]
    fn non_monotone_buckets_are_rejected() {
        let text = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"0.1\"} 5
h_bucket{le=\"1\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 1.0
h_count 5
";
        assert!(check(text).unwrap_err().contains("not monotone"));
    }

    #[test]
    fn inf_must_equal_count() {
        let text = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"1\"} 3
h_bucket{le=\"+Inf\"} 4
h_sum 1.0
h_count 5
";
        assert!(check(text).unwrap_err().contains("!= _count"));
    }

    #[test]
    fn missing_inf_bucket_is_rejected() {
        let text = "\
# HELP h x
# TYPE h histogram
h_bucket{le=\"1\"} 3
h_sum 1.0
h_count 3
";
        assert!(check(text).unwrap_err().contains("missing +Inf"));
    }

    #[test]
    fn negative_counter_is_rejected() {
        let text = "# HELP c x\n# TYPE c counter\nc -1\n";
        assert!(check(text).unwrap_err().contains("negative counter"));
    }
}
