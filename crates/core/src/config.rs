//! Spade's tunable parameters — the thresholds Section 3's rule-based
//! pruning refers to, plus evaluation knobs.

use spade_cube::EarlyStopConfig;
use spade_stats::Interestingness;
use spade_storage::AggFn;

/// End-to-end configuration of a Spade run.
#[derive(Clone, Debug)]
pub struct SpadeConfig {
    /// How many aggregates to return (`k`).
    pub k: usize,
    /// The interestingness function `h` the user chose.
    pub interestingness: Interestingness,

    // —— CFS selection (Step 1) ——
    /// Smallest CFS worth analyzing.
    pub min_cfs_size: usize,
    /// Largest number of CFSs to analyze (biggest first); caps run time on
    /// very heterogeneous graphs.
    pub max_cfs: usize,

    // —— attribute rules (Steps 2–3) ——
    /// "Dimensions and measures must be frequent": minimum support as a
    /// fraction of `|CFS|`.
    pub min_support: f64,
    /// "Dimensions should not have too many distinct values when compared
    /// to the number of facts": cap on `distinct/|CFS|`.
    pub max_distinct_ratio: f64,
    /// Absolute distinct-value cap for dimensions (the synthetic benchmark
    /// uses ≤ 100 "so that they are considered good dimensions").
    pub max_distinct_values: usize,
    /// Maximum lattice dimensionality `N` ("readability … is maximized at
    /// … N ∈ {1, 2, 3, 4}").
    pub max_lattice_dims: usize,
    /// Dimension stop list (attribute names the user excluded — the
    /// Section 6.1 "human-in-the-loop" hook, e.g. `nationality/image`).
    pub dimension_stop_list: Vec<String>,
    /// CFS allow filter (Step 1): when non-empty, only CFSs whose name
    /// contains at least one of these substrings are analyzed (e.g.
    /// `["type:CEO"]` to explore one entity class). Empty = all CFSs.
    pub cfs_filter: Vec<String>,
    /// Measure allow filter (Step 3): when non-empty, only attributes whose
    /// name contains at least one of these substrings are assigned as
    /// lattice measures (`count(*)` always stays). Empty = all measures.
    pub measure_filter: Vec<String>,

    // —— derivations (offline phase) ——
    /// Generate derived properties at all (Experiment 1's woD/wD switch).
    pub enable_derivations: bool,
    /// Minimum keyword length for the keyword derivation.
    pub keyword_min_len: usize,
    /// Maximum number of path derivations (`p/q`) to enumerate per graph.
    pub max_path_derivations: usize,

    // —— evaluation (Step 4) ——
    /// Aggregate functions assigned to every measure (the statistics-guided
    /// assignment of Step 2; the default covers the common cases).
    pub agg_fns: Vec<AggFn>,
    /// Early-stop pruning on/off plus its parameters.
    pub early_stop: Option<EarlyStopConfig>,
    /// Worker threads for the parallel pipeline stages (per-CFS attribute
    /// analysis and per-CFS/per-lattice aggregate evaluation). `0` = one
    /// worker per available core; `1` = fully serial. The pipeline splits
    /// this budget across its two fan-out levels (CFSs × lattices), so the
    /// total worker count never exceeds it. Results are bit-identical for
    /// every value — the fan-out merges in deterministic input order.
    pub threads: usize,
}

impl Default for SpadeConfig {
    fn default() -> Self {
        SpadeConfig {
            k: 10,
            interestingness: Interestingness::Variance,
            min_cfs_size: 10,
            max_cfs: 50,
            min_support: 0.1,
            max_distinct_ratio: 0.5,
            max_distinct_values: 100,
            max_lattice_dims: 3,
            dimension_stop_list: Vec::new(),
            cfs_filter: Vec::new(),
            measure_filter: Vec::new(),
            enable_derivations: true,
            keyword_min_len: 4,
            max_path_derivations: 200,
            agg_fns: vec![AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max],
            early_stop: None,
            threads: 0,
        }
    }
}

impl SpadeConfig {
    /// Enables early-stop with the paper's empirically good settings
    /// (sample size 60, 2 batches) for this config's `k` and `h`.
    ///
    /// Each lattice keeps, per root group, the 60 facts of smallest seeded
    /// hash (a bottom-k sample, projected exactly down the lattice) and
    /// prunes aggregates whose score interval falls under the k-th best.
    /// The pruning itself costs in proportion to the sample, not the data,
    /// but it only saves the measure computation of what it prunes —
    /// translation and bitmap propagation are paid in full. Measured
    /// break-even (`cube_earlystop`, 150 k facts, ≈ 470 facts per root
    /// group, 72 % pruned): on par with full evaluation. Expect a gain only
    /// where groups are much larger than the sample; on CFSs whose groups
    /// hold fewer than 60 facts the sample *is* the data and early-stop
    /// only adds work.
    pub fn with_early_stop(mut self) -> Self {
        self.early_stop = Some(EarlyStopConfig {
            k: self.k,
            h: self.interestingness,
            ..EarlyStopConfig::default()
        });
        self
    }

    /// Disables derivations (Experiment 1's `woD` setting).
    pub fn without_derivations(mut self) -> Self {
        self.enable_derivations = false;
        self
    }
}

/// Whether `name` passes an allow filter: an empty filter admits everything,
/// a non-empty one admits names containing at least one of its substrings.
pub fn filter_matches(filter: &[String], name: &str) -> bool {
    filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()))
}

/// Per-request overrides over a base [`SpadeConfig`] — the unit of work of
/// the load-once/serve-many split ([`Spade::run_on`]). Every field is
/// optional; `None`/empty means "use the base config's value". The
/// orthogonal base config (thresholds, derivations, aggregate functions) is
/// fixed per serving process, which is what makes [`RequestConfig::canonical_key`]
/// a complete cache key.
///
/// [`Spade::run_on`]: crate::Spade::run_on
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RequestConfig {
    /// Top-k override.
    pub k: Option<usize>,
    /// Interestingness function override.
    pub interestingness: Option<Interestingness>,
    /// Minimum-support override (Step 2/3 frequency rule).
    pub min_support: Option<f64>,
    /// CFS allow filter (see [`SpadeConfig::cfs_filter`]); replaces the
    /// base filter when non-empty.
    pub cfs_filter: Vec<String>,
    /// Measure allow filter (see [`SpadeConfig::measure_filter`]); replaces
    /// the base filter when non-empty.
    pub measure_filter: Vec<String>,
    /// Worker-thread budget for this request. A server caps this at its
    /// per-request share so concurrent requests never oversubscribe cores;
    /// results are bit-identical for every value.
    pub threads: Option<usize>,
}

impl RequestConfig {
    /// Resolves the overrides against `base` into the effective config.
    pub fn apply(&self, base: &SpadeConfig) -> SpadeConfig {
        let mut config = base.clone();
        if let Some(k) = self.k {
            config.k = k;
        }
        if let Some(h) = self.interestingness {
            config.interestingness = h;
        }
        if let Some(ms) = self.min_support {
            config.min_support = ms;
        }
        if !self.cfs_filter.is_empty() {
            config.cfs_filter = self.cfs_filter.clone();
        }
        if !self.measure_filter.is_empty() {
            config.measure_filter = self.measure_filter.clone();
        }
        if let Some(t) = self.threads {
            config.threads = t;
        }
        config
    }

    /// Parses the interestingness name of the wire protocol
    /// (`variance` / `skewness` / `kurtosis`, the [`Interestingness::label`]
    /// spellings).
    pub fn interestingness_from_name(name: &str) -> Option<Interestingness> {
        Interestingness::ALL.into_iter().find(|h| h.label() == name)
    }

    /// A canonical, deterministic encoding of the overrides — equal requests
    /// (after filter sort + dedup) encode identically, so this is a sound
    /// exact-hit cache key for the deterministic pipeline. The `threads`
    /// override is **excluded**: results are thread-count-invariant, so
    /// requests differing only in thread budget share a cache entry.
    pub fn canonical_key(&self) -> String {
        let norm = |filter: &[String]| {
            let mut f = filter.to_vec();
            f.sort();
            f.dedup();
            f
        };
        let mut w = crate::json::JsonWriter::compact();
        w.begin_object();
        w.key("cfs").begin_array();
        for f in norm(&self.cfs_filter) {
            w.string(&f);
        }
        w.end_array();
        match self.interestingness {
            Some(h) => w.key("h").string(h.label()),
            None => w.key("h").null(),
        };
        match self.k {
            Some(k) => w.key("k").usize(k),
            None => w.key("k").null(),
        };
        w.key("measures").begin_array();
        for f in norm(&self.measure_filter) {
            w.string(&f);
        }
        w.end_array();
        match self.min_support {
            Some(ms) => w.key("min_support").f64(ms),
            None => w.key("min_support").null(),
        };
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SpadeConfig::default();
        assert!(c.min_support > 0.0 && c.min_support < 1.0);
        assert!(c.max_lattice_dims >= 1 && c.max_lattice_dims <= 4);
        assert!(c.early_stop.is_none());
    }

    #[test]
    fn with_early_stop_propagates_k_and_h() {
        let c = SpadeConfig {
            k: 3,
            interestingness: Interestingness::Skewness,
            ..Default::default()
        }
        .with_early_stop();
        let es = c.early_stop.unwrap();
        assert_eq!(es.k, 3);
        assert_eq!(es.h, Interestingness::Skewness);
    }

    #[test]
    fn without_derivations_switch() {
        assert!(!SpadeConfig::default().without_derivations().enable_derivations);
    }

    #[test]
    fn filter_matches_substring_semantics() {
        assert!(filter_matches(&[], "anything"));
        let f = vec!["CEO".to_owned(), "net".to_owned()];
        assert!(filter_matches(&f, "type:CEO"));
        assert!(filter_matches(&f, "netWorth"));
        assert!(!filter_matches(&f, "nationality"));
    }

    #[test]
    fn request_config_applies_overrides() {
        let base = SpadeConfig::default();
        assert_eq!(RequestConfig::default().apply(&base).k, base.k);
        let req = RequestConfig {
            k: Some(3),
            interestingness: Some(Interestingness::Kurtosis),
            min_support: Some(0.42),
            cfs_filter: vec!["CEO".into()],
            measure_filter: vec!["netWorth".into()],
            threads: Some(2),
        };
        let c = req.apply(&base);
        assert_eq!(c.k, 3);
        assert_eq!(c.interestingness, Interestingness::Kurtosis);
        assert_eq!(c.min_support, 0.42);
        assert_eq!(c.cfs_filter, vec!["CEO".to_owned()]);
        assert_eq!(c.measure_filter, vec!["netWorth".to_owned()]);
        assert_eq!(c.threads, 2);
        // Untouched knobs come from the base.
        assert_eq!(c.max_lattice_dims, base.max_lattice_dims);
        assert_eq!(c.enable_derivations, base.enable_derivations);
    }

    #[test]
    fn canonical_key_is_normalized_and_thread_blind() {
        let a = RequestConfig {
            cfs_filter: vec!["b".into(), "a".into(), "b".into()],
            threads: Some(4),
            ..Default::default()
        };
        let b = RequestConfig {
            cfs_filter: vec!["a".into(), "b".into()],
            threads: Some(1),
            ..Default::default()
        };
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(
            a.canonical_key(),
            RequestConfig { k: Some(5), ..a.clone() }.canonical_key()
        );
        assert_eq!(
            RequestConfig::default().canonical_key(),
            r#"{"cfs":[],"h":null,"k":null,"measures":[],"min_support":null}"#
        );
    }

    #[test]
    fn interestingness_names_round_trip() {
        for h in Interestingness::ALL {
            assert_eq!(RequestConfig::interestingness_from_name(h.label()), Some(h));
        }
        assert_eq!(RequestConfig::interestingness_from_name("bogus"), None);
    }
}
