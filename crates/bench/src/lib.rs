//! The harness behind the `paper` binary, which reproduces the paper's
//! Section 6: its [`experiments`] (one per figure or table, each returning
//! its tables as data) and its [`claims`] R1–R9, checked against those
//! tables. `snapshot_corpus` writes a servable snapshot of a simulated
//! graph; the pinned benchmark lives in `src/bin/benchmark/`.
//!
//! Both binaries take a `--scale <n>` argument (default [`DEFAULT_SCALE`])
//! controlling the size of the simulated graphs; the paper's absolute sizes
//! are impractical on a laptop, and the *shape* of each result — who wins,
//! by what factor, where the crossovers are — is what the reproduction
//! targets.

pub mod claims;
pub mod experiments;

use spade_core::{
    analysis::analyze_cfs, cfs, enumeration, offline, CfsAnalysis, LatticeSpec, SpadeConfig,
};
use spade_cube::{CubeResult, CubeSpec, MeasureSpec};
use spade_datagen::{realistic, RealisticConfig};
use spade_rdf::Graph;
use std::time::{Duration, Instant};

/// Default `--scale` for the simulated graphs.
pub const DEFAULT_SCALE: usize = 400;

/// Parses the shared `--scale <n>` / `--seed <n>` / `--threads <n>` /
/// `--out <path>` CLI arguments of `paper` and `snapshot_corpus`.
pub struct HarnessArgs {
    /// Graph scale (primary fact count of the smallest dataset).
    pub scale: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for parallel pipeline stages (`0` = all cores).
    pub threads: usize,
    /// Output path override for binaries that write an artifact.
    pub out: Option<String>,
    /// Free-standing (non-flag) arguments.
    pub rest: Vec<String>,
    scale_is_explicit: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (exposed for tests).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut scale = DEFAULT_SCALE;
        let mut scale_is_explicit = false;
        let mut threads = 0usize;
        let mut seed = 7u64;
        let mut out = None;
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        let int = |args: &mut dyn Iterator<Item = String>, flag: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} needs an integer"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    scale = int(&mut args, "--scale");
                    scale_is_explicit = true;
                }
                "--seed" => seed = int(&mut args, "--seed") as u64,
                "--threads" => threads = int(&mut args, "--threads"),
                "--out" => out = Some(args.next().expect("--out needs a path")),
                other => rest.push(other.to_owned()),
            }
        }
        HarnessArgs { scale, seed, threads, out, rest, scale_is_explicit }
    }

    /// The scale to use for a bench whose default differs from
    /// [`DEFAULT_SCALE`]: an explicit `--scale` always wins; otherwise
    /// `default`.
    pub fn scale_or(&self, default: usize) -> usize {
        if self.scale_is_explicit {
            self.scale
        } else {
            default
        }
    }

    /// The artifact path: `--out` if given, else `default`.
    pub fn out_path(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_owned())
    }
}

/// The pipeline configuration all experiments share (matches the paper's
/// operating point: variance, derivations on, N ≤ 3).
pub fn experiment_config() -> SpadeConfig {
    SpadeConfig { min_support: 0.3, min_cfs_size: 20, max_cfs: 12, ..Default::default() }
}

/// Runs pipeline Steps 1–3 (CFS selection, online analysis, enumeration),
/// returning the analyzed CFSs with their lattices — the input Experiments
/// 2–4 feed to the competing evaluation modules.
pub(crate) fn analyzed_lattices(
    graph: &mut Graph,
    config: &SpadeConfig,
) -> Vec<(CfsAnalysis, Vec<LatticeSpec>)> {
    spade_rdf::saturate(graph);
    let stats = offline::analyze(graph);
    let (derived, _) = offline::enumerate_derivations(graph, &stats, config);
    let cfs_list = cfs::select(
        graph,
        &[cfs::CfsStrategy::TypeBased, cfs::CfsStrategy::SummaryBased],
        config,
    );
    cfs_list
        .iter()
        .map(|c| {
            let analysis = analyze_cfs(graph, c, &derived, config);
            let lattices = enumeration::enumerate(&analysis, config);
            (analysis, lattices)
        })
        .collect()
}

/// Builds the cube spec of one lattice.
pub(crate) fn build_spec<'a>(
    analysis: &'a CfsAnalysis,
    lattice: &LatticeSpec,
    config: &SpadeConfig,
) -> CubeSpec<'a> {
    let dims = lattice
        .dims
        .iter()
        .map(|&d| analysis.attributes[d].categorical.as_ref().expect("dimension column"))
        .collect();
    let measures = lattice
        .measures
        .iter()
        .map(|&m| MeasureSpec {
            preagg: analysis.attributes[m].numeric.as_ref().expect("measure column"),
            fns: config.agg_fns.clone(),
        })
        .collect();
    CubeSpec::new(dims, measures, analysis.n_facts())
}

/// Times a closure.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Evaluates every lattice of every CFS with `evaluate`; returns the
/// results in lattice order and the total wall time.
pub(crate) fn evaluate_all<R>(
    prepared: &[(CfsAnalysis, Vec<LatticeSpec>)],
    config: &SpadeConfig,
    mut evaluate: impl FnMut(&CubeSpec<'_>) -> R,
) -> (Vec<R>, Duration) {
    timed(|| {
        let specs = prepared
            .iter()
            .flat_map(|(a, ls)| ls.iter().map(move |l| build_spec(a, l, config)));
        specs.map(|spec| evaluate(&spec)).collect()
    })
}

/// Top-k accuracy `|T_w/o ∩ T_w| / |T_w/o|` over aggregate identities
/// (Section 6.4's metric).
pub(crate) fn topk_accuracy(
    full: &[CubeResult],
    es: &[CubeResult],
    h: spade_stats::Interestingness,
    k: usize,
) -> f64 {
    let ids = |results: &[CubeResult]| -> Vec<(usize, u32, usize)> {
        let mut scored: Vec<(f64, (usize, u32, usize))> = Vec::new();
        for (li, r) in results.iter().enumerate() {
            for s in spade_cube::arm::top_k_of_result(r, h, usize::MAX) {
                scored.push((s.score, (li, s.id.node_mask, s.id.mda)));
            }
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        scored.truncate(k);
        scored.into_iter().map(|(_, id)| id).collect()
    };
    let t_full = ids(full);
    let t_es: std::collections::HashSet<_> = ids(es).into_iter().collect();
    if t_full.is_empty() {
        return 1.0;
    }
    t_full.iter().filter(|id| t_es.contains(id)).count() as f64 / t_full.len() as f64
}

/// Regenerates one of the six simulated graphs by name, with the relative
/// sizing of `realistic::all` (Airline ×8, DBLP ×4, Foodista ×2).
pub fn regen_graph(name: &str, cfg: &RealisticConfig) -> Graph {
    let times = |n: usize| RealisticConfig { scale: cfg.scale * n, ..*cfg };
    match name {
        "Airline" => realistic::airline(&times(8)),
        "CEOs" => realistic::ceos(cfg),
        "DBLP" => realistic::dblp(&times(4)),
        "Foodista" => realistic::foodista(&times(2)),
        "NASA" => realistic::nasa(cfg),
        "Nobel" => realistic::nobel(cfg),
        other => panic!("unknown dataset {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_cube::mvd_cube;

    #[test]
    fn harness_args_parse_shared_flags() {
        fn to_args(s: &str) -> impl Iterator<Item = String> + '_ {
            s.split_whitespace().map(str::to_owned)
        }
        let args = HarnessArgs::parse_from(to_args(
            "--scale 123 --seed 9 --threads 4 --out custom.json extra",
        ));
        assert_eq!(args.scale, 123);
        assert_eq!(args.scale_or(999), 123, "explicit --scale wins");
        assert_eq!(args.seed, 9);
        assert_eq!(args.threads, 4);
        assert_eq!(args.out_path("default.json"), "custom.json");
        assert_eq!(args.rest, vec!["extra".to_owned()]);

        let defaults = HarnessArgs::parse_from(to_args(""));
        assert_eq!(defaults.scale, DEFAULT_SCALE);
        assert_eq!(defaults.scale_or(999), 999, "bench default applies");
        assert_eq!(defaults.threads, 0);
        assert_eq!(defaults.out_path("default.json"), "default.json");
    }

    #[test]
    fn harness_pipeline_produces_lattices() {
        let mut g = realistic::ceos(&RealisticConfig { scale: 150, seed: 5 });
        let config = experiment_config();
        let prepared = analyzed_lattices(&mut g, &config);
        assert!(!prepared.is_empty());
        let total_lattices: usize = prepared.iter().map(|(_, l)| l.len()).sum();
        assert!(total_lattices > 0);
        let (results, d) =
            evaluate_all(&prepared, &config, |s| mvd_cube(s, &Default::default()));
        assert_eq!(results.len(), total_lattices);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn accuracy_of_identical_runs_is_one() {
        let mut g = realistic::nasa(&RealisticConfig { scale: 120, seed: 5 });
        let config = experiment_config();
        let prepared = analyzed_lattices(&mut g, &config);
        let (a, _) = evaluate_all(&prepared, &config, |s| mvd_cube(s, &Default::default()));
        let (b, _) = evaluate_all(&prepared, &config, |s| mvd_cube(s, &Default::default()));
        let acc = topk_accuracy(&a, &b, spade_stats::Interestingness::Variance, 5);
        assert_eq!(acc, 1.0);
    }
}
