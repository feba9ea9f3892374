//! Shared harness for the experiment binaries (one binary per table/figure
//! of the paper's Section 6) and the Criterion micro-benchmarks.
//!
//! Every binary accepts a `--scale <n>` argument (default [`DEFAULT_SCALE`])
//! controlling the size of the simulated graphs; the paper's absolute sizes
//! are impractical on a laptop, and the *shape* of each result — who wins,
//! by what factor, where the crossovers are — is what the reproduction
//! targets (see `EXPERIMENTS.md`).

use spade_core::{
    analysis::analyze_cfs, cfs, enumeration, offline, CfsAnalysis, LatticeSpec, SpadeConfig,
};
use spade_cube::{CubeResult, CubeSpec, MeasureSpec};
use spade_rdf::Graph;
use std::time::{Duration, Instant};

/// Default `--scale` for the simulated graphs.
pub const DEFAULT_SCALE: usize = 400;

/// Parses the shared `--scale <n>` / `--seed <n>` / `--threads <n>` /
/// `--out <path>` CLI arguments every experiment binary accepts.
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
pub fn analyzed_lattices(
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
pub fn build_spec<'a>(
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
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Evaluates every lattice of every CFS with MVDCube; returns results and
/// total wall time.
pub fn evaluate_all_mvd(
    prepared: &[(CfsAnalysis, Vec<LatticeSpec>)],
    config: &SpadeConfig,
) -> (Vec<CubeResult>, Duration) {
    timed(|| {
        let mut out = Vec::new();
        for (analysis, lattices) in prepared {
            for l in lattices {
                let spec = build_spec(analysis, l, config);
                out.push(spade_cube::mvd_cube(&spec, &Default::default()));
            }
        }
        out
    })
}

/// Same lattices through PGCube (per-lattice flatten + rollup chains).
pub fn evaluate_all_pgcube(
    prepared: &[(CfsAnalysis, Vec<LatticeSpec>)],
    config: &SpadeConfig,
    variant: spade_cube::PgCubeVariant,
) -> (Vec<CubeResult>, Duration) {
    timed(|| {
        let mut out = Vec::new();
        for (analysis, lattices) in prepared {
            for l in lattices {
                let spec = build_spec(analysis, l, config);
                out.push(spade_cube::pg_cube(&spec, variant, &Default::default()));
            }
        }
        out
    })
}

/// Same lattices through MVDCube with early-stop; returns results, the
/// number pruned, the total aggregates, and wall time.
pub fn evaluate_all_mvd_es(
    prepared: &[(CfsAnalysis, Vec<LatticeSpec>)],
    config: &SpadeConfig,
    es: &spade_cube::EarlyStopConfig,
) -> (Vec<CubeResult>, usize, usize, Duration) {
    let t = Instant::now();
    let mut out = Vec::new();
    let mut pruned = 0usize;
    let mut total = 0usize;
    for (analysis, lattices) in prepared {
        for l in lattices {
            let spec = build_spec(analysis, l, config);
            let (result, outcome) =
                spade_cube::mvd_cube_with_earlystop(&spec, &Default::default(), es);
            pruned += outcome.pruned;
            total += outcome.total;
            out.push(result);
        }
    }
    (out, pruned, total, t.elapsed())
}

/// Top-k accuracy `|T_w/o ∩ T_w| / |T_w/o|` over aggregate identities
/// (Section 6.4's metric).
pub fn topk_accuracy(
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

/// Formats a duration in ms with 1 decimal.
pub fn ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

/// Regenerates one of the six simulated graphs by name, with the relative
/// sizing of `realistic::all` (Airline ×8, DBLP ×4, Foodista ×2).
pub fn regen_graph(name: &str, cfg: &spade_datagen::RealisticConfig) -> Graph {
    use spade_datagen::realistic;
    match name {
        "Airline" => {
            realistic::airline(&spade_datagen::RealisticConfig { scale: cfg.scale * 8, ..*cfg })
        }
        "CEOs" => realistic::ceos(cfg),
        "DBLP" => {
            realistic::dblp(&spade_datagen::RealisticConfig { scale: cfg.scale * 4, ..*cfg })
        }
        "Foodista" => realistic::foodista(&spade_datagen::RealisticConfig {
            scale: cfg.scale * 2,
            ..*cfg
        }),
        "NASA" => realistic::nasa(cfg),
        "Nobel" => realistic::nobel(cfg),
        other => panic!("unknown dataset {other}"),
    }
}

/// The Experiment 2/3 measurement for one dataset: MVDCube vs PGCube\* vs
/// PGCube^d run times and per-system error reports against MVDCube.
pub struct SystemComparison {
    /// Dataset name.
    pub name: &'static str,
    /// Aggregates evaluated per system.
    pub aggregates: usize,
    /// MVDCube wall time.
    pub mvd: Duration,
    /// PGCube\* wall time.
    pub star: Duration,
    /// PGCube^d wall time.
    pub distinct: Duration,
    /// Errors of PGCube\* vs the correct results.
    pub star_report: spade_cube::ComparisonReport,
    /// Errors of PGCube^d vs the correct results.
    pub distinct_report: spade_cube::ComparisonReport,
}

/// Runs Experiment 2/3 on one named dataset (derivations on, ES off).
pub fn compare_systems(
    name: &'static str,
    graph: &mut Graph,
    config: &SpadeConfig,
) -> SystemComparison {
    let prepared = analyzed_lattices(graph, config);
    let (mvd_results, mvd) = evaluate_all_mvd(&prepared, config);
    let (star_results, star) =
        evaluate_all_pgcube(&prepared, config, spade_cube::PgCubeVariant::Star);
    let (distinct_results, distinct) =
        evaluate_all_pgcube(&prepared, config, spade_cube::PgCubeVariant::Distinct);

    let mut star_report = spade_cube::ComparisonReport::default();
    let mut distinct_report = spade_cube::ComparisonReport::default();
    for ((correct, s), d) in mvd_results.iter().zip(&star_results).zip(&distinct_results) {
        star_report.merge(&spade_cube::compare_results(correct, s, 1e-9));
        distinct_report.merge(&spade_cube::compare_results(correct, d, 1e-9));
    }
    SystemComparison {
        name,
        aggregates: star_report.total_aggregates,
        mvd,
        star,
        distinct,
        star_report,
        distinct_report,
    }
}

/// Prints a horizontal rule sized to a header.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use spade_datagen::{realistic, RealisticConfig};

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
        let (results, d) = evaluate_all_mvd(&prepared, &config);
        assert_eq!(results.len(), total_lattices);
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn accuracy_of_identical_runs_is_one() {
        let mut g = realistic::nasa(&RealisticConfig { scale: 120, seed: 5 });
        let config = experiment_config();
        let prepared = analyzed_lattices(&mut g, &config);
        let (a, _) = evaluate_all_mvd(&prepared, &config);
        let (b, _) = evaluate_all_mvd(&prepared, &config);
        let acc = topk_accuracy(&a, &b, spade_stats::Interestingness::Variance, 5);
        assert_eq!(acc, 1.0);
    }
}
