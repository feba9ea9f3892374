//! The paper's Section 6 experiments, each returning its tables as data.
//!
//! An [`Experiment`] is one pass over its inputs; the `paper` binary runs
//! them by name and prints every [`Table`] with the one printer, the
//! [`std::fmt::Display`] of `Table`. The claims in [`crate::claims`] read
//! these tables, never the printed text.

use crate::{
    analyzed_lattices, build_spec, evaluate_all, experiment_config, regen_graph, timed,
    topk_accuracy, HarnessArgs, DEFAULT_SCALE,
};
use spade_core::{evaluate::evaluate_cfs, OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_cube::{
    compare_results, mvd_cube, mvd_cube_with_earlystop, pg_cube, ComparisonReport, CubeResult,
    CubeSpec, EarlyStopConfig, MeasureSpec, MvdCubeOptions, PgCubeVariant,
};
use spade_datagen::{realistic, synthetic, RealisticConfig, SyntheticConfig};
use spade_stats::Interestingness;
use spade_storage::AggFn;
use std::fmt;
use std::time::Duration;

/// The six simulated graphs, in the paper's table order.
const DATASETS: [&str; 6] = ["Airline", "CEOs", "DBLP", "Foodista", "NASA", "Nobel"];

/// One table cell: the text printed and, for a number, the value claims read.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The printed form.
    pub text: String,
    /// The unrounded number; `None` for a text cell.
    pub value: Option<f64>,
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell { text: s.into(), value: None }
    }

    /// A count.
    pub fn int(n: usize) -> Cell {
        Cell { text: n.to_string(), value: Some(n as f64) }
    }

    /// A number printed with `decimals` digits after the point.
    pub fn num(x: f64, decimals: usize) -> Cell {
        Cell { text: format!("{x:.decimals$}"), value: Some(x) }
    }

    /// A percentage, printed with one decimal.
    pub fn pct(x: f64) -> Cell {
        Cell { text: format!("{x:.1}%"), value: Some(x) }
    }

    /// A duration in milliseconds, printed with one decimal.
    pub fn ms(d: Duration) -> Cell {
        Cell::num(d.as_secs_f64() * 1e3, 1)
    }
}

/// One table or figure of the paper, as rows of cells under named columns.
#[derive(Clone, Debug)]
pub struct Table {
    /// The name claims look the table up by: the figure or table it
    /// reproduces, e.g. `table3`.
    pub key: &'static str,
    /// The printed heading.
    pub title: String,
    /// Column names.
    pub columns: Vec<&'static str>,
    /// Rows, each one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table.
    pub(crate) fn new(
        key: &'static str,
        title: impl Into<String>,
        columns: &[&'static str],
    ) -> Table {
        Table { key, title: title.into(), columns: columns.to_vec(), rows: Vec::new() }
    }

    pub(crate) fn push(&mut self, row: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = row.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.key);
        self.rows.push(row);
    }

    /// The index of column `name`; panics if there is none.
    pub fn col(&self, name: &str) -> usize {
        let found = self.columns.iter().position(|c| *c == name);
        found.unwrap_or_else(|| panic!("{} has no column {name}", self.key))
    }

    /// The number in row `row`, column `col`; panics on a text cell.
    pub(crate) fn num(&self, row: usize, col: &str) -> f64 {
        let cell = &self.rows[row][self.col(col)];
        cell.value.unwrap_or_else(|| panic!("{}: {col} is not a number", self.key))
    }

    /// The numbers of column `col`, top to bottom.
    pub(crate) fn column<'a>(&'a self, col: &'a str) -> impl Iterator<Item = f64> + Clone + 'a {
        (0..self.rows.len()).map(move |r| self.num(r, col))
    }

    /// The printed text in row `row`, column `col`.
    pub(crate) fn text(&self, row: usize, col: &str) -> &str {
        &self.rows[row][self.col(col)].text
    }
}

/// Prints the table as Markdown, padded to column width; numbers align
/// right, text left.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut width: Vec<usize> =
            self.columns.iter().map(|c| c.chars().count().max(3)).collect();
        let mut right = vec![true; width.len()];
        for row in &self.rows {
            for (j, cell) in row.iter().enumerate() {
                width[j] = width[j].max(cell.text.chars().count());
                right[j] &= cell.value.is_some();
            }
        }
        let rule: Vec<String> = width.iter().map(|&w| "-".repeat(w)).collect();
        let mut lines = vec![self.columns.clone(), rule.iter().map(String::as_str).collect()];
        lines.extend(self.rows.iter().map(|row| row.iter().map(|c| c.text.as_str()).collect()));
        writeln!(f, "### {}\n", self.title)?;
        for line in lines {
            for (j, text) in line.into_iter().enumerate() {
                let w = width[j];
                match right[j] {
                    true => write!(f, "| {text:>w$} ")?,
                    false => write!(f, "| {text:<w$} ")?,
                }
            }
            writeln!(f, "|")?;
        }
        Ok(())
    }
}

/// One experiment: the names it answers to and the pass that computes
/// its tables.
pub struct Experiment {
    /// Subcommand names: the bins it replaces, which are also its tables'
    /// keys.
    pub names: &'static [&'static str],
    /// Runs the experiment at the harness's scale and seed.
    pub run: fn(&HarnessArgs) -> Vec<Table>,
}

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: [Experiment; 7] = [
    Experiment { names: &["figure6_8"], run: figure6_8 },
    Experiment { names: &["table2", "figure7"], run: derivations },
    Experiment { names: &["figure9", "table3", "figure10"], run: systems },
    Experiment { names: &["table4"], run: early_stop },
    Experiment { names: &["figure11"], run: figure11 },
    Experiment { names: &["figure12"], run: figure12 },
    Experiment { names: &["ablation"], run: ablation },
];

/// The experiment answering to `name`, if any.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.names.contains(&name))
}

fn realistic_config(args: &HarnessArgs) -> RealisticConfig {
    RealisticConfig { scale: args.scale, seed: args.seed }
}

/// The value at quantile `q` of a sorted list (NaN when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// How much faster `new` ran than `base`, in percent of `base`.
fn gain(base: Duration, new: Duration) -> f64 {
    100.0 * (base.as_secs_f64() - new.as_secs_f64()) / base.as_secs_f64().max(1e-9)
}

/// Figures 6 and 8: the most and least interesting aggregates (variance)
/// on CEOs and NASA, where the simulated graphs plant Figure 6's stories.
fn figure6_8(args: &HarnessArgs) -> Vec<Table> {
    let cfg = realistic_config(args);
    let run = |graph, k| {
        Spade::new(SpadeConfig { k, ..experiment_config() })
            .run_on(&OfflineState::from_graph(graph, 0), &RequestConfig::default())
    };
    let mut tables = Vec::new();
    for (name, graph) in [("CEOs", realistic::ceos(&cfg)), ("NASA", realistic::nasa(&cfg))] {
        let title = format!("Figure 6: top interesting aggregates on {name}");
        let mut t =
            Table::new("figure6_8", title, &["rank", "score", "aggregate", "top groups"]);
        for (rank, a) in run(graph, 8).top.iter().enumerate() {
            let groups: Vec<String> =
                a.sample_groups.iter().take(6).map(|(l, v)| format!("{l} {v:.2}")).collect();
            let text = [a.description(), groups.join("; ")].map(Cell::text);
            t.push([Cell::int(rank + 1), Cell::num(a.score, 4)].into_iter().chain(text));
        }
        tables.push(t);
    }
    // The paper's example: min numOf(occupations) by gender, numOf(companies)
    // is uniformly 1, so its variance is 0 and it ranks last.
    let title = "Figure 8: least interesting (near-uniform) aggregates on CEOs";
    let mut t = Table::new("figure6_8", title, &["score", "aggregate"]);
    for a in run(realistic::ceos(&cfg), usize::MAX).top.iter().rev().take(5) {
        t.push([Cell::num(a.score, 6), Cell::text(a.description())]);
    }
    tables.push(t);
    tables
}

/// Table 2 and Figure 7 (Experiment 1): each graph's profile, and the
/// interestingness of its MDAs without (woD) and with (wD) derived
/// properties, from one woD and one wD run per graph.
fn derivations(args: &HarnessArgs) -> Vec<Table> {
    let scale = args.scale;
    let columns = [
        "Dataset", "#triples", "#CFSs", "#P", "#A woD", "kw", "lang", "count", "path", "#A wD",
    ];
    let title = format!("Table 2: datasets (simulated, scale {scale})");
    let mut t2 = Table::new("table2", title, &columns);
    let columns = ["Dataset", "#woD", "median woD", "max woD", "#wD", "median wD", "max wD"];
    let title =
        format!("Figure 7: interestingness (variance) of MDAs, woD vs wD (scale {scale})");
    let mut f7 = Table::new("figure7", title, &columns);
    for dataset in realistic::all(&realistic_config(args)) {
        // Derivations are enumerated per run, so one state serves both.
        let state = OfflineState::from_graph(dataset.graph, 0);
        let run = |config: SpadeConfig| {
            Spade::new(SpadeConfig { k: usize::MAX, ..config })
                .run_on(&state, &RequestConfig::default())
        };
        let (wod, wd) =
            (run(experiment_config().without_derivations()), run(experiment_config()));
        let (p, d) = (&wd.profile, wd.profile.derivations);
        let counts = [p.triples, p.cfs_count, p.direct_properties, wod.profile.aggregates];
        let counts = counts.into_iter().chain([d.kw, d.lang, d.count, d.path, p.aggregates]);
        t2.push([Cell::text(dataset.name)].into_iter().chain(counts.map(Cell::int)));
        let mut row = vec![Cell::text(dataset.name)];
        for report in [&wod, &wd] {
            let mut s: Vec<f64> = report.top.iter().map(|t| t.score).collect();
            s.sort_by(f64::total_cmp);
            let scores = [0.5, 1.0].map(|q| Cell::num(quantile(&s, q), 4));
            row.extend([Cell::int(s.len())].into_iter().chain(scores));
        }
        f7.push(row);
    }
    vec![t2, f7]
}

/// Figure 9, Table 3 and Figure 10 (Experiments 2 and 3): MVDCube against
/// PGCube\* and PGCube^d on the six graphs, derivations on, early-stop off —
/// run times, the aggregates the baselines get wrong, and the error ratios
/// `p/m` of their wrong groups, from one pass per graph.
fn systems(args: &HarnessArgs) -> Vec<Table> {
    let (cfg, config, scale) = (realistic_config(args), experiment_config(), args.scale);
    let columns = ["Dataset", "#aggs", "MVDCube", "PGCube*", "PGCube^d", "gain*%", "gain^d%"];
    let title = format!("Figure 9: aggregate-evaluation run times, ms (scale {scale})");
    let mut f9 = Table::new("figure9", title, &columns);
    let columns = ["Dataset", "#aggs", "#wrong(*)", "%(*)", "#wrong(^d)", "%(^d)"];
    let title = format!("Table 3: aggregates PGCube* and PGCube^d get wrong (scale {scale})");
    let mut t3 = Table::new("table3", title, &columns);
    let columns =
        ["Dataset", "system", "agg", "#ratios", "min", "p25", "median", "p75", "p95", "max"];
    let title = format!("Figure 10: error ratios p/m of the wrong groups (scale {scale})");
    let mut f10 = Table::new("figure10", title, &columns);
    // A Table 3 row from the aggregates and the two baselines' wrong ones.
    let wrong = |name, counts: [usize; 3]| {
        let share = |n: usize| Cell::pct(100.0 * n as f64 / counts[0].max(1) as f64);
        let [all, star, distinct] = counts.map(Cell::int);
        [Cell::text(name), all, star, share(counts[1]), distinct, share(counts[2])]
    };
    let mut total = [0usize; 3];
    let opts = MvdCubeOptions::default();
    for name in DATASETS {
        let prepared = analyzed_lattices(&mut regen_graph(name, &cfg), &config);
        let (correct, mvd) = evaluate_all(&prepared, &config, |spec| mvd_cube(spec, &opts));
        let [(star, star_report), (distinct, distinct_report)] =
            [PgCubeVariant::Star, PgCubeVariant::Distinct].map(|variant| {
                let (results, time) = evaluate_all(&prepared, &config, |s| pg_cube(s, variant));
                let mut report = ComparisonReport::default();
                for (m, p) in correct.iter().zip(&results) {
                    report.merge(&compare_results(m, p, 1e-9));
                }
                (time, report)
            });
        let aggregates = star_report.total_aggregates;
        let times = [mvd, star, distinct].map(Cell::ms);
        let gains = [gain(star, mvd), gain(distinct, mvd)].map(Cell::pct);
        f9.push(
            [Cell::text(name), Cell::int(aggregates)].into_iter().chain(times).chain(gains),
        );
        let counts =
            [aggregates, star_report.wrong_aggregates, distinct_report.wrong_aggregates];
        t3.push(wrong(name, counts));
        for (sum, n) in total.iter_mut().zip(counts) {
            *sum += n;
        }
        // The paper's Figure 10 plots these four graphs.
        if name == "Airline" || name == "Foodista" {
            continue;
        }
        // PGCube^d rewrites fact counts as count(distinct CF), which repairs
        // them fully, so its count rows are empty by design; PGCube*'s rows
        // show the unrepaired count errors.
        for (system, report) in [("PGCube*", &star_report), ("PGCube^d", &distinct_report)] {
            for kind in ["count", "sum"] {
                let mut ratios: Vec<f64> = report
                    .error_ratios
                    .iter()
                    .filter(|(label, _)| label.starts_with(kind))
                    .flat_map(|(_, r)| r.iter().copied())
                    .collect();
                ratios.sort_by(f64::total_cmp);
                let labels = [name, system, kind].map(Cell::text);
                let quantiles = [0.0, 0.25, 0.5, 0.75, 0.95, 1.0];
                let quantiles = quantiles.map(|q| Cell::num(quantile(&ratios, q), 2));
                f10.push(labels.into_iter().chain([Cell::int(ratios.len())]).chain(quantiles));
            }
        }
    }
    t3.push(wrong("ALL", total));
    vec![f9, t3, f10]
}

/// Table 4 (Experiment 4): MVDCube without and with early-stop on the six
/// graphs, for k ∈ {3, 5, 10}, sample 60, 2 batches: run times, the share
/// of aggregates pruned, and the top-k accuracy against the full run.
fn early_stop(args: &HarnessArgs) -> Vec<Table> {
    let (cfg, config) = (realistic_config(args), experiment_config());
    let columns = ["Dataset", "k", "#aggs", "MVD ms", "MVD+ES ms", "gain%", "pruned%", "acc%"];
    let title = format!(
        "Table 4: early-stop effectiveness (sample 60, 2 batches; scale {})",
        args.scale
    );
    let mut t = Table::new("table4", title, &columns);
    let opts = MvdCubeOptions::default();
    for name in DATASETS {
        let prepared = analyzed_lattices(&mut regen_graph(name, &cfg), &config);
        let (full, t_full) = evaluate_all(&prepared, &config, |spec| mvd_cube(spec, &opts));
        for k in [3usize, 5, 10] {
            let es = EarlyStopConfig { k, h: Interestingness::Variance, ..Default::default() };
            let (runs, t_es) = evaluate_all(&prepared, &config, |spec| {
                mvd_cube_with_earlystop(spec, &opts, &es)
            });
            let pruned: usize = runs.iter().map(|(_, outcome)| outcome.pruned).sum();
            let total: usize = runs.iter().map(|(_, outcome)| outcome.total).sum();
            let results: Vec<CubeResult> = runs.into_iter().map(|(result, _)| result).collect();
            let acc = topk_accuracy(&full, &results, Interestingness::Variance, k);
            let counts = [Cell::text(name), Cell::int(k), Cell::int(total)];
            let times = [Cell::ms(t_full), Cell::ms(t_es), Cell::pct(gain(t_full, t_es))];
            let shares =
                [100.0 * pruned as f64 / total.max(1) as f64, 100.0 * acc].map(Cell::pct);
            t.push(counts.into_iter().chain(times).chain(shares));
        }
    }
    vec![t]
}

/// Figure 11 (Experiment 5): the online pipeline's step times on twelve
/// synthetic CFSs — N = 3 dimensions of 100:100:100 (u) or 100:5:2 (d)
/// distinct values, sparsity 0.1 or 0.5, M ∈ {3, 5, 10} measures. The
/// paper's |CFS| is 1M; here 50k × scale / [`DEFAULT_SCALE`].
fn figure11(args: &HarnessArgs) -> Vec<Table> {
    let n_facts = 50_000 * args.scale / DEFAULT_SCALE;
    let columns = ["config", "CFSsel", "attrAnal", "enum", "eval", "topk", "total"];
    let title =
        format!("Figure 11: online pipeline step times, ms (|CFS| = {n_facts}, paper 1M)");
    let mut t = Table::new("figure11", title, &columns);
    let config = SpadeConfig {
        min_cfs_size: 100,
        min_support: 0.5,
        max_distinct_values: 110,
        ..Default::default()
    };
    for (dist, dim_values) in [("u", vec![100u32, 100, 100]), ("d", vec![100, 5, 2])] {
        for sparsity in [0.1, 0.5] {
            for n_measures in [3usize, 5, 10] {
                let cfg = SyntheticConfig {
                    n_facts,
                    dim_values: dim_values.clone(),
                    n_measures,
                    sparsity,
                    multi_valued_prob: 0.0,
                    seed: args.seed,
                };
                let state = OfflineState::from_graph(synthetic::generate_graph(&cfg), 0);
                let s = Spade::new(config.clone())
                    .run_on(&state, &RequestConfig::default())
                    .timings;
                let label = Cell::text(format!("{dist}/{sparsity}/{n_measures}"));
                let steps =
                    [s.cfs_selection, s.attribute_analysis, s.enumeration, s.evaluation];
                let steps = steps.into_iter().chain([s.topk, s.online_total()]);
                t.push([label].into_iter().chain(steps.map(Cell::ms)));
            }
        }
    }
    vec![t]
}

/// A synthetic cube's spec: every dimension, and sum and avg of every
/// measure.
fn synthetic_spec(cols: &synthetic::ColumnSet) -> CubeSpec<'_> {
    let measures = cols
        .measures
        .iter()
        .map(|m| MeasureSpec { preagg: m, fns: vec![AggFn::Sum, AggFn::Avg] })
        .collect();
    CubeSpec::new(cols.dims.iter().collect(), measures, cols.n_facts)
}

/// Figure 12 (Experiment 6): evaluation time of PGCube\*, MVDCube and
/// MVDCube + early-stop (k = 10) on synthetic cubes, varying |CFS|, M and
/// N around the paper's base (|CFS| = 5M, N = 3, M = 15, 100 values per
/// dimension, sparsity 0.1), scaled by 1/20 at [`DEFAULT_SCALE`].
fn figure12(args: &HarnessArgs) -> Vec<Table> {
    let base_facts = 250_000 * args.scale / DEFAULT_SCALE;
    let base = SyntheticConfig {
        n_facts: base_facts,
        dim_values: vec![100, 100, 100],
        n_measures: 15,
        sparsity: 0.1,
        multi_valued_prob: 0.0,
        seed: args.seed,
    };
    let title = format!(
        "Figure 12: evaluation time, ms, varying |CFS| (paper 1M–10M, here {}× smaller), \
         M (paper 5–30) and N (paper 1–4)",
        5_000_000 / base_facts.max(1)
    );
    let mut t =
        Table::new("figure12", title, &["param", "PGCube*", "MVDCube", "MVD+ES", "PG/MVD"]);
    let facts = [0.2, 0.5, 1.0, 1.5, 2.0].map(|mult| {
        let n_facts = (base_facts as f64 * mult) as usize;
        (format!("{}k facts", n_facts / 1000), SyntheticConfig { n_facts, ..base.clone() })
    });
    let measures = [5usize, 10, 15, 20, 25, 30]
        .map(|m| (format!("M={m}"), SyntheticConfig { n_measures: m, ..base.clone() }));
    let dims = [1usize, 2, 3, 4].map(|n| {
        (format!("N={n}"), SyntheticConfig { dim_values: vec![100; n], ..base.clone() })
    });
    let (opts, es) =
        (MvdCubeOptions::default(), EarlyStopConfig { k: 10, ..Default::default() });
    for (label, cfg) in facts.into_iter().chain(measures).chain(dims) {
        let cols = synthetic::generate_columns(&cfg);
        let spec = synthetic_spec(&cols);
        let (_, pg) = timed(|| pg_cube(&spec, PgCubeVariant::Star));
        let (_, mvd) = timed(|| mvd_cube(&spec, &opts));
        let (_, with_es) = timed(|| mvd_cube_with_earlystop(&spec, &opts, &es));
        let speedup = Cell::num(pg.as_secs_f64() / mvd.as_secs_f64().max(1e-9), 2);
        let times = [pg, mvd, with_es].map(Cell::ms);
        t.push([Cell::text(label)].into_iter().chain(times).chain([speedup]));
    }
    vec![t]
}

/// Ablations of three design choices:
/// 1. MVDCube's partition (chunk) size: small chunks pay flush bookkeeping,
///    one partition is fastest when memory allows — the paper partitions to
///    bound memory, not to gain speed;
/// 2. cross-lattice result sharing (Section 3, Step 3), which should cut
///    both evaluated aggregates and time;
/// 3. early-stop's sample size × batches, which the paper fixed at 60 × 2.
fn ablation(args: &HarnessArgs) -> Vec<Table> {
    let cols = synthetic::generate_columns(&SyntheticConfig {
        n_facts: 100_000 * args.scale / DEFAULT_SCALE,
        dim_values: vec![100, 100, 100],
        n_measures: 5,
        sparsity: 0.1,
        seed: args.seed,
        ..Default::default()
    });
    let spec = synthetic_spec(&cols);
    let title = format!("Ablation 1: MVDCube partition (chunk) size, {} facts", cols.n_facts);
    let mut chunks = Table::new("ablation", title, &["chunk size", "time ms", "partitions≈"]);
    for chunk in [1u32, 2, 4, 8, 16, 32, 101] {
        let opts = MvdCubeOptions { chunk_size: Some(chunk), ..Default::default() };
        let (result, t) = timed(|| mvd_cube(&spec, &opts));
        std::hint::black_box(result.total_groups());
        let parts: u64 =
            spec.domain_sizes().iter().map(|&d| d.div_ceil(chunk.min(d)) as u64).product();
        chunks.push([Cell::int(chunk as usize), Cell::ms(t), Cell::int(parts as usize)]);
    }

    let (config, opts) = (experiment_config(), MvdCubeOptions::default());
    let prepared =
        analyzed_lattices(&mut regen_graph("CEOs", &realistic_config(args)), &config);
    let (shared, t_shared) = timed(|| {
        let evaluated =
            prepared.iter().map(|(a, l)| evaluate_cfs(a, l, &config).counts.evaluated);
        evaluated.sum::<usize>()
    });
    let (independent, t_independent) = timed(|| {
        let lattices = prepared.iter().flat_map(|(a, ls)| ls.iter().map(move |l| (a, l)));
        let evaluate = |(a, l)| mvd_cube(&build_spec(a, l, &config), &opts).aggregate_count();
        lattices.map(evaluate).sum::<usize>()
    });
    let title =
        format!("Ablation 2: cross-lattice result sharing (CEOs, scale {})", args.scale);
    let mut sharing = Table::new("ablation", title, &["mode", "aggregates", "time ms"]);
    sharing.push([Cell::text("shared (Spade)"), Cell::int(shared), Cell::ms(t_shared)]);
    sharing.push([Cell::text("independent"), Cell::int(independent), Cell::ms(t_independent)]);

    let title = "Ablation 3: early-stop sample size × batches (synthetic cube, k=10)";
    let mut sampling =
        Table::new("ablation", title, &["sample", "batches", "time ms", "pruned%"]);
    let (_, t_plain) = timed(|| mvd_cube(&spec, &opts));
    sampling.push([Cell::text("(off)"), Cell::text("-"), Cell::ms(t_plain), Cell::text("-")]);
    for sample_size in [20usize, 60, 120] {
        for batches in [1usize, 2, 4] {
            let es = EarlyStopConfig { k: 10, sample_size, batches, ..Default::default() };
            let ((_, outcome), t) = timed(|| mvd_cube_with_earlystop(&spec, &opts, &es));
            let pruned = Cell::pct(100.0 * outcome.pruned_fraction());
            sampling.push([Cell::int(sample_size), Cell::int(batches), Cell::ms(t), pruned]);
        }
    }
    vec![chunks, sharing, sampling]
}
