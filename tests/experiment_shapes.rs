//! The paper's `count` claims (R1, R4, R5 and R7 in `spade_bench::claims`)
//! read at a small scale, each also fed a doctored table that it must
//! fail, plus the Figure 6(c) story. A claim must read `holds`, or
//! `deviates` exactly as pinned below with its measured value and cause, so
//! a change that moves a deviation fails here until the pin is restated.
//! The `time` claims are only reported by the `paper` binary: wall-clock
//! assertions are too flaky for CI.

use spade::prelude::*;
use spade_bench::claims::{claim, Kind, Verdict, CLAIMS};
use spade_bench::experiments::{Cell, Experiment, Table, EXPERIMENTS};
use spade_bench::{experiment_config, regen_graph, HarnessArgs};
use spade_datagen::RealisticConfig;
use std::sync::OnceLock;

const SCALE: usize = 150;
const SEED: u64 = 17;

/// Each count claim's reading at [`SCALE`] and [`SEED`]: `holds`, or its
/// `deviates` reading followed by the claim's cause.
const PINNED: [(&str, &str); 4] = [
    ("R1", "holds"),
    ("R4", "holds"),
    (
        "R5",
        "deviates: largest PGCube^d p/m: CEOs 12.00, DBLP 4.00, NASA NaN, Nobel 21.80; p/m ≤ 1 \
         in none — the simulated graphs have fewer values per multi-valued attribute than the \
         real dumps, which cannot be fetched here.",
    ),
    (
        "R7",
        "deviates: top-k exact in 18 of 18 cells (worst 100.0 %); pruned ≥ 70 % in 0 (most \
         44.3 %) — the pruning shortfall is not explained yet (ROADMAP item 5).",
    ),
];

/// The tables of the experiment producing table `key`. The experiments the
/// count claims read run once per test binary, side by side on their own
/// threads, and every test shares their tables.
fn tables(key: &str) -> &'static [Table] {
    static RUNS: OnceLock<Vec<Vec<Table>>> = OnceLock::new();
    let runs = RUNS.get_or_init(|| {
        let args = format!("--scale {SCALE} --seed {SEED}");
        let args = HarnessArgs::parse_from(args.split(' ').map(str::to_owned));
        let counted = |e: &&Experiment| {
            CLAIMS.iter().any(|c| c.kind == Kind::Count && e.names.contains(&c.reads))
        };
        std::thread::scope(|s| {
            let runs: Vec<_> = EXPERIMENTS
                .iter()
                .filter(counted)
                .map(|e| s.spawn(|| (e.run)(&args)))
                .collect();
            runs.into_iter().map(|run| run.join().expect("experiment ran")).collect()
        })
    });
    runs.iter().find(|ts| ts.iter().any(|t| t.key == key)).expect("an experiment")
}

/// Checks claim `id`'s reading against its pin.
fn check(id: &str) {
    let c = claim(id);
    let reading = (c.check)(tables(c.reads));
    match PINNED.iter().find(|p| p.0 == id).expect("pinned").1 {
        "holds" => assert_eq!(reading.verdict, Verdict::Holds, "{id}: {reading}"),
        pinned => assert_eq!(format!("{reading} — {}", c.cause), pinned, "{id}"),
    }
}

/// Claim `id`'s verdict on its tables with one cell of table `key`, in the
/// first row whose first column reads `row`, replaced by `cell`.
fn doctored(id: &str, key: &str, row: &str, col: &str, cell: Cell) -> Verdict {
    let c = claim(id);
    let mut ts = tables(c.reads).to_vec();
    let t = ts.iter_mut().find(|t| t.key == key).expect("table");
    let r = t.rows.iter().position(|r| r[0].text == row).expect("row");
    let j = t.col(col);
    t.rows[r][j] = cell;
    (c.check)(&ts).verdict
}

#[test]
fn every_count_claim_is_pinned() {
    let count = CLAIMS.iter().filter(|c| c.kind == Kind::Count).map(|c| c.id);
    assert_eq!(count.collect::<Vec<_>>(), PINNED.map(|p| p.0));
}

/// R1 — derivations add MDAs, and more interesting ones, on every
/// native-RDF graph; Airline derives nothing.
#[test]
fn r1_derivations_enrich_the_search_space() {
    check("R1");
}

#[test]
fn r1_fails_when_derivations_lose_mdas() {
    assert_eq!(doctored("R1", "figure7", "CEOs", "#wD", Cell::int(193)), Verdict::Fails);
}

/// R1's Airline counterpoint: the converted-relational graph derives
/// nothing, and one derived property there makes R1 fail.
#[test]
fn r1_airline_has_no_derivations() {
    let t2 = tables("table2").iter().find(|t| t.key == "table2").expect("table2");
    let airline = t2.rows.iter().find(|r| r[0].text == "Airline").expect("Airline row");
    let derived = ["kw", "lang", "count", "path"].map(|c| airline[t2.col(c)].text.as_str());
    assert_eq!(derived, ["0"; 4]);
    assert_eq!(doctored("R1", "table2", "Airline", "path", Cell::int(1)), Verdict::Fails);
}

/// R4 — both PGCube variants are wrong on a noticeable share of the
/// aggregates of the multi-valued graphs; PGCube^d repairs some but not
/// all; the single-valued Airline graph has zero errors.
#[test]
fn r4_pgcube_error_counts() {
    check("R4");
}

#[test]
fn r4_fails_on_one_pgcube_error_on_airline() {
    assert_eq!(doctored("R4", "table3", "Airline", "#wrong(*)", Cell::int(1)), Verdict::Fails);
}

/// R5 — error ratios are overcounts and reach multiples of the true value.
#[test]
fn r5_error_ratios_are_large_overcounts() {
    check("R5");
}

#[test]
fn r5_fails_on_an_undercount() {
    assert_eq!(doctored("R5", "figure10", "CEOs", "min", Cell::num(0.9, 2)), Verdict::Fails);
}

/// R7 — early-stop keeps its top-k with the paper's 60×2 sampling.
#[test]
fn r7_early_stop_accuracy() {
    check("R7");
}

#[test]
fn r7_fails_below_80_percent_accuracy() {
    assert_eq!(doctored("R7", "table4", "Nobel", "acc%", Cell::pct(66.7)), Verdict::Fails);
}

/// The Figure 6(c) story: on NASA, the crewed/experiment disciplines have
/// far heavier spacecraft, and the aggregate surfaces in the top-k.
#[test]
fn figure6c_mass_by_discipline() {
    let g = regen_graph("NASA", &RealisticConfig { scale: SCALE, seed: SEED });
    let report = Spade::new(SpadeConfig {
        k: 15,
        dimension_stop_list: vec!["name".into()],
        ..experiment_config()
    })
    .run_on(&OfflineState::from_graph(g, 0), &RequestConfig::default());
    let story = report
        .top
        .iter()
        .find(|t| t.mda.contains("mass") && t.dims.iter().any(|d| d == "discipline"))
        .expect("mass-by-discipline aggregate in top-k");
    // Human crew must be among the heaviest groups shown.
    assert!(
        story.sample_groups.iter().take(4).any(|(l, _)| l.contains("Human crew")),
        "groups: {:?}",
        story.sample_groups
    );
}
