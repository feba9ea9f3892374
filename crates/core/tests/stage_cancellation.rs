//! Every pipeline stage under an `ExecCtx`, one [`check`] row each.
//!
//! Two checks per row, so a stage added later gets both by adding a row:
//!
//! * **cancelled ⇒ typed error** — under a flag-cancelled budget and under
//!   an already-expired deadline the context form (`*_in`) returns
//!   `Err(Cancelled)` with the matching reason and does not panic;
//! * **unfired budget ⇒ plan invariance** — under a far deadline (run
//!   *after* the cancelled attempts, so a cancellation provably leaves no
//!   residue) the context form's result equals the plain wrapper's, at 2
//!   and at 8 threads — which also pins each stage's thread invariance
//!   against the plain form's own default count.

use spade_bitmap::Bitmap;
use spade_core::analysis::analyze_cfs;
use spade_core::cfs::{self, CfsStrategy};
use spade_core::mfs::{self, Item};
use spade_core::{
    enumeration, evaluate, offline, Budget, CancelReason, Cancelled, ExecCtx, OfflineState,
    RequestConfig, Spade, SpadeConfig, SpanCtx,
};
use spade_cube::{earlystop, mvdcube, translate};
use spade_cube::{CubeSpec, EarlyStopConfig, MeasureSpec, MvdCubeOptions};
use spade_datagen::synthetic::{generate_columns, SyntheticConfig};
use spade_datagen::{realistic, RealisticConfig};
use spade_storage::AggFn;
use std::fmt::Debug;
use std::time::Duration;

/// One table row: `in_form` is the stage's context form, `plain` its
/// infallible wrapper (or, for a stage with only the context form, that
/// form under `ExecCtx::unbounded` on one thread).
fn check<T: PartialEq + Debug>(
    name: &str,
    in_form: impl Fn(&ExecCtx<'_>) -> Result<T, Cancelled>,
    plain: impl Fn() -> T,
) {
    let flagged = Budget::unlimited();
    flagged.cancel();
    let expired = Budget::with_deadline(Duration::ZERO);
    for (budget, reason) in
        [(&flagged, CancelReason::Cancelled), (&expired, CancelReason::DeadlineExceeded)]
    {
        let cx = ExecCtx { budget, span: SpanCtx::disabled(), threads: 2 };
        assert_eq!(in_form(&cx).expect_err(name).reason, reason, "{name}");
    }
    let far = Budget::with_deadline(Duration::from_secs(300));
    for threads in [2usize, 8] {
        let cx = ExecCtx { budget: &far, span: SpanCtx::disabled(), threads };
        let bounded = in_form(&cx).unwrap_or_else(|e| panic!("{name}: far deadline: {e}"));
        assert_eq!(bounded, plain(), "{name}: an unfired budget changed the result");
    }
}

#[test]
fn graph_level_stages() {
    let data = RealisticConfig { scale: 250, seed: 9 };
    let g = realistic::ceos(&data);
    let config = SpadeConfig { k: 3, min_support: 0.3, ..Default::default() };
    let stats = offline::analyze(&g);
    let (derived, _) = offline::enumerate_derivations(&g, &stats, &config);
    let strategies = [CfsStrategy::TypeBased, CfsStrategy::SummaryBased];
    let cfs_list = cfs::select(&g, &strategies, &config);
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").expect("CEO CFS");
    let analysis = analyze_cfs(&g, ceo, &derived, &config);
    let lattices = enumeration::enumerate(&analysis, &config);
    // Overlapping supports with an incompatibility, so the mining branches
    // interact through cross-branch subsumption.
    let items: Vec<Item> = (0..12u32)
        .map(|a| Item {
            attr: a as usize,
            tidset: Bitmap::from_iter((0..60).filter(|f| !(f + a).is_multiple_of(a + 2))),
        })
        .collect();
    let compat = |a: usize, b: usize| !(a + b).is_multiple_of(7);
    // Evaluation and the whole pipeline run with early-stop on: its pruning
    // must not depend on the thread count either.
    let es_config = config.clone().with_early_stop();
    let engine = Spade::new(es_config.clone());
    let state = OfflineState::from_graph(realistic::ceos(&data), 0);
    let request = RequestConfig::default();

    check(
        "offline::analyze",
        |cx| Ok(offline::to_records(&offline::analyze_in(&g, cx)?)),
        || offline::to_records(&offline::analyze(&g)),
    );
    check(
        "offline::enumerate_derivations",
        |cx| offline::enumerate_derivations_in(&g, &stats, &config, cx),
        || offline::enumerate_derivations(&g, &stats, &config),
    );
    check(
        "cfs::select",
        |cx| cfs::select_in(&g, &strategies, &config, cx),
        || cfs::select(&g, &strategies, &config),
    );
    check(
        "mfs::maximal_frequent_sets_in",
        |cx| mfs::maximal_frequent_sets_in(&items, 12, 4, compat, cx),
        || ExecCtx::unbounded(1, |cx| mfs::maximal_frequent_sets_in(&items, 12, 4, compat, cx)),
    );
    check(
        "enumeration::enumerate",
        |cx| enumeration::enumerate_in(&analysis, &config, cx),
        || enumeration::enumerate(&analysis, &config),
    );
    check(
        "evaluate::evaluate_cfs",
        |cx| evaluate::evaluate_cfs_in(&analysis, &lattices, &es_config, cx),
        || evaluate::evaluate_cfs(&analysis, &lattices, &es_config),
    );
    check(
        "Spade::run_on",
        |cx| Ok(engine.run_on_in(&state, &request, cx)?.to_json(false)),
        || engine.run_on(&state, &request).to_json(false),
    );
}

#[test]
fn cube_level_stages() {
    // Random independent dimensions (some facts multi-valued) and continuous
    // random measures.
    let data = generate_columns(&SyntheticConfig {
        n_facts: 400,
        dim_values: vec![4, 3],
        n_measures: 2,
        sparsity: 1.0,
        multi_valued_prob: 0.2,
        seed: 7,
    });
    let fns = vec![AggFn::Avg, AggFn::Sum];
    let measures =
        data.measures.iter().map(|preagg| MeasureSpec { preagg, fns: fns.clone() }).collect();
    let spec = CubeSpec::new(data.dims.iter().collect(), measures, data.n_facts);
    let options = MvdCubeOptions { chunk_size: Some(2), ..Default::default() };
    let es = EarlyStopConfig { k: 2, ..Default::default() };
    let (lattice, translation) = mvdcube::prepare(&spec, &options, Some(es.sample_size));
    let samples = translation.samples.as_ref().expect("sampling enabled");
    let alive = earlystop::prune(&spec, &lattice, samples, &es, 1).alive;
    assert!(alive.values().flatten().any(|&live| !live), "fixture prunes something");

    check(
        "translate::translate_in",
        |cx| translate::translate_in(&spec, &lattice, Some(4), 42, cx),
        || {
            ExecCtx::unbounded(1, |cx| {
                translate::translate_in(&spec, &lattice, Some(4), 42, cx)
            })
        },
    );
    check(
        "mvdcube::prepare",
        |cx| mvdcube::prepare_in(&spec, &options, Some(4), cx),
        || mvdcube::prepare(&spec, &options, Some(4)),
    );
    check(
        "earlystop::prune",
        |cx| earlystop::prune_in(&spec, &lattice, samples, &es, cx),
        || earlystop::prune(&spec, &lattice, samples, &es, 1),
    );
    check(
        "mvdcube::mvd_cube_pruned",
        |cx| mvdcube::mvd_cube_pruned_in(&spec, &options, &lattice, &translation, &alive, cx),
        || mvdcube::mvd_cube_pruned(&spec, &options, &lattice, &translation, &alive),
    );
}
