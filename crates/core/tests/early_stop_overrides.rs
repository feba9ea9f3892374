//! Early-stop prunes for the request it serves. With early-stop switched
//! on in the base config, every wire override (`k`, `interestingness`,
//! `min_support`, both allow filters) must answer with the bytes of an
//! engine configured from scratch with that override and then
//! `with_early_stop()`.

use spade_core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};
use spade_stats::Interestingness;

#[test]
fn every_request_override_reaches_the_pruning() {
    let graph = realistic::airline(&RealisticConfig { scale: 60, seed: 1 });
    let state = OfflineState::from_graph(graph, 1);
    let base = SpadeConfig { min_support: 0.2, threads: 1, ..Default::default() };
    let overrides = [
        ("k", RequestConfig { k: Some(20), ..Default::default() }),
        (
            "interestingness",
            RequestConfig {
                interestingness: Some(Interestingness::Skewness),
                ..Default::default()
            },
        ),
        ("min_support", RequestConfig { min_support: Some(0.5), ..Default::default() }),
        (
            "cfs_filter",
            RequestConfig { cfs_filter: vec!["Flight".into()], ..Default::default() },
        ),
        (
            "measure_filter",
            RequestConfig { measure_filter: vec!["Delay".into()], ..Default::default() },
        ),
    ];
    for (name, request) in overrides {
        let served = Spade::new(base.clone().with_early_stop()).run_on(&state, &request);
        let oracle = Spade::new(request.apply(&base).with_early_stop())
            .run_on(&state, &RequestConfig::default());
        assert!(!oracle.top.is_empty(), "{name}: the fixture must rank something");
        assert_eq!(served.to_json(false), oracle.to_json(false), "{name} override");
    }
}
