//! Property test of the fused measure join: for every mix of single- and
//! multi-valued measures, [`accumulate_all`] gives measure `k` exactly what
//! `measures[k].accumulate(facts)` gives it — the count, and the sum, min
//! and max to the bit.

use proptest::prelude::*;
use proptest::BoxedStrategy;
use spade_storage::{
    accumulate_all, FactId, MeasureTotals, NumericColumnBuilder, PreAggregated,
};

/// Values with both signed zeros, fractions, and magnitudes whose sums
/// overflow to ±∞ (and then to NaN when both signs overflow).
const VALUES: [f64; 8] = [-0.0, 0.0, 1.5, -2.25, 7.0, 1e-300, f64::MAX / 2.0, -f64::MAX / 2.0];

/// One measure's values per fact: at most one per fact when
/// `single_valued`, otherwise up to three with fact 0 holding two, so the
/// measure is multi-valued whenever there is a fact.
fn rows(n: usize) -> impl Strategy<Value = (bool, Vec<Vec<f64>>)> {
    any::<bool>().prop_flat_map(move |single_valued| {
        let value = (0..VALUES.len()).prop_map(|i| VALUES[i]);
        let row = prop::collection::vec(value, 0..=if single_valued { 1 } else { 3 });
        prop::collection::vec(row, n).prop_map(move |mut rows| {
            if let (false, Some(first)) = (single_valued, rows.first_mut()) {
                first.resize(2, 3.0);
            }
            (single_valued, rows)
        })
    })
}

/// The fact list: empty, every fact, an ascending subset (what a decoded
/// cell is), or any sequence with repeats.
fn fact_list(n: usize) -> BoxedStrategy<Vec<u32>> {
    let all: Vec<u32> = (0..n as u32).collect();
    let subset = prop::collection::vec(any::<bool>(), n)
        .prop_map(|keep| (0..keep.len() as u32).filter(|&f| keep[f as usize]).collect());
    if n == 0 {
        return Just(all).boxed();
    }
    let sequence = prop::collection::vec(0..n as u32, 0..=2 * n);
    prop_oneof![Just(Vec::new()), Just(all), subset, sequence].boxed()
}

#[derive(Debug)]
struct Case {
    n_facts: usize,
    measures: Vec<(bool, Vec<Vec<f64>>)>,
    facts: Vec<u32>,
}

fn case() -> impl Strategy<Value = Case> {
    (0usize..=40, 1usize..=9).prop_flat_map(|(n_facts, n_measures)| {
        (prop::collection::vec(rows(n_facts), n_measures), fact_list(n_facts))
            .prop_map(move |(measures, facts)| Case { n_facts, measures, facts })
    })
}

fn preaggregate(n_facts: usize, rows: &[Vec<f64>]) -> PreAggregated {
    let mut builder = NumericColumnBuilder::new("m");
    for (fact, values) in rows.iter().enumerate() {
        for &v in values {
            builder.add(FactId(fact as u32), v);
        }
    }
    builder.build(n_facts).preaggregate()
}

fn bits(t: &MeasureTotals) -> (u64, u64, u64, u64) {
    (t.count, t.sum.to_bits(), t.min.to_bits(), t.max.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn fused_join_equals_one_measure_at_a_time(case in case()) {
        let measures: Vec<PreAggregated> =
            case.measures.iter().map(|(_, rows)| preaggregate(case.n_facts, rows)).collect();
        for (m, (single_valued, _)) in measures.iter().zip(&case.measures) {
            prop_assert_eq!(m.is_single_valued(), *single_valued || case.n_facts == 0);
        }
        let columns: Vec<&PreAggregated> = measures.iter().collect();
        let mut out = vec![MeasureTotals { count: 7, sum: 1.0, min: 2.0, max: 3.0 }; columns.len()];
        accumulate_all(&columns, &case.facts, &mut out);
        for (k, (m, got)) in measures.iter().zip(&out).enumerate() {
            let want = m.accumulate(case.facts.iter().copied());
            prop_assert_eq!(
                bits(got),
                bits(&want),
                "measure {} of {} (single-valued: {}): {:?} vs {:?}",
                k,
                measures.len(),
                m.is_single_valued(),
                got,
                want
            );
        }
    }
}
