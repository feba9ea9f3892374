//! Order statistics over latency samples, the modality guard, and the
//! seeded generator the workloads draw from.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// First quartile, median and third quartile of an ascending slice.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    [percentile(sorted, 25.0), percentile(sorted, 50.0), percentile(sorted, 75.0)]
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it — the only tail a window of `n` samples supports. `None` under
/// 40 samples, where even p75 has fewer than ten beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so the nearest-rank arithmetic is exact.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|per_mille| n - (n * per_mille).div_ceil(1000) >= 10)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// How far p40 and p60 may sit from p50 before the median is judged to lie
/// between two cost classes instead of inside one. Neighbouring classes here
/// are half again apart at the least (a steady cache hit and the first hit
/// after a miss; hit and miss are a hundredfold), while a noisy spell tilts
/// the plateau the median sits on by up to a sixth.
pub const MODALITY_TOLERANCE: f64 = 0.25;

/// The modality guard: `Err((p40, p50, p60))` when p40 or p60 is more than
/// [`MODALITY_TOLERANCE`] away from p50.
pub fn check_unimodal(sorted: &[f64]) -> Result<(), (f64, f64, f64)> {
    let (p40, p50, p60) =
        (percentile(sorted, 40.0), percentile(sorted, 50.0), percentile(sorted, 60.0));
    let within = |v: f64| (v - p50).abs() <= MODALITY_TOLERANCE * p50;
    if within(p40) && within(p60) {
        Ok(())
    } else {
        Err((p40, p50, p60))
    }
}

/// splitmix64: every workload input (corpus seed, request order, Zipf
/// draws) descends from one `--seed` through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How often each popularity rank appears among `total` draws of a
/// Zipf(`s`) law over `n` ranks (rank `r` weighs `1 / (r + 1)^s`): the
/// exact shares, rounded by largest remainder so the counts sum to `total`.
/// A cycle built from these counts has the same composition for every seed.
pub fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let norm: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / norm * total as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor())
            .total_cmp(&(shares[a] - shares[a].floor()))
            .then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..missing] {
        counts[rank] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quartiles(&v), [3.0, 5.0, 8.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn modality_guard_rejects_a_median_between_two_modes() {
        // 70 % of ops in one class: p40..p60 all sit inside it.
        let mut one_class: Vec<f64> = vec![100.0; 70];
        one_class.extend(vec![10.0; 30]);
        one_class.sort_by(f64::total_cmp);
        assert!(check_unimodal(&one_class).is_ok());
        // A 50/50 hit/miss mix: p40 is a hit, p60 a miss.
        let mut mixed: Vec<f64> = vec![0.03; 50];
        mixed.extend(vec![30.0; 50]);
        mixed.sort_by(f64::total_cmp);
        let (p40, _, p60) = check_unimodal(&mixed).unwrap_err();
        assert_eq!((p40, p60), (0.03, 30.0));
        // Inside the tolerance on both sides passes, outside on one fails.
        let near: Vec<f64> = (0..100).map(|i| 100.0 + f64::from(i) * 0.5).collect();
        assert!(check_unimodal(&near).is_ok());
        let mut shoulder: Vec<f64> = vec![100.0; 45];
        shoulder.extend(vec![140.0; 55]);
        assert!(check_unimodal(&shoulder).is_err(), "p40 is 29 % under p50");
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut rng = Rng::new(1);
        assert!((0..1000).all(|_| rng.below(10) < 10));
        let mut items: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn zipf_draw_frequencies_follow_the_power_law() {
        let counts = zipf_counts(64, 1.1, 498);
        assert_eq!(counts.len(), 64);
        assert_eq!(counts.iter().sum::<usize>(), 498);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "monotone: {counts:?}");
        assert!(counts.iter().all(|&c| c >= 1), "every rank is requested: {counts:?}");
        let norm: f64 = (1..=64).map(|r| 1.0 / f64::from(r).powf(1.1)).sum();
        for rank in [0usize, 1, 3, 15, 63] {
            let expected = 498.0 / ((rank + 1) as f64).powf(1.1) / norm;
            assert!((counts[rank] as f64 - expected).abs() < 1.0, "rank {rank}: {counts:?}");
        }
        // The head carries the mass: the top eight ranks are over half of it.
        assert!(counts[..8].iter().sum::<usize>() * 2 > 498);
        assert_eq!(zipf_counts(4, 0.0, 10), vec![3, 3, 2, 2]);
    }
}
