//! The shared bench-corpus catalog.
//!
//! "Which corpora do we measure on" — the Table-2-like N-Triples cases
//! (graph + RDFS overlay depth) and the Section-6.5 synthetic cube cases —
//! lives here once: the pinned benchmark's `offline_build` and `cube_*`
//! workloads iterate this catalog, so their figures stay directly
//! comparable across PRs.

use crate::{nt_corpus, RealisticConfig, SyntheticConfig};

/// One N-Triples offline-phase corpus: a named Table-2 simulated graph with
/// a deterministic RDFS ontology overlay (see [`crate::nt::add_ontology`]).
#[derive(Clone, Copy, Debug)]
pub struct NtCase {
    /// Bench-row name, stable across PRs (`<dataset>_ont<depth>`).
    pub name: &'static str,
    /// The simulated Table-2 dataset to generate.
    pub dataset: &'static str,
    /// Multiplier on the caller's `--scale`.
    pub scale_mul: usize,
    /// Subclass-chain depth of the RDFS overlay.
    pub ontology_depth: usize,
}

/// The standard offline-phase corpora: heterogeneous/path-rich with a
/// shallow ontology, type-heavy with a mid ontology, and a
/// saturation-dominated deep-subclass case.
pub const NT_CASES: [NtCase; 3] = [
    NtCase { name: "ceos_ont4", dataset: "CEOs", scale_mul: 1, ontology_depth: 4 },
    NtCase { name: "nasa_ont8", dataset: "NASA", scale_mul: 1, ontology_depth: 8 },
    NtCase { name: "nobel_ont24", dataset: "Nobel", scale_mul: 1, ontology_depth: 24 },
];

impl NtCase {
    /// Generates this case's N-Triples text at the given scale and seed.
    pub fn generate(&self, scale: usize, seed: u64) -> String {
        let cfg = RealisticConfig { scale: scale * self.scale_mul, seed };
        nt_corpus(self.dataset, &cfg, self.ontology_depth)
    }
}

/// One synthetic cube-evaluation case (Section 6.5 parameterization).
#[derive(Clone, Copy, Debug)]
pub struct SyntheticCase {
    /// Bench-row name, stable across PRs.
    pub name: &'static str,
    /// Distinct values per dimension.
    pub dim_values: [u32; 3],
    /// Probability of a fact being multi-valued in a dimension.
    pub multi_valued_prob: f64,
    /// MVDCube chunking override (`None` = whole domains).
    pub chunk_size: Option<u32>,
}

/// The standard cube-engine cases: single-valued, multi-valued, and a
/// chunked configuration near the auto heuristic's memory-bounded operating
/// point (⌈|D|/4⌉ ≈ 13 for 50×20×10).
pub const SYNTHETIC_CASES: [SyntheticCase; 3] = [
    SyntheticCase {
        name: "single_valued_100x10x5",
        dim_values: [100, 10, 5],
        multi_valued_prob: 0.0,
        chunk_size: None,
    },
    SyntheticCase {
        name: "multi_valued_100x10x5",
        dim_values: [100, 10, 5],
        multi_valued_prob: 0.3,
        chunk_size: None,
    },
    SyntheticCase {
        name: "chunked_50x20x10",
        dim_values: [50, 20, 10],
        multi_valued_prob: 0.1,
        chunk_size: Some(12),
    },
];

impl SyntheticCase {
    /// The generator configuration for this case at the given fact count
    /// and seed (3 measures, sparsity 0.1 — the catalog-wide constants).
    pub fn config(&self, n_facts: usize, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n_facts,
            dim_values: self.dim_values.to_vec(),
            n_measures: 3,
            sparsity: 0.1,
            multi_valued_prob: self.multi_valued_prob,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_cases_generate_parseable_corpora() {
        for case in &NT_CASES {
            let nt = case.generate(15, 3);
            let g = spade_rdf::parse_ntriples(&nt).expect(case.name);
            assert!(g.len() > 20, "{}: {} triples", case.name, g.len());
        }
    }

    #[test]
    fn synthetic_cases_scale_with_facts() {
        for case in &SYNTHETIC_CASES {
            let cfg = case.config(500, 7);
            assert_eq!(cfg.n_facts, 500);
            assert_eq!(cfg.dim_values.len(), 3);
            let cols = crate::synthetic::generate_columns(&cfg);
            assert_eq!(cols.n_facts, 500);
        }
    }
}
