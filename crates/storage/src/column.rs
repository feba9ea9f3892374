//! Multi-valued categorical attribute columns (dimension storage).
//!
//! RDF's flexibility means a fact "may have multiple values along a given
//! dimension" and "some CFs may miss dimensions" (Section 2). A
//! [`CategoricalColumn`] therefore maps each dense fact id to *zero or more*
//! distinct value codes, in CSR (offsets + values) layout, along with the
//! attribute's value dictionary. Value codes are assigned in sorted label
//! order, giving the deterministic dimension-value ordering the array
//! representation of ArrayCube/MVDCube requires ("the distinct values of
//! each dimension are ordered", Section 4.1).

use crate::fact_table::FactId;
use std::collections::HashMap;

/// Builder that accumulates `(fact, label)` pairs before code assignment.
#[derive(Clone, Debug, Default)]
pub struct CategoricalColumnBuilder {
    name: String,
    pairs: Vec<(u32, String)>,
}

impl CategoricalColumnBuilder {
    /// Starts a column named after the attribute.
    pub fn new(name: impl Into<String>) -> Self {
        CategoricalColumnBuilder { name: name.into(), pairs: Vec::new() }
    }

    /// Records that `fact` has `label` as one of its values.
    pub fn add(&mut self, fact: FactId, label: impl Into<String>) {
        self.pairs.push((fact.0, label.into()));
    }

    /// Finalizes into a [`CategoricalColumn`] over `n_facts` facts.
    pub fn build(self, n_facts: usize) -> CategoricalColumn {
        // Sorted, deduplicated label dictionary.
        let mut labels: Vec<String> = self.pairs.iter().map(|(_, l)| l.clone()).collect();
        labels.sort_unstable();
        labels.dedup();
        let code_of: HashMap<&str, u32> =
            labels.iter().enumerate().map(|(i, l)| (l.as_str(), i as u32)).collect();

        // Per-fact distinct codes.
        let mut per_fact: Vec<Vec<u32>> = vec![Vec::new(); n_facts];
        for (fact, label) in &self.pairs {
            let fact = *fact as usize;
            assert!(fact < n_facts, "fact id {fact} out of range (n_facts={n_facts})");
            per_fact[fact].push(code_of[label.as_str()]);
        }
        let mut offsets = Vec::with_capacity(n_facts + 1);
        let mut values = Vec::with_capacity(self.pairs.len());
        offsets.push(0u32);
        for codes in &mut per_fact {
            codes.sort_unstable();
            codes.dedup();
            values.extend_from_slice(codes);
            offsets.push(values.len() as u32);
        }
        CategoricalColumn { name: self.name, labels, offsets, values }
    }
}

/// A finalized multi-valued categorical column.
#[derive(Clone, Debug)]
pub struct CategoricalColumn {
    name: String,
    labels: Vec<String>,
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl CategoricalColumn {
    /// Convenience constructor from per-fact value lists (tests/generators).
    pub fn from_rows(name: impl Into<String>, rows: &[Vec<&str>]) -> Self {
        let mut b = CategoricalColumnBuilder::new(name);
        for (i, row) in rows.iter().enumerate() {
            for v in row {
                b.add(FactId(i as u32), *v);
            }
        }
        b.build(rows.len())
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The distinct value codes of `fact` (empty = missing dimension).
    pub fn codes_of(&self, fact: FactId) -> &[u32] {
        let i = fact.index();
        &self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of distinct values of the attribute.
    pub fn distinct_values(&self) -> usize {
        self.labels.len()
    }

    /// The label of a value code.
    pub fn label(&self, code: u32) -> &str {
        &self.labels[code as usize]
    }

    /// Number of facts covered by the column.
    pub fn n_facts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of facts having at least one value — the attribute's support
    /// (Section 3, Step 2).
    pub fn support(&self) -> usize {
        (0..self.n_facts()).filter(|&i| !self.codes_of(FactId(i as u32)).is_empty()).count()
    }

    /// Number of facts having *more than one* value — the multi-valued fact
    /// count the online analysis records, and the trigger for Lemma 1.
    pub fn multi_valued_facts(&self) -> usize {
        (0..self.n_facts()).filter(|&i| self.codes_of(FactId(i as u32)).len() > 1).count()
    }

    /// `true` when some fact has several values (the attribute is in `MD`).
    pub fn is_multi_valued(&self) -> bool {
        self.multi_valued_facts() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_sorted_label_order() {
        // Ghosn's four nationalities from Figure 1.
        let col = CategoricalColumn::from_rows(
            "nationality",
            &[vec!["Angola"], vec!["Nigeria", "Lebanon", "France", "Brazil"]],
        );
        assert_eq!(col.distinct_values(), 5);
        // Sorted: Angola(0), Brazil(1), France(2), Lebanon(3), Nigeria(4).
        assert_eq!(col.label(0), "Angola");
        assert_eq!(col.label(4), "Nigeria");
        assert_eq!(col.codes_of(FactId(0)), &[0]);
        assert_eq!(col.codes_of(FactId(1)), &[1, 2, 3, 4]);
    }

    #[test]
    fn missing_and_duplicate_values() {
        let mut b = CategoricalColumnBuilder::new("gender");
        b.add(FactId(0), "Female");
        b.add(FactId(0), "Female"); // duplicate triple: set semantics
        let col = b.build(3);
        assert_eq!(col.codes_of(FactId(0)), &[0]);
        assert!(col.codes_of(FactId(1)).is_empty());
        assert_eq!(col.support(), 1);
        assert_eq!(col.multi_valued_facts(), 0);
        assert!(!col.is_multi_valued());
    }

    #[test]
    fn multi_valued_statistics() {
        let col = CategoricalColumn::from_rows(
            "area",
            &[
                vec!["Diamond", "Manufacturer", "Natural gas"],
                vec!["Automotive", "Manufacturer"],
                vec![],
            ],
        );
        assert_eq!(col.support(), 2);
        assert_eq!(col.multi_valued_facts(), 2);
        assert!(col.is_multi_valued());
        assert_eq!(col.n_facts(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_fact() {
        let mut b = CategoricalColumnBuilder::new("x");
        b.add(FactId(5), "v");
        let _ = b.build(2);
    }
}
