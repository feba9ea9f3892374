//! In-memory RDF triple store.
//!
//! Storage layout follows the access paths the paper's pipeline needs:
//! per-property `(s, o)` pair lists (the attribute tables of Section 4.3),
//! per-subject outgoing edge lists (for path derivation and summarization),
//! and per-class extents (for type-based CFS selection). Duplicate triples
//! are ignored, matching RDF set semantics.
//!
//! Graphs are built two ways: incrementally via [`Graph::insert`] (tests,
//! generators, saturation), or in bulk via [`Graph::from_parts`] — the
//! parallel-ingestion path, which replaces per-insert hash probes with one
//! sort + dedup pass and sort-grouped index construction.
//!
//! `rdf:type` is interned once at construction, so every read accessor
//! (including [`Graph::rdf_type_id`]) borrows `&self`.

use crate::dict::{table_bytes, Dictionary, FxHashMap, FxHashSet, TermId};
use crate::term::Term;
use crate::vocab;
use std::sync::OnceLock;

/// A dictionary-encoded RDF triple. `repr(C)` so a `[s, p, o]` id column
/// (as the snapshot store lays it out on disk) reinterprets in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Property id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

/// An RDF graph: a set of triples plus the dictionary interning its terms.
#[derive(Debug)]
pub struct Graph {
    /// Term dictionary; public so downstream crates can decode ids.
    pub dict: Dictionary,
    triples: Vec<Triple>,
    /// Triple membership set, built **lazily** from `triples` on first use
    /// (duplicate checks during mutation, [`Graph::contains`]): a graph
    /// that is only *read* — the snapshot serving path — never pays for it.
    seen: OnceLock<FxHashSet<Triple>>,
    by_property: FxHashMap<TermId, Vec<(TermId, TermId)>>,
    outgoing: FxHashMap<TermId, Vec<(TermId, TermId)>>,
    type_extents: FxHashMap<TermId, Vec<TermId>>,
    rdf_type: TermId,
}

/// Externally supplied graph parts were inconsistent (see
/// [`Graph::from_indexed_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphPartsError(pub String);

impl std::fmt::Display for GraphPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid graph parts: {}", self.0)
    }
}

impl std::error::Error for GraphPartsError {}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty graph. `rdf:type` is interned eagerly (always id 0)
    /// so type-index maintenance and the read path need no `&mut` probing.
    pub fn new() -> Self {
        let mut dict = Dictionary::new();
        let rdf_type = dict.intern_iri(vocab::RDF_TYPE);
        Graph {
            dict,
            triples: Vec::new(),
            seen: OnceLock::new(),
            by_property: FxHashMap::default(),
            outgoing: FxHashMap::default(),
            type_extents: FxHashMap::default(),
            rdf_type,
        }
    }

    /// The membership set, initialized from the triple list on first use.
    fn seen_set(&self) -> &FxHashSet<Triple> {
        self.seen.get_or_init(|| self.triples.iter().copied().collect())
    }

    /// Mutable access to the membership set, initializing it first.
    fn seen_set_mut(&mut self) -> &mut FxHashSet<Triple> {
        if self.seen.get().is_none() {
            let set: FxHashSet<Triple> = self.triples.iter().copied().collect();
            let _ = self.seen.set(set);
        }
        self.seen.get_mut().expect("just initialized")
    }

    /// The id of `rdf:type` in this graph's dictionary.
    pub fn rdf_type_id(&self) -> TermId {
        self.rdf_type
    }

    /// Builds a graph in bulk from a dictionary and a triple list in input
    /// order (duplicates allowed). Instead of one hash probe per insert,
    /// duplicates are removed with a sort + dedup pass that keeps each
    /// triple's **first** occurrence position, and the per-property /
    /// per-subject / per-class indexes are built by sort-grouped runs — all
    /// sorts fan out over `threads` (`0` = auto) with thread-count-independent
    /// results. The outcome is bit-identical to inserting the same list
    /// through [`Graph::insert_ids`] on a fresh graph sharing `dict`.
    pub fn from_parts(mut dict: Dictionary, triples: Vec<Triple>, threads: usize) -> Graph {
        let rdf_type = dict.intern_iri(vocab::RDF_TYPE);

        // Dedup keeping first occurrences: sort (triple, position), keep the
        // lowest position of each run, then restore input order by position.
        let tagged: Vec<(Triple, u32)> = triples
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, u32::try_from(i).expect("more than 2^32 triples")))
            .collect();
        let tagged = spade_parallel::par_sort(tagged, threads);
        let mut firsts: Vec<(u32, Triple)> = Vec::with_capacity(tagged.len());
        let mut prev: Option<Triple> = None;
        for (t, pos) in tagged {
            if prev != Some(t) {
                firsts.push((pos, t));
                prev = Some(t);
            }
        }
        let firsts = spade_parallel::par_sort(firsts, threads);
        let triples: Vec<Triple> = firsts.into_iter().map(|(_, t)| t).collect();

        // Index construction by stable counting-sort scatter over the dense
        // TermId key space: one counting pass, one scatter pass in input
        // order (so each group keeps insertion order, matching the
        // incremental push-per-insert layout), and one map insert per
        // *distinct* key instead of per triple.
        let n_terms = dict.len();
        let by_property = group_by_key(&triples, n_terms, |t| (t.p, (t.s, t.o)));
        let outgoing = group_by_key(&triples, n_terms, |t| (t.s, (t.p, t.o)));
        let typed: Vec<Triple> = triples.iter().filter(|t| t.p == rdf_type).copied().collect();
        let type_extents = group_by_key(&typed, n_terms, |t| (t.o, t.s));

        Graph {
            dict,
            triples,
            seen: OnceLock::new(),
            by_property,
            outgoing,
            type_extents,
            rdf_type,
        }
    }

    /// Inserts a triple of [`Term`]s; returns `false` if it was a duplicate.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.insert_ids(s, p, o)
    }

    /// Inserts a triple given pre-interned ids.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let t = Triple { s, p, o };
        if !self.seen_set_mut().insert(t) {
            return false;
        }
        self.triples.push(t);
        self.by_property.entry(p).or_default().push((s, o));
        self.outgoing.entry(s).or_default().push((p, o));
        if p == self.rdf_type {
            self.type_extents.entry(o).or_default().push(s);
        }
        true
    }

    /// Bulk-inserts `batch`, skipping duplicates (against the graph and
    /// within the batch), and returns how many triples were new. Equivalent
    /// to [`Graph::insert_ids`] per triple, but index updates are grouped —
    /// one map probe per *distinct* key instead of several per triple —
    /// which is what makes the saturation merge allocation-lean.
    pub(crate) fn insert_batch(&mut self, batch: &[Triple]) -> usize {
        self.seen_set_mut();
        // Field-level re-borrow, so `triples` stays pushable in the loop.
        let seen = self.seen.get_mut().expect("initialized above");
        seen.reserve(batch.len());
        self.triples.reserve(batch.len());
        let mut fresh: Vec<Triple> = Vec::with_capacity(batch.len());
        for &t in batch {
            if seen.insert(t) {
                self.triples.push(t);
                fresh.push(t);
            }
        }
        let n_terms = self.dict.len();
        for (k, vals) in group_by_key(&fresh, n_terms, |t| (t.p, (t.s, t.o))) {
            self.by_property.entry(k).or_default().extend(vals);
        }
        for (k, vals) in group_by_key(&fresh, n_terms, |t| (t.s, (t.p, t.o))) {
            self.outgoing.entry(k).or_default().extend(vals);
        }
        let typed: Vec<Triple> =
            fresh.iter().filter(|t| t.p == self.rdf_type).copied().collect();
        for (k, vals) in group_by_key(&typed, n_terms, |t| (t.o, t.s)) {
            self.type_extents.entry(k).or_default().extend(vals);
        }
        fresh.len()
    }

    /// Heap bytes this graph holds: the triple column, the membership set
    /// when it has been built, the three indexes with their lists, and the
    /// dictionary.
    pub fn heap_bytes(&self) -> usize {
        fn index<V>(map: &FxHashMap<TermId, Vec<V>>) -> usize {
            let lists: usize =
                map.values().map(|v| v.capacity() * std::mem::size_of::<V>()).sum();
            table_bytes::<(TermId, Vec<V>)>(map.capacity()) + lists
        }
        let triples = self.triples.capacity() * std::mem::size_of::<Triple>();
        let seen = self.seen.get().map_or(0, |set| table_bytes::<Triple>(set.capacity()));
        let indexes =
            index(&self.by_property) + index(&self.outgoing) + index(&self.type_extents);
        triples + seen + indexes + self.dict.heap_bytes()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// `true` when the graph holds no triple.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// Membership test.
    pub fn contains(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.seen_set().contains(&Triple { s, p, o })
    }

    /// The distinct properties occurring in the graph.
    pub fn properties(&self) -> impl Iterator<Item = TermId> + '_ {
        self.by_property.keys().copied()
    }

    /// The `(s, o)` pairs of property `p` — the paper's attribute table `t_a`.
    pub fn property_pairs(&self, p: TermId) -> &[(TermId, TermId)] {
        self.by_property.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Outgoing `(p, o)` edges of subject `s`.
    pub fn outgoing(&self, s: TermId) -> &[(TermId, TermId)] {
        self.outgoing.get(&s).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Objects of `(s, p, ?)`.
    pub fn objects(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        self.outgoing(s).iter().filter(move |(pp, _)| *pp == p).map(|(_, o)| *o)
    }

    /// The distinct classes used as objects of `rdf:type`.
    pub fn classes(&self) -> impl Iterator<Item = TermId> + '_ {
        self.type_extents.keys().copied()
    }

    /// The raw per-class extent — the subjects of `(?, rdf:type, c)` in
    /// insertion order, duplicates included (a node typed twice appears
    /// twice). This is the exact index column the snapshot store persists;
    /// use [`Graph::nodes_of_type`] for the deduplicated view.
    pub fn type_extent_raw(&self, c: TermId) -> &[TermId] {
        self.type_extents.get(&c).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The subjects typed with class `c` (with duplicates removed).
    pub fn nodes_of_type(&self, c: TermId) -> Vec<TermId> {
        let mut nodes = self.type_extents.get(&c).cloned().unwrap_or_default();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// All distinct subjects.
    pub fn subjects(&self) -> impl Iterator<Item = TermId> + '_ {
        self.outgoing.keys().copied()
    }

    /// Number of distinct subjects.
    pub fn subject_count(&self) -> usize {
        self.outgoing.len()
    }

    /// Reassembles a graph from an already-deduplicated triple list **and**
    /// prebuilt indexes — the snapshot-load path, which replaces the
    /// sort + dedup + counting-sort work of [`Graph::from_parts`] with
    /// cheap linear validation:
    ///
    /// * every triple id must be interned in `dict`;
    /// * `rdf:type` must be interned (graphs always intern it eagerly);
    /// * each index must account for exactly the right number of entries
    ///   (`by_property` and `outgoing` one per triple, `type_extents` one
    ///   per `rdf:type` triple).
    ///
    /// The triple list is trusted to be duplicate-free, and index
    /// *contents* beyond the count checks are trusted too: the snapshot
    /// store guards both with its checksum, and the round-trip property
    /// tests pin writer/loader agreement. The membership set rebuilds
    /// lazily if the graph is ever mutated again.
    ///
    /// `rdf_type` is taken as a parameter (and verified against the
    /// dictionary) instead of looked up, so the dictionary's lazy term → id
    /// map stays unbuilt on the read-only serving path.
    pub fn from_indexed_parts(
        dict: Dictionary,
        rdf_type: TermId,
        triples: Vec<Triple>,
        by_property: FxHashMap<TermId, Vec<(TermId, TermId)>>,
        outgoing: FxHashMap<TermId, Vec<(TermId, TermId)>>,
        type_extents: FxHashMap<TermId, Vec<TermId>>,
    ) -> Result<Graph, GraphPartsError> {
        let err = |m: String| GraphPartsError(m);
        if rdf_type.index() >= dict.len()
            || dict.term(rdf_type).as_iri() != Some(vocab::RDF_TYPE)
        {
            return Err(err(format!("{rdf_type} is not rdf:type")));
        }
        let n_terms =
            u32::try_from(dict.len()).map_err(|_| err("dictionary too large".into()))?;
        let mut max_id = 0u32;
        let mut typed = 0usize;
        for t in &triples {
            max_id = max_id.max(t.s.0).max(t.p.0).max(t.o.0);
            typed += usize::from(t.p == rdf_type);
        }
        if !triples.is_empty() && max_id >= n_terms {
            return Err(err(format!("triples reference unknown term id {max_id}")));
        }
        let check_total = |name: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(err(format!("{name} index covers {got} entries, expected {want}")))
            }
        };
        check_total("property", by_property.values().map(Vec::len).sum(), triples.len())?;
        check_total("subject", outgoing.values().map(Vec::len).sum(), triples.len())?;
        check_total("type", type_extents.values().map(Vec::len).sum(), typed)?;
        Ok(Graph {
            dict,
            triples,
            seen: OnceLock::new(),
            by_property,
            outgoing,
            type_extents,
            rdf_type,
        })
    }
}

/// Groups triples by a dense [`TermId`] key with a stable counting-sort
/// scatter: count per key, prefix-sum into offsets, scatter values in input
/// order, then carve per-key `Vec`s. `O(n + n_terms)`, one hash insert per
/// distinct key, insertion order preserved within each group.
fn group_by_key<V: Copy>(
    triples: &[Triple],
    n_terms: usize,
    key_val: impl Fn(&Triple) -> (TermId, V),
) -> FxHashMap<TermId, Vec<V>> {
    let Some(first) = triples.first() else {
        return FxHashMap::default();
    };
    let fill = key_val(first).1;
    let mut counts = vec![0u32; n_terms];
    for t in triples {
        counts[key_val(t).0.index()] += 1;
    }
    let mut offsets = counts;
    let mut running = 0u32;
    for slot in offsets.iter_mut() {
        let c = *slot;
        *slot = running;
        running += c;
    }
    let starts = offsets.clone();
    let mut flat: Vec<V> = vec![fill; triples.len()];
    for t in triples {
        let (k, v) = key_val(t);
        let pos = &mut offsets[k.index()];
        flat[*pos as usize] = v;
        *pos += 1;
    }
    let mut out: FxHashMap<TermId, Vec<V>> = FxHashMap::default();
    for (idx, (&start, &end)) in starts.iter().zip(offsets.iter()).enumerate() {
        if end > start {
            out.insert(TermId(idx as u32), flat[start as usize..end as usize].to_vec());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    #[test]
    fn insert_and_dedup() {
        let mut g = Graph::new();
        assert!(g.insert(t("a"), t("p"), t("b")));
        assert!(!g.insert(t("a"), t("p"), t("b")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn property_pairs_and_objects() {
        let mut g = Graph::new();
        g.insert(t("ceo1"), t("nationality"), Term::lit("Angola"));
        g.insert(t("ceo2"), t("nationality"), Term::lit("France"));
        g.insert(t("ceo2"), t("nationality"), Term::lit("Brazil"));
        let p = g.dict.id_of(&t("nationality")).unwrap();
        assert_eq!(g.property_pairs(p).len(), 3);
        let ceo2 = g.dict.id_of(&t("ceo2")).unwrap();
        assert_eq!(g.objects(ceo2, p).count(), 2);
    }

    #[test]
    fn type_extents() {
        let mut g = Graph::new();
        let ty = Term::iri(vocab::RDF_TYPE);
        g.insert(t("n1"), ty.clone(), t("CEO"));
        g.insert(t("n2"), ty.clone(), t("CEO"));
        g.insert(t("n2"), ty.clone(), t("Politician"));
        let ceo = g.dict.id_of(&t("CEO")).unwrap();
        assert_eq!(g.nodes_of_type(ceo).len(), 2);
        let n2 = g.dict.id_of(&t("n2")).unwrap();
        assert_eq!(g.objects(n2, g.rdf_type_id()).count(), 2);
        assert_eq!(g.classes().count(), 2);
    }

    #[test]
    fn type_index_works_regardless_of_first_use_order() {
        // rdf:type is pre-interned at construction; the type index catches
        // typed triples whenever they arrive.
        let mut g = Graph::new();
        g.insert(t("n1"), t("p"), t("v"));
        g.insert(t("n1"), Term::iri(vocab::RDF_TYPE), t("CEO"));
        let ceo = g.dict.id_of(&t("CEO")).unwrap();
        assert_eq!(g.nodes_of_type(ceo), vec![g.dict.id_of(&t("n1")).unwrap()]);
        assert_eq!(g.rdf_type_id(), g.dict.id_of(&Term::iri(vocab::RDF_TYPE)).unwrap());
    }

    #[test]
    fn outgoing_edges() {
        let mut g = Graph::new();
        g.insert(t("ceo"), t("company"), t("sonangol"));
        g.insert(t("sonangol"), t("area"), Term::lit("Natural gas"));
        let ceo = g.dict.id_of(&t("ceo")).unwrap();
        let sonangol = g.dict.id_of(&t("sonangol")).unwrap();
        assert_eq!(g.outgoing(ceo).len(), 1);
        assert_eq!(g.outgoing(sonangol).len(), 1);
        assert_eq!(g.subject_count(), 2);
    }

    #[test]
    fn from_parts_matches_incremental_build() {
        // The same triple list (with duplicates, out-of-order types) through
        // both construction paths yields identical state.
        let mut incremental = Graph::new();
        let ty = Term::iri(vocab::RDF_TYPE);
        let spec: Vec<(Term, Term, Term)> = vec![
            (t("a"), t("p"), Term::lit("1")),
            (t("b"), ty.clone(), t("CEO")),
            (t("a"), t("p"), Term::lit("1")), // duplicate
            (t("a"), t("q"), t("b")),
            (t("b"), t("p"), Term::lit("2")),
            (t("c"), ty.clone(), t("CEO")),
        ];
        let mut dict = Dictionary::new();
        dict.intern_iri(vocab::RDF_TYPE);
        let mut ids = Vec::new();
        for (s, p, o) in &spec {
            let s = dict.intern(s.clone());
            let p = dict.intern(p.clone());
            let o = dict.intern(o.clone());
            ids.push(Triple { s, p, o });
            incremental.insert(spec_term(s, &dict), spec_term(p, &dict), spec_term(o, &dict));
        }
        for threads in [1, 2, 8] {
            let bulk = Graph::from_parts(clone_dict(&dict), ids.clone(), threads);
            assert_eq!(bulk.triples(), incremental.triples());
            assert_eq!(bulk.dict.len(), incremental.dict.len());
            for p in incremental.properties() {
                assert_eq!(bulk.property_pairs(p), incremental.property_pairs(p));
            }
            let mut a: Vec<TermId> = bulk.classes().collect();
            let mut b: Vec<TermId> = incremental.classes().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            for c in b {
                assert_eq!(bulk.nodes_of_type(c), incremental.nodes_of_type(c));
            }
            for s in incremental.subjects() {
                assert_eq!(bulk.outgoing(s), incremental.outgoing(s));
            }
        }
    }

    /// Extracts the index columns of `g` the way the snapshot store does.
    #[allow(clippy::type_complexity)]
    fn extract_parts(
        g: &Graph,
    ) -> (
        Dictionary,
        Vec<Triple>,
        FxHashMap<TermId, Vec<(TermId, TermId)>>,
        FxHashMap<TermId, Vec<(TermId, TermId)>>,
        FxHashMap<TermId, Vec<TermId>>,
    ) {
        let parts = g.dict.to_parts();
        let dict = Dictionary::from_parts(&parts.blob, &parts.ends, 1).unwrap();
        let by_property = g.properties().map(|p| (p, g.property_pairs(p).to_vec())).collect();
        let outgoing = g.subjects().map(|s| (s, g.outgoing(s).to_vec())).collect();
        let type_extents = g.classes().map(|c| (c, g.type_extent_raw(c).to_vec())).collect();
        (dict, g.triples().to_vec(), by_property, outgoing, type_extents)
    }

    #[test]
    fn from_indexed_parts_reassembles_identically() {
        let mut g = Graph::new();
        let ty = Term::iri(vocab::RDF_TYPE);
        g.insert(t("a"), t("p"), Term::lit("1"));
        g.insert(t("b"), ty.clone(), t("CEO"));
        g.insert(t("b"), ty.clone(), t("CEO")); // duplicate, dropped
        g.insert(t("a"), t("q"), t("b"));
        let (dict, triples, by_property, outgoing, type_extents) = extract_parts(&g);
        let back = Graph::from_indexed_parts(
            dict,
            g.rdf_type_id(),
            triples,
            by_property,
            outgoing,
            type_extents,
        )
        .unwrap();
        assert_eq!(back.triples(), g.triples());
        assert_eq!(back.rdf_type_id(), g.rdf_type_id());
        for p in g.properties() {
            assert_eq!(back.property_pairs(p), g.property_pairs(p));
        }
        for s in g.subjects() {
            assert_eq!(back.outgoing(s), g.outgoing(s));
        }
        for c in g.classes() {
            assert_eq!(back.type_extent_raw(c), g.type_extent_raw(c));
        }
        let (s, p, o) = (g.triples()[0].s, g.triples()[0].p, g.triples()[0].o);
        assert!(back.contains(s, p, o));
        // The reassembled graph keeps working as a mutable graph.
        let mut back = back;
        assert!(back.insert(t("c"), t("p"), Term::lit("2")));
    }

    #[test]
    fn from_indexed_parts_rejects_inconsistencies() {
        let mut g = Graph::new();
        g.insert(t("a"), t("p"), Term::lit("1"));
        g.insert(t("b"), Term::iri(vocab::RDF_TYPE), t("CEO"));

        let ty = g.rdf_type_id();

        // Out-of-range term id.
        let (dict, mut triples, bp, og, te) = extract_parts(&g);
        triples[0].o = TermId(9999);
        assert!(Graph::from_indexed_parts(dict, ty, triples, bp, og, te).is_err());

        // An extra triple the indexes do not account for.
        let (dict, mut triples, bp, og, te) = extract_parts(&g);
        triples.push(triples[0]);
        assert!(Graph::from_indexed_parts(dict, ty, triples, bp, og, te).is_err());

        // Index entry-count mismatch.
        let (dict, triples, mut bp, og, te) = extract_parts(&g);
        bp.values_mut().next().unwrap().pop();
        assert!(Graph::from_indexed_parts(dict, ty, triples, bp, og, te).is_err());

        // An id that is not rdf:type.
        let (dict, triples, bp, og, te) = extract_parts(&g);
        let not_type = g.triples()[0].p;
        assert!(Graph::from_indexed_parts(dict, not_type, triples, bp, og, te).is_err());

        // rdf:type out of dictionary range.
        assert!(Graph::from_indexed_parts(
            Dictionary::new(),
            TermId(0),
            Vec::new(),
            FxHashMap::default(),
            FxHashMap::default(),
            FxHashMap::default()
        )
        .is_err());
    }

    fn spec_term(id: TermId, dict: &Dictionary) -> Term {
        dict.term(id).clone()
    }

    fn clone_dict(d: &Dictionary) -> Dictionary {
        let mut out = Dictionary::new();
        for (_, term) in d.iter() {
            out.intern(term.clone());
        }
        out
    }
}
