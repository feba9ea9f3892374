//! RDFS ontology saturation.
//!
//! Section 2 of the paper: "An ontology leads to implicit triples that
//! together with the triples explicitly present in G are the graph's
//! semantics. All the implicit triples can be materialized via saturation,
//! iteratively deriving new ones from G and the rules; we consider ontologies
//! for which this process is finite as in [23], and apply it prior to our
//! analysis."
//!
//! We implement the four core RDFS entailment rules used in [23]
//! (Goasdoué et al., EDBT 2013):
//!
//! 1. `(s rdf:type C), (C rdfs:subClassOf D) ⊢ (s rdf:type D)`
//! 2. `(s p o), (p rdfs:subPropertyOf q) ⊢ (s q o)`
//! 3. `(s p o), (p rdfs:domain C) ⊢ (s rdf:type C)`
//! 4. `(s p o), (p rdfs:range C) ⊢ (o rdf:type C)`
//!
//! plus transitivity of `subClassOf` / `subPropertyOf`.
//!
//! # Semi-naive evaluation
//!
//! The old engine ([`saturate_baseline`]) re-scanned *every* triple each
//! round with a per-candidate `contains` probe, so a subclass chain of depth
//! *d* cost *d + 1* full passes. [`saturate`] instead closes the (small)
//! schema first — transitive reachability over `subClassOf` /
//! `subPropertyOf`, and per-property effective domain/range type sets that
//! already include superproperty inheritance and superclass expansion — and
//! then derives everything in **one parallel pass** over the data triples.
//! Workers emit into per-chunk buffers (chunk boundaries depend only on the
//! data, not the thread count); the buffers are concatenated in chunk order,
//! sort+deduplicated, diffed against the graph, and bulk-inserted in sorted
//! order — no per-triple `contains` during derivation. The outer loop only
//! repeats when a derived triple *changes the schema itself* (e.g. a data
//! property declared `rdfs:subPropertyOf` of an RDFS property), which real
//! ontologies essentially never do; the common case is exactly one pass.
//!
//! Output equivalence with the fixpoint baseline (same final triple set,
//! same derivation count) is pinned by the tests below and by
//! `crates/rdf/tests/ingest_prop.rs`; determinism across thread counts
//! follows from the fixed chunking and the sorted merge.

use crate::dict::TermId;
use crate::graph::{Graph, Triple};
use crate::vocab;
use std::collections::HashMap;

/// Saturates `graph` in place with semi-naive evaluation on all cores and
/// returns the number of derived triples.
pub fn saturate(graph: &mut Graph) -> usize {
    saturate_with_threads(graph, 0)
}

/// [`saturate`] with an explicit thread count (`0` = all cores). The result
/// — triple set *and* insertion order of derivations — is identical for
/// every thread count.
pub fn saturate_with_threads(graph: &mut Graph, threads: usize) -> usize {
    let sub_class = graph.dict.intern_iri(vocab::RDFS_SUBCLASSOF);
    let sub_prop = graph.dict.intern_iri(vocab::RDFS_SUBPROPERTYOF);
    let domain = graph.dict.intern_iri(vocab::RDFS_DOMAIN);
    let range = graph.dict.intern_iri(vocab::RDFS_RANGE);
    let rdf_type = graph.rdf_type_id();

    let mut total = 0usize;
    loop {
        // ---- Phase 1: close the schema (small: O(classes · edges)). ----
        let sc_reach = reachability(graph.property_pairs(sub_class));
        let sp_reach = reachability(graph.property_pairs(sub_prop));
        let dom_map = edge_map(graph.property_pairs(domain));
        let rng_map = edge_map(graph.property_pairs(range));

        // Per-property derivation plan: superproperties, and the full type
        // sets its subjects/objects gain (domains/ranges of the property
        // and all its superproperties, expanded up the subclass closure).
        struct Plan {
            supers: Vec<TermId>,
            subj_types: Vec<TermId>,
            obj_types: Vec<TermId>,
        }
        let mut plans: HashMap<TermId, Plan> = HashMap::new();
        let relevant: Vec<TermId> = {
            let mut v: Vec<TermId> =
                sp_reach.keys().chain(dom_map.keys()).chain(rng_map.keys()).copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        for p in relevant {
            let supers = sp_reach.get(&p).cloned().unwrap_or_default();
            let mut subj_types = Vec::new();
            let mut obj_types = Vec::new();
            for q in std::iter::once(p).chain(supers.iter().copied()) {
                for (declared, types) in
                    [(&dom_map, &mut subj_types), (&rng_map, &mut obj_types)]
                {
                    if let Some(classes) = declared.get(&q) {
                        for &c in classes {
                            types.push(c);
                            if let Some(ups) = sc_reach.get(&c) {
                                types.extend(ups);
                            }
                        }
                    }
                }
            }
            subj_types.sort_unstable();
            subj_types.dedup();
            obj_types.sort_unstable();
            obj_types.dedup();
            plans.insert(p, Plan { supers, subj_types, obj_types });
        }

        // ---- Phase 2: one parallel pass over the data triples. ----
        // Chunk boundaries depend only on the triple count, and outputs are
        // merged in chunk order, so any thread count derives the same list.
        let graph_ref: &Graph = graph;
        let triples = graph_ref.triples();
        let ranges = spade_parallel::chunk_ranges(triples.len(), 1 << 14);
        let chunk_outs: Vec<Vec<Triple>> = spade_parallel::map(ranges, threads, |(a, b)| {
            // Everything one non-type triple (s, p, o) entails through p's
            // plan: superproperty copies (with class expansion when the
            // superproperty is rdf:type itself), subject types, object
            // types. Plans are closed over superproperty chains, so one
            // application per triple suffices.
            let emit_plan = |s: TermId, o: TermId, plan: &Plan, out: &mut Vec<Triple>| {
                for &q in &plan.supers {
                    out.push(Triple { s, p: q, o });
                    // A derived rdf:type edge must itself flow up the class
                    // hierarchy (the baseline reaches it in a later round).
                    if q == rdf_type {
                        if let Some(ups) = sc_reach.get(&o) {
                            out.extend(ups.iter().map(|&d| Triple { s, p: rdf_type, o: d }));
                        }
                    }
                }
                out.extend(plan.subj_types.iter().map(|&c| Triple { s, p: rdf_type, o: c }));
                // Literals cannot be typed; only resources gain types.
                if !plan.obj_types.is_empty() && graph_ref.dict.term(o).is_resource() {
                    out.extend(plan.obj_types.iter().map(|&c| Triple {
                        s: o,
                        p: rdf_type,
                        o: c,
                    }));
                }
            };
            let mut out = Vec::new();
            for &Triple { s, p, o } in &triples[a..b] {
                if p == rdf_type {
                    if let Some(ups) = sc_reach.get(&o) {
                        out.extend(ups.iter().map(|&d| Triple { s, p: rdf_type, o: d }));
                    }
                    continue;
                }
                if let Some(plan) = plans.get(&p) {
                    emit_plan(s, o, plan, &mut out);
                }
                // Transitivity of the schema relations themselves. The
                // derived closure edges are schema triples in their own
                // right, so rdfs:subClassOf / rdfs:subPropertyOf's *own*
                // plan (they can carry superproperties, domains, ranges)
                // applies to them too — the baseline reaches those via
                // later rounds.
                if p == sub_class {
                    if let Some(reach) = sc_reach.get(&o) {
                        for &d in reach.iter().filter(|&&d| d != s) {
                            out.push(Triple { s, p: sub_class, o: d });
                            if let Some(plan) = plans.get(&sub_class) {
                                emit_plan(s, d, plan, &mut out);
                            }
                        }
                    }
                } else if p == sub_prop {
                    if let Some(reach) = sp_reach.get(&o) {
                        for &q in reach.iter().filter(|&&q| q != s) {
                            out.push(Triple { s, p: sub_prop, o: q });
                            if let Some(plan) = plans.get(&sub_prop) {
                                emit_plan(s, q, plan, &mut out);
                            }
                        }
                    }
                }
            }
            out
        });

        // ---- Phase 3: sorted merge, diff, bulk insert. ----
        let mut derived: Vec<Triple> =
            Vec::with_capacity(chunk_outs.iter().map(Vec::len).sum());
        for chunk in chunk_outs {
            derived.extend(chunk);
        }
        let mut derived = spade_parallel::par_sort(derived, threads);
        derived.dedup();

        derived.retain(|t| !graph.contains(t.s, t.p, t.o));
        // A new triple only requires another round when it extends the
        // schema beyond what the closures already account for.
        let mut schema_changed = false;
        for t in &derived {
            if t.p == sub_class {
                schema_changed |= !reaches(&sc_reach, t.s, t.o);
            } else if t.p == sub_prop {
                schema_changed |= !reaches(&sp_reach, t.s, t.o);
            } else if t.p == domain {
                schema_changed |= !edge_in(&dom_map, t.s, t.o);
            } else if t.p == range {
                schema_changed |= !edge_in(&rng_map, t.s, t.o);
            }
        }
        let inserted = graph.insert_batch(&derived);
        debug_assert_eq!(inserted, derived.len());
        total += inserted;
        if inserted == 0 || !schema_changed {
            return total;
        }
    }
}

/// Adjacency map of the given edges, target lists sorted + deduped.
fn edge_map(edges: &[(TermId, TermId)]) -> HashMap<TermId, Vec<TermId>> {
    let mut map: HashMap<TermId, Vec<TermId>> = HashMap::new();
    for &(a, b) in edges {
        map.entry(a).or_default().push(b);
    }
    for targets in map.values_mut() {
        targets.sort_unstable();
        targets.dedup();
    }
    map
}

/// Transitive reachability (≥ 1 edge) over the given edges; each node's
/// reach set is sorted. A node on a cycle reaches itself.
fn reachability(edges: &[(TermId, TermId)]) -> HashMap<TermId, Vec<TermId>> {
    let adj = edge_map(edges);
    let mut out: HashMap<TermId, Vec<TermId>> = HashMap::with_capacity(adj.len());
    let mut visited: std::collections::HashSet<TermId> = std::collections::HashSet::new();
    for (&start, firsts) in &adj {
        visited.clear();
        let mut stack: Vec<TermId> = firsts.clone();
        while let Some(n) = stack.pop() {
            if !visited.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(&n) {
                stack.extend(next.iter().copied());
            }
        }
        let mut reach: Vec<TermId> = visited.iter().copied().collect();
        reach.sort_unstable();
        out.insert(start, reach);
    }
    out
}

fn reaches(reach: &HashMap<TermId, Vec<TermId>>, from: TermId, to: TermId) -> bool {
    reach.get(&from).is_some_and(|r| r.binary_search(&to).is_ok())
}

fn edge_in(map: &HashMap<TermId, Vec<TermId>>, from: TermId, to: TermId) -> bool {
    map.get(&from).is_some_and(|r| r.binary_search(&to).is_ok())
}

/// The preserved fixpoint re-scan engine: every round re-extracts the schema
/// and re-scans all triples with per-candidate `contains` probes. Kept as
/// the benchmark baseline and the oracle for the semi-naive path.
pub fn saturate_baseline(graph: &mut Graph) -> usize {
    let sub_class = graph.dict.intern_iri(vocab::RDFS_SUBCLASSOF);
    let sub_prop = graph.dict.intern_iri(vocab::RDFS_SUBPROPERTYOF);
    let domain = graph.dict.intern_iri(vocab::RDFS_DOMAIN);
    let range = graph.dict.intern_iri(vocab::RDFS_RANGE);
    let rdf_type = graph.rdf_type_id();

    let mut derived = 0usize;
    // Schema triples are few; re-extract at each round (they may themselves
    // grow through subPropertyOf on schema properties, though that is rare).
    loop {
        let mut sub_class_of: HashMap<_, Vec<_>> = HashMap::new();
        for &(c, d) in graph.property_pairs(sub_class) {
            sub_class_of.entry(c).or_default().push(d);
        }
        let mut sub_prop_of: HashMap<_, Vec<_>> = HashMap::new();
        for &(p, q) in graph.property_pairs(sub_prop) {
            sub_prop_of.entry(p).or_default().push(q);
        }
        let mut domains: HashMap<_, Vec<_>> = HashMap::new();
        for &(p, c) in graph.property_pairs(domain) {
            domains.entry(p).or_default().push(c);
        }
        let mut ranges: HashMap<_, Vec<_>> = HashMap::new();
        for &(p, c) in graph.property_pairs(range) {
            ranges.entry(p).or_default().push(c);
        }

        let mut new_triples: Vec<Triple> = Vec::new();
        for &Triple { s, p, o } in graph.triples() {
            if p == rdf_type {
                if let Some(supers) = sub_class_of.get(&o) {
                    for &d in supers {
                        if !graph.contains(s, rdf_type, d) {
                            new_triples.push(Triple { s, p: rdf_type, o: d });
                        }
                    }
                }
            } else {
                if let Some(supers) = sub_prop_of.get(&p) {
                    for &q in supers {
                        if !graph.contains(s, q, o) {
                            new_triples.push(Triple { s, p: q, o });
                        }
                    }
                }
                if let Some(classes) = domains.get(&p) {
                    for &c in classes {
                        if !graph.contains(s, rdf_type, c) {
                            new_triples.push(Triple { s, p: rdf_type, o: c });
                        }
                    }
                }
                if let Some(classes) = ranges.get(&p) {
                    for &c in classes {
                        // Literals cannot be typed; only resources gain types.
                        if graph.dict.term(o).is_resource() && !graph.contains(o, rdf_type, c) {
                            new_triples.push(Triple { s: o, p: rdf_type, o: c });
                        }
                    }
                }
                // Transitivity of the schema relations themselves.
                if p == sub_class {
                    if let Some(supers) = sub_class_of.get(&o) {
                        for &d in supers {
                            if d != s && !graph.contains(s, sub_class, d) {
                                new_triples.push(Triple { s, p: sub_class, o: d });
                            }
                        }
                    }
                }
                if p == sub_prop {
                    if let Some(supers) = sub_prop_of.get(&o) {
                        for &q in supers {
                            if q != s && !graph.contains(s, sub_prop, q) {
                                new_triples.push(Triple { s, p: sub_prop, o: q });
                            }
                        }
                    }
                }
            }
        }

        if new_triples.is_empty() {
            return derived;
        }
        for t in new_triples {
            if graph.insert_ids(t.s, t.p, t.o) {
                derived += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn type_term() -> Term {
        Term::iri(vocab::RDF_TYPE)
    }

    #[test]
    fn subclass_propagates_types() {
        // "any CEO is a BusinessPerson" (the paper's Section 2 example).
        let mut g = Graph::new();
        g.insert(iri("CEO"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("BusinessPerson"));
        g.insert(iri("n1"), type_term(), iri("CEO"));
        let derived = saturate(&mut g);
        assert_eq!(derived, 1);
        let bp = g.dict.id_of(&iri("BusinessPerson")).unwrap();
        assert_eq!(g.nodes_of_type(bp).len(), 1);
    }

    #[test]
    fn subclass_chain_is_transitive() {
        let mut g = Graph::new();
        g.insert(iri("A"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("B"));
        g.insert(iri("B"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("C"));
        g.insert(iri("C"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("D"));
        g.insert(iri("n"), type_term(), iri("A"));
        saturate(&mut g);
        for class in ["B", "C", "D"] {
            let c = g.dict.id_of(&iri(class)).unwrap();
            assert_eq!(g.nodes_of_type(c).len(), 1, "missing type {class}");
        }
    }

    #[test]
    fn subproperty_derives_triples() {
        let mut g = Graph::new();
        g.insert(
            iri("politicalConnection"),
            Term::iri(vocab::RDFS_SUBPROPERTYOF),
            iri("connection"),
        );
        g.insert(iri("n1"), iri("politicalConnection"), iri("n3"));
        saturate(&mut g);
        let conn = g.dict.id_of(&iri("connection")).unwrap();
        assert_eq!(g.property_pairs(conn).len(), 1);
    }

    #[test]
    fn domain_and_range_type_endpoints() {
        let mut g = Graph::new();
        g.insert(iri("manages"), Term::iri(vocab::RDFS_DOMAIN), iri("CEO"));
        g.insert(iri("manages"), Term::iri(vocab::RDFS_RANGE), iri("Company"));
        g.insert(iri("p1"), iri("manages"), iri("c1"));
        saturate(&mut g);
        let ceo = g.dict.id_of(&iri("CEO")).unwrap();
        let company = g.dict.id_of(&iri("Company")).unwrap();
        assert_eq!(g.nodes_of_type(ceo).len(), 1);
        assert_eq!(g.nodes_of_type(company).len(), 1);
    }

    #[test]
    fn range_does_not_type_literals() {
        let mut g = Graph::new();
        g.insert(iri("age"), Term::iri(vocab::RDFS_RANGE), iri("Number"));
        g.insert(iri("p1"), iri("age"), Term::int(47));
        saturate(&mut g);
        let number = g.dict.id_of(&iri("Number")).unwrap();
        assert!(g.nodes_of_type(number).is_empty());
    }

    #[test]
    fn saturation_is_idempotent() {
        let mut g = Graph::new();
        g.insert(iri("A"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("B"));
        g.insert(iri("n"), type_term(), iri("A"));
        let first = saturate(&mut g);
        assert!(first > 0);
        assert_eq!(saturate(&mut g), 0);
    }

    #[test]
    fn combined_rules_fixpoint() {
        // domain introduces a type which then flows up a class chain.
        let mut g = Graph::new();
        g.insert(iri("manages"), Term::iri(vocab::RDFS_DOMAIN), iri("CEO"));
        g.insert(iri("CEO"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("BusinessPerson"));
        g.insert(iri("p1"), iri("manages"), iri("c1"));
        saturate(&mut g);
        let bp = g.dict.id_of(&iri("BusinessPerson")).unwrap();
        assert_eq!(g.nodes_of_type(bp).len(), 1);
    }

    #[test]
    fn subproperty_inherits_domain_and_range() {
        // Derived (s, q, o) must itself trigger domain/range of q.
        let mut g = Graph::new();
        g.insert(iri("hires"), Term::iri(vocab::RDFS_SUBPROPERTYOF), iri("employs"));
        g.insert(iri("employs"), Term::iri(vocab::RDFS_DOMAIN), iri("Employer"));
        g.insert(iri("employs"), Term::iri(vocab::RDFS_RANGE), iri("Employee"));
        g.insert(iri("acme"), iri("hires"), iri("ada"));
        saturate(&mut g);
        let employer = g.dict.id_of(&iri("Employer")).unwrap();
        let employee = g.dict.id_of(&iri("Employee")).unwrap();
        assert_eq!(g.nodes_of_type(employer).len(), 1);
        assert_eq!(g.nodes_of_type(employee).len(), 1);
    }

    #[test]
    fn data_property_below_schema_property_reruns() {
        // A property declared subPropertyOf rdfs:subClassOf turns data
        // triples into schema triples — the outer loop must pick them up.
        let mut g = Graph::new();
        g.insert(
            iri("isKindOf"),
            Term::iri(vocab::RDFS_SUBPROPERTYOF),
            Term::iri(vocab::RDFS_SUBCLASSOF),
        );
        g.insert(iri("Cat"), iri("isKindOf"), iri("Animal"));
        g.insert(iri("felix"), type_term(), iri("Cat"));
        saturate(&mut g);
        let animal = g.dict.id_of(&iri("Animal")).unwrap();
        assert_eq!(g.nodes_of_type(animal).len(), 1, "felix should be an Animal");
    }

    /// Semi-naive and fixpoint agree — triple set and derivation count —
    /// on every fixture above and a subclass/subproperty/domain/range mix.
    #[test]
    fn semi_naive_matches_baseline_on_fixtures() {
        let fixtures: Vec<Vec<(Term, Term, Term)>> = vec![
            vec![
                (iri("CEO"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("BusinessPerson")),
                (iri("n1"), type_term(), iri("CEO")),
            ],
            vec![
                (iri("A"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("B")),
                (iri("B"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("C")),
                (iri("C"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("D")),
                (iri("n"), type_term(), iri("A")),
            ],
            vec![
                (
                    iri("politicalConnection"),
                    Term::iri(vocab::RDFS_SUBPROPERTYOF),
                    iri("connection"),
                ),
                (iri("n1"), iri("politicalConnection"), iri("n3")),
            ],
            vec![
                (iri("manages"), Term::iri(vocab::RDFS_DOMAIN), iri("CEO")),
                (iri("manages"), Term::iri(vocab::RDFS_RANGE), iri("Company")),
                (iri("CEO"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("BusinessPerson")),
                (iri("p1"), iri("manages"), iri("c1")),
                (iri("age"), Term::iri(vocab::RDFS_RANGE), iri("Number")),
                (iri("p1"), iri("age"), Term::int(47)),
            ],
            vec![
                (iri("hires"), Term::iri(vocab::RDFS_SUBPROPERTYOF), iri("employs")),
                (iri("employs"), Term::iri(vocab::RDFS_DOMAIN), iri("Employer")),
                (iri("employs"), Term::iri(vocab::RDFS_RANGE), iri("Employee")),
                (iri("acme"), iri("hires"), iri("ada")),
            ],
            // Cyclic subclass hierarchy.
            vec![
                (iri("A"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("B")),
                (iri("B"), Term::iri(vocab::RDFS_SUBCLASSOF), iri("A")),
                (iri("n"), type_term(), iri("A")),
            ],
            // Schema-changing derivation.
            vec![
                (
                    iri("isKindOf"),
                    Term::iri(vocab::RDFS_SUBPROPERTYOF),
                    Term::iri(vocab::RDFS_SUBCLASSOF),
                ),
                (iri("Cat"), iri("isKindOf"), iri("Animal")),
                (iri("felix"), type_term(), iri("Cat")),
            ],
        ];
        let build = |fixture: &[(Term, Term, Term)]| {
            let mut g = Graph::new();
            for (s, p, o) in fixture {
                g.insert(s.clone(), p.clone(), o.clone());
            }
            g
        };
        for (i, fixture) in fixtures.iter().enumerate() {
            let mut base = build(fixture);
            let n_base = saturate_baseline(&mut base);
            let mut expect: Vec<Triple> = base.triples().to_vec();
            expect.sort_unstable();
            for threads in [1, 2, 8] {
                let mut semi = build(fixture);
                let n = saturate_with_threads(&mut semi, threads);
                assert_eq!(n, n_base, "fixture {i}: derivation count");
                let mut got: Vec<Triple> = semi.triples().to_vec();
                got.sort_unstable();
                assert_eq!(got, expect, "fixture {i}: triple sets differ");
            }
        }
    }
}
