//! The original serial MVDCube evaluation engine, preserved verbatim as a
//! performance baseline.
//!
//! This is the pre-optimization implementation: cube memory is a
//! triple-nested `HashMap<node, HashMap<region, HashMap<cell, Bitmap>>>`
//! (hashing on every cell touch), parent cells are *cloned* into every MMST
//! child, and measure computation walks the per-fact pre-aggregates one
//! fact at a time. The optimized engine behind [`crate::mvd_cube`] replaces all
//! three; this one is the oracle every op of the pinned benchmark's
//! `cube_dense` workload is checked against, and the property tests' second
//! reference implementation.
//!
//! Do not extend this module — it exists to stay *unchanged*.

use crate::lattice::Lattice;
use crate::result::{CubeResult, Group, NodeResult};
use crate::spec::{CubeSpec, MdaKind};
use crate::translate::{strides_for, Translation};
use spade_bitmap::Bitmap;
use std::collections::HashMap;

/// Per-node geometry: dims, their domains, cell strides, chunk geometry.
struct NodeGeom {
    dims: Vec<usize>,
    domains: Vec<u64>,
    strides: Vec<u64>,
    region_strides: Vec<u64>,
}

impl NodeGeom {
    fn decode(&self, cell_idx: u64) -> Vec<u32> {
        self.strides
            .iter()
            .zip(&self.domains)
            .map(|(&s, &d)| {
                let code = (cell_idx / s) % d;
                if code == d - 1 {
                    crate::result::NULL_CODE
                } else {
                    code as u32
                }
            })
            .collect()
    }
}

struct Projection {
    child_mask: u32,
    cell_d: u64,
    cell_below: u64,
    region_d: u64,
    region_below: u64,
}

fn node_geom(lattice: &Lattice, mask: u32) -> NodeGeom {
    let dims = lattice.dims_of(mask);
    let domains32: Vec<u32> = dims.iter().map(|&i| lattice.domains[i]).collect();
    let n_chunks_all = lattice.n_chunks();
    let chunks: Vec<u32> = dims.iter().map(|&i| n_chunks_all[i]).collect();
    NodeGeom {
        strides: strides_for(&domains32),
        domains: domains32.iter().map(|&d| d as u64).collect(),
        region_strides: strides_for(&chunks),
        dims,
    }
}

#[inline]
fn project(idx: u64, d: u64, below: u64) -> u64 {
    (idx / (d * below)) * below + idx % below
}

/// The historical per-fact measure computation (one pre-aggregate lookup
/// per fact per measure, interleaved).
fn emit_cell(
    spec: &CubeSpec<'_>,
    mdas: &[crate::spec::Mda],
    cell: &Bitmap,
    alive: &[bool],
) -> Vec<Option<f64>> {
    let n_measures = spec.measures.len();
    let mut counts = vec![0u64; n_measures];
    let mut sums = vec![0.0f64; n_measures];
    let mut lows = vec![f64::INFINITY; n_measures];
    let mut highs = vec![f64::NEG_INFINITY; n_measures];
    let mut facts = 0u64;
    let mut needed = vec![false; n_measures];
    for (mda, &is_alive) in mdas.iter().zip(alive) {
        if let (MdaKind::Measure { measure, .. }, true) = (&mda.kind, is_alive) {
            needed[*measure] = true;
        }
    }
    let needed_measures: Vec<usize> = (0..n_measures).filter(|&m| needed[m]).collect();
    for fact in cell.iter() {
        facts += 1;
        if needed_measures.is_empty() {
            continue;
        }
        let fact = spade_storage::FactId(fact);
        for &mi in &needed_measures {
            let m = &spec.measures[mi];
            let c = m.preagg.count(fact);
            if c == 0 {
                continue;
            }
            counts[mi] += c as u64;
            sums[mi] += m.preagg.sum(fact);
            lows[mi] = lows[mi].min(m.preagg.min(fact).unwrap());
            highs[mi] = highs[mi].max(m.preagg.max(fact).unwrap());
        }
    }
    mdas.iter()
        .zip(alive)
        .map(|(mda, &is_alive)| {
            if !is_alive {
                return None;
            }
            match mda.kind {
                MdaKind::FactCount => Some(facts as f64),
                MdaKind::Measure { measure, agg } => {
                    if counts[measure] == 0 {
                        return None;
                    }
                    Some(match agg {
                        spade_storage::AggFn::Count => counts[measure] as f64,
                        spade_storage::AggFn::Sum => sums[measure],
                        spade_storage::AggFn::Avg => sums[measure] / counts[measure] as f64,
                        spade_storage::AggFn::Min => lows[measure],
                        spade_storage::AggFn::Max => highs[measure],
                    })
                }
            }
        })
        .collect()
}

/// Engine state during one evaluation.
struct Engine<'a, 'b> {
    spec: &'a CubeSpec<'b>,
    mdas: Vec<crate::spec::Mda>,
    geoms: HashMap<u32, NodeGeom>,
    projections: HashMap<u32, Vec<Projection>>,
    /// node → region → cell → payload (the nested-HashMap memory).
    memory: HashMap<u32, HashMap<u64, HashMap<u64, Bitmap>>>,
    pending: HashMap<u32, HashMap<u64, u64>>,
    region_totals: HashMap<u32, HashMap<u64, u64>>,
    alive: HashMap<u32, Vec<bool>>,
    keep: HashMap<u32, bool>,
    /// node → its emitted `(key, values)` groups.
    groups: HashMap<u32, Vec<Group>>,
}

impl<'a, 'b> Engine<'a, 'b> {
    fn flush(&mut self, mask: u32, region: u64, cells: HashMap<u64, Bitmap>) {
        if self.alive[&mask].iter().any(|&a| a) {
            let geom = &self.geoms[&mask];
            let mut emitted: Vec<(Vec<u32>, Vec<Option<f64>>)> =
                Vec::with_capacity(cells.len());
            for (&cell_idx, cell) in &cells {
                let key = geom.decode(cell_idx);
                let values = emit_cell(self.spec, &self.mdas, cell, &self.alive[&mask]);
                emitted.push((key, values));
            }
            self.groups.entry(mask).or_default().extend(emitted);
        }

        let coverage = self.region_totals[&mask][&region];
        let n_projs = self.projections.get(&mask).map_or(0, Vec::len);
        for pi in 0..n_projs {
            let (child, cell_d, cell_below, region_d, region_below) = {
                let p = &self.projections[&mask][pi];
                (p.child_mask, p.cell_d, p.cell_below, p.region_d, p.region_below)
            };
            if !self.keep[&child] {
                continue;
            }
            let child_region = project(region, region_d, region_below);
            let child_mem =
                self.memory.get_mut(&child).unwrap().entry(child_region).or_default();
            for (&cell_idx, cell) in &cells {
                let child_idx = project(cell_idx, cell_d, cell_below);
                match child_mem.get_mut(&child_idx) {
                    Some(existing) => existing.union_with(cell),
                    None => {
                        child_mem.insert(child_idx, cell.clone());
                    }
                }
            }
            let total = self.region_totals[&child][&child_region];
            let pending =
                self.pending.get_mut(&child).unwrap().entry(child_region).or_insert(total);
            *pending = pending.saturating_sub(coverage);
            if *pending == 0 {
                self.pending.get_mut(&child).unwrap().remove(&child_region);
                let child_cells = self
                    .memory
                    .get_mut(&child)
                    .unwrap()
                    .remove(&child_region)
                    .unwrap_or_default();
                self.flush(child, child_region, child_cells);
            }
        }
    }
}

/// Runs the original nested-HashMap engine over a translation (MVDCube
/// algebra only). Baseline for benchmarks and property tests.
pub(crate) fn run_engine_baseline(
    spec: &CubeSpec<'_>,
    lattice: &Lattice,
    translation: &Translation,
    alive: Option<&HashMap<u32, Vec<bool>>>,
) -> CubeResult {
    let mmst = lattice.mmst();
    let mdas = spec.mdas();
    let n_mdas = mdas.len();
    let labels = mdas.iter().map(|m| m.label.clone()).collect();

    let mut geoms = HashMap::new();
    for mask in lattice.nodes() {
        geoms.insert(mask, node_geom(lattice, mask));
    }
    let n_chunks = lattice.n_chunks();
    let mut projections: HashMap<u32, Vec<Projection>> = HashMap::new();
    for mask in lattice.nodes() {
        let parent_dims = &geoms[&mask].dims;
        let projs: Vec<Projection> = mmst
            .children_of(mask)
            .iter()
            .map(|&child| {
                let dropped = mmst.parent[&child].1;
                let pos = parent_dims.iter().position(|&d| d == dropped).unwrap();
                let cell_below: u64 =
                    parent_dims[pos + 1..].iter().map(|&i| lattice.domains[i] as u64).product();
                let region_below: u64 =
                    parent_dims[pos + 1..].iter().map(|&i| n_chunks[i] as u64).product();
                Projection {
                    child_mask: child,
                    cell_d: lattice.domains[dropped] as u64,
                    cell_below,
                    region_d: n_chunks[dropped] as u64,
                    region_below,
                }
            })
            .collect();
        if !projs.is_empty() {
            projections.insert(mask, projs);
        }
    }

    let alive_map: HashMap<u32, Vec<bool>> = lattice
        .nodes()
        .iter()
        .map(|&m| {
            let flags =
                alive.and_then(|a| a.get(&m).cloned()).unwrap_or_else(|| vec![true; n_mdas]);
            assert_eq!(flags.len(), n_mdas);
            (m, flags)
        })
        .collect();
    let mut keep: HashMap<u32, bool> = HashMap::new();
    for &mask in mmst.topological().iter().rev() {
        let self_alive = alive_map[&mask].iter().any(|&a| a);
        let child_alive = mmst.children_of(mask).iter().any(|c| keep[c]);
        keep.insert(mask, self_alive || child_alive);
    }

    let root = lattice.root_mask();
    let region_strides = strides_for(&n_chunks);
    let mut region_totals: HashMap<u32, HashMap<u64, u64>> =
        lattice.nodes().iter().map(|&m| (m, HashMap::new())).collect();
    for partition in &translation.partitions {
        for mask in lattice.nodes() {
            let geom = &geoms[&mask];
            let region: u64 = geom
                .dims
                .iter()
                .zip(&geom.region_strides)
                .map(|(&d, &s)| partition.coords[d] as u64 * s)
                .sum();
            *region_totals.get_mut(&mask).unwrap().entry(region).or_insert(0) += 1;
        }
    }
    let mut engine = Engine {
        spec,
        mdas,
        memory: lattice.nodes().iter().map(|&m| (m, HashMap::new())).collect(),
        pending: lattice.nodes().iter().map(|&m| (m, HashMap::new())).collect(),
        geoms,
        projections,
        alive: alive_map,
        keep,
        region_totals,
        groups: HashMap::new(),
    };
    let mut result = CubeResult::new(labels);
    if !engine.keep[&root] {
        return result;
    }
    for partition in &translation.partitions {
        let cells: HashMap<u64, Bitmap> =
            partition.cells.iter().map(|(idx, facts)| (*idx, facts.clone())).collect();
        let region: u64 =
            partition.coords.iter().zip(&region_strides).map(|(&c, &s)| c as u64 * s).sum();
        engine.flush(root, region, cells);
    }
    for (mask, groups) in engine.groups {
        let node = NodeResult::from_groups(mask, &lattice.domains, n_mdas, groups);
        result.nodes.insert(mask, node);
    }
    result
}

/// Full-lattice MVDCube evaluation on the baseline engine.
pub fn mvd_cube_baseline(
    spec: &CubeSpec<'_>,
    options: &crate::mvdcube::MvdCubeOptions,
) -> CubeResult {
    let (lattice, translation) = crate::mvdcube::prepare(spec, options, None);
    run_engine_baseline(spec, &lattice, &translation, None)
}
