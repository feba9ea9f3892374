//! Admission control: shed over-budget work *before* it starts.
//!
//! The queue bound in [`crate::server`] protects the worker pool from too
//! many *connections*; it says nothing about how expensive each admitted
//! request is. One unfiltered full-graph exploration can cost as much as a
//! thousand narrow ones, so under saturation the right thing to refuse is
//! *estimated work*, not request count. The controller here keeps a running
//! sum of the cost estimates of in-flight explorations and sheds (503 +
//! `Retry-After`) any request that would push the sum past a configured
//! capacity — the shed is instant, so clients learn to back off while the
//! admitted requests keep their latency.
//!
//! Cost is estimated from the snapshot's offline statistics, which the
//! server already holds in memory: no per-request I/O, just arithmetic on
//! counts the offline phase computed once.

use spade_core::{OfflineState, RequestConfig, SpadeConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Estimated cost of one exploration, in abstract work units (roughly
/// "triples scanned").
///
/// The estimate is deliberately crude — a product of the factors that
/// dominate the online pipeline:
///
/// * `triples` — every CFS analysis re-scans the members' outgoing edges,
///   so total work scales with graph size;
/// * `cfs_breadth` — how many candidate fact sets step 1 will hand to steps
///   2–4: a non-empty `cfs_filter` typically selects a handful, otherwise
///   assume the configured `max_cfs` cap (bounded, so one estimate can't
///   explode);
/// * `support_factor` — lower `min_support` keeps more attributes and
///   lattice roots alive through steps 2–3, multiplying the cube work.
///
/// This is a plug-in point: a finer model (e.g. cardinality-based estimates
/// in the style of RDF summarization work) only needs to replace this
/// function — the controller consumes opaque `u64` units.
pub fn estimate_cost(state: &OfflineState, base: &SpadeConfig, request: &RequestConfig) -> u64 {
    let config = request.apply(base);
    let triples = state.graph.len() as u64;
    let cfs_breadth =
        if config.cfs_filter.is_empty() { config.max_cfs.min(8) as u64 + 2 } else { 2 };
    let support_factor = 1 + ((1.0 - config.min_support).max(0.0) * 3.0).round() as u64;
    triples.max(1) * cfs_breadth * support_factor
}

/// Token-bucket-without-refill over in-flight cost: admission succeeds while
/// `inflight + cost ≤ capacity`; the permit returns its cost on drop.
///
/// `capacity == 0` disables shedding (every request admitted, nothing
/// tracked against the limit — the gauge still counts in-flight cost).
///
/// Capacity is an atomic so the `--admission-capacity auto` closed loop can
/// retarget it from the observed cost profile while requests are in flight;
/// a resize never disturbs already-admitted work (permits release exactly
/// what they took).
#[derive(Debug)]
pub(crate) struct AdmissionController {
    capacity: AtomicU64,
    inflight: AtomicU64,
}

impl AdmissionController {
    /// A controller shedding above `capacity` work units (0 = never shed).
    pub(crate) fn new(capacity: u64) -> AdmissionController {
        AdmissionController { capacity: AtomicU64::new(capacity), inflight: AtomicU64::new(0) }
    }

    /// The current capacity (0 = unlimited).
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Retargets the capacity (the `auto` adaptation loop). Takes effect
    /// for the next admission decision; in-flight permits are untouched.
    pub(crate) fn set_capacity(&self, capacity: u64) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Cost currently admitted and not yet released.
    pub(crate) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Tries to admit `cost` units; `None` means shed. The returned permit
    /// releases the units when dropped, so every exit path (success, panic
    /// caught at the route boundary, cancellation) gives the capacity back.
    pub(crate) fn try_admit(&self, cost: u64) -> Option<AdmissionPermit<'_>> {
        let capacity = self.capacity();
        if capacity == 0 {
            self.inflight.fetch_add(cost, Ordering::Relaxed);
            return Some(AdmissionPermit { controller: self, cost });
        }
        let admitted = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                let total = current.saturating_add(cost);
                (total <= capacity).then_some(total)
            })
            .is_ok();
        // `then`, not `then_some`: the permit must only exist (and its
        // releasing Drop only run) when admission actually succeeded.
        admitted.then(|| AdmissionPermit { controller: self, cost })
    }
}

/// RAII receipt for admitted work; dropping it releases the cost.
#[derive(Debug)]
pub(crate) struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
    cost: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.controller.inflight.fetch_sub(self.cost, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_until_capacity_and_releases_on_drop() {
        let c = AdmissionController::new(100);
        let a = c.try_admit(60).expect("fits");
        assert_eq!(c.inflight(), 60);
        assert!(c.try_admit(50).is_none(), "60 + 50 > 100 must shed");
        let b = c.try_admit(40).expect("exactly fills");
        assert_eq!(c.inflight(), 100);
        drop(a);
        assert_eq!(c.inflight(), 40);
        drop(b);
        assert_eq!(c.inflight(), 0);
        assert!(c.try_admit(100).is_some(), "capacity is inclusive");
    }

    #[test]
    fn zero_capacity_always_admits_but_still_gauges() {
        let c = AdmissionController::new(0);
        let a = c.try_admit(u64::MAX / 2).expect("never shed");
        let b = c.try_admit(u64::MAX / 2).expect("never shed");
        assert_eq!(c.inflight(), u64::MAX / 2 * 2);
        drop((a, b));
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn set_capacity_retargets_without_touching_inflight() {
        let c = AdmissionController::new(50);
        let permit = c.try_admit(40).expect("fits");
        assert!(c.try_admit(40).is_none(), "40 + 40 > 50");
        c.set_capacity(100);
        assert_eq!(c.capacity(), 100);
        let second = c.try_admit(40).expect("fits after the resize");
        assert_eq!(c.inflight(), 80);
        // Shrinking below the in-flight sum sheds new work but never
        // invalidates held permits.
        c.set_capacity(10);
        assert!(c.try_admit(1).is_none());
        drop((permit, second));
        assert_eq!(c.inflight(), 0);
        assert!(c.try_admit(10).is_some());
    }

    #[test]
    fn oversized_request_cannot_deadlock_the_controller() {
        let c = AdmissionController::new(10);
        assert!(c.try_admit(11).is_none(), "larger than capacity is always shed");
        // ... and smaller work still flows.
        assert!(c.try_admit(10).is_some());
    }
}
