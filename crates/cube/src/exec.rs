//! The per-request execution context every pipeline stage runs under: what
//! PRs 6–8 threaded through the stages one parameter at a time, as one
//! value. See the crate page's "Execution context" section for which form
//! of a stage to call.

use spade_parallel::{Budget, Cancelled};
use spade_telemetry::{Span, SpanCtx, Trace};

/// Budget, span position and thread count of one request (or one
/// whole-pipeline run). Cheap to clone; children share the parent's budget,
/// so a [`Budget::cancel`] on it is seen by every context derived from it.
#[derive(Clone)]
pub struct ExecCtx<'a> {
    /// The request budget, polled at every stage's batch boundaries.
    pub budget: &'a Budget,
    /// Where spans opened on this context attach in the request's trace.
    pub span: SpanCtx,
    /// Worker threads for fan-outs under this context (`0` = all cores,
    /// `1` = serial). A pure latency knob: every fan-out merges in input
    /// order, so results are bit-identical for every value.
    pub threads: usize,
}

impl<'a> ExecCtx<'a> {
    /// A context recording spans at the root of `trace`.
    pub fn traced(budget: &'a Budget, trace: &Trace, threads: usize) -> Self {
        ExecCtx { budget, span: trace.root(), threads }
    }

    /// Runs `f` under a context that never cancels and records no spans —
    /// the adaptor behind every plain (infallible) stage wrapper. The
    /// budget is local to the call, never process-global: its check
    /// counter is a shared atomic, and one instance hammered by unrelated
    /// runs would bounce a cache line between all of them.
    pub fn unbounded<R>(
        threads: usize,
        f: impl FnOnce(&ExecCtx<'_>) -> Result<R, Cancelled>,
    ) -> R {
        let budget = Budget::unlimited();
        f(&ExecCtx { budget: &budget, span: SpanCtx::disabled(), threads })
            .expect("unlimited budget cannot cancel")
    }

    /// Polls the budget: `Ok(())` to continue, `Err(Cancelled)` to unwind.
    pub fn check(&self) -> Result<(), Cancelled> {
        self.budget.check()
    }

    /// Opens a child span with an automatic sibling order key and returns
    /// it with the context whose spans nest under it. Use only where one
    /// thread at a time opens children of this context; parallel fan-outs
    /// use [`ExecCtx::span_at`].
    pub fn span(&self, name: &'static str) -> (Span, ExecCtx<'a>) {
        self.under(self.span.span(name))
    }

    /// [`ExecCtx::span`] with an explicit sibling order key (the item's
    /// input index), making sibling order scheduler-independent.
    pub fn span_at(&self, name: &'static str, index: u64) -> (Span, ExecCtx<'a>) {
        self.under(self.span.span_at(name, index))
    }

    fn under(&self, span: Span) -> (Span, ExecCtx<'a>) {
        let child = ExecCtx { budget: self.budget, span: span.ctx(), threads: self.threads };
        (span, child)
    }

    /// The same context with a different thread count.
    pub fn with_threads(&self, threads: usize) -> ExecCtx<'a> {
        ExecCtx { budget: self.budget, span: self.span.clone(), threads }
    }

    /// Divides the thread count over a nested fan-out of `outer_items`
    /// independent units ([`spade_parallel::split_budget`]): returns the
    /// outer worker count and the context each unit runs under, with
    /// `outer · inner.threads ≤` the resolved thread count and both ≥ 1.
    pub fn split(&self, outer_items: usize) -> (usize, ExecCtx<'a>) {
        let (outer, inner) = spade_parallel::split_budget(self.threads, outer_items);
        (outer, self.with_threads(inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_sees_parent_cancel() {
        let budget = Budget::unlimited();
        let trace = Trace::new();
        let cx = ExecCtx::traced(&budget, &trace, 4);
        let (_span, child) = cx.span("stage");
        let (_, inner) = child.split(2);
        inner.check().unwrap();
        cx.budget.cancel();
        assert!(child.check().is_err());
        assert!(inner.check().is_err());
        assert!(cx.with_threads(1).check().is_err());
    }

    #[test]
    fn split_never_oversubscribes() {
        let budget = Budget::unlimited();
        for threads in [1usize, 2, 3, 8, 16] {
            let cx = ExecCtx { budget: &budget, span: SpanCtx::disabled(), threads };
            for items in [0usize, 1, 2, 5, 100] {
                let (outer, inner) = cx.split(items);
                assert!(outer >= 1 && inner.threads >= 1);
                assert!(outer * inner.threads <= threads, "{threads} over {items}");
            }
        }
    }

    #[test]
    fn span_at_children_keep_index_order() {
        let budget = Budget::unlimited();
        let trace = Trace::new();
        let cx = ExecCtx::traced(&budget, &trace, 1);
        let (stage, scx) = cx.span("stage");
        // Scheduler-dependent creation order; each child nests one span.
        for i in [2u64, 0, 1] {
            let (_item, icx) = scx.span_at("item", i);
            let _ = icx.span(["zero", "one", "two"][i as usize]);
        }
        let _ = scx.span("tail");
        stage.finish();
        assert_eq!(trace.shape(), "stage(item(zero;);item(one;);item(two;);tail;);");
    }

    #[test]
    fn unbounded_never_errs() {
        let checks = ExecCtx::unbounded(3, |cx| {
            assert_eq!(cx.threads, 3);
            assert!(!cx.span.enabled());
            let (_span, child) = cx.span_at("x", 7);
            for _ in 0..1000 {
                child.check()?;
            }
            Ok(cx.budget.checks())
        });
        assert_eq!(checks, 1000);
    }
}
