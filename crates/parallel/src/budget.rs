//! Cooperative request budgets: a shared deadline + cancellation flag that
//! long-running pipeline stages poll at their natural batch boundaries.
//!
//! A [`Budget`] is created once per request (or [`Budget::unlimited`] for
//! offline runs) and threaded **by reference** through every stage. Stages
//! call [`Budget::check`] between units of work — per CFS candidate, per
//! early-stop batch, per region-shard chunk flush — and unwind with the
//! typed [`Cancelled`] error when the deadline passed or the request was
//! cancelled. Checks are *observation only*: they never reorder, skip, or
//! otherwise alter any computation, so results stay bit-identical to the
//! budget-less path whenever no cancellation fires (the plan-invariance
//! property the determinism suites pin).
//!
//! The struct also keeps a **periodic check counter** ([`Budget::checks`]):
//! the number of polls performed so far, exposed so servers can reason
//! about cancellation latency (time between expiry and unwind is bounded
//! by the longest gap between two checks).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Why a request was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The deadline passed before the work completed.
    DeadlineExceeded,
    /// [`Budget::cancel`] was called (client gone, shutdown, …).
    Cancelled,
}

/// The typed error a budgeted stage unwinds with. Carries the reason and
/// how many budget checks had run when cancellation was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// Why the work was cut short.
    pub reason: CancelReason,
    /// Value of the check counter at the failing poll.
    pub checks: u64,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            CancelReason::DeadlineExceeded => {
                write!(f, "request deadline exceeded after {} budget checks", self.checks)
            }
            CancelReason::Cancelled => {
                write!(f, "request cancelled after {} budget checks", self.checks)
            }
        }
    }
}

impl std::error::Error for Cancelled {}

/// A shared request budget: optional deadline, cancellation flag, and the
/// periodic check counter. `Sync` by construction — one instance is shared
/// by every worker thread of a request's fan-outs.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
    checks: AtomicU64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never expires and is not cancelled — the offline /
    /// whole-pipeline path. [`Budget::check`] on it always succeeds.
    pub fn unlimited() -> Budget {
        Budget { deadline: None, cancelled: AtomicBool::new(false), checks: AtomicU64::new(0) }
    }

    /// A budget that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Budget {
        Budget::until(Instant::now() + timeout)
    }

    /// A budget that expires at `deadline`.
    pub(crate) fn until(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            cancelled: AtomicBool::new(false),
            checks: AtomicU64::new(0),
        }
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Cancels the budget: every subsequent [`Budget::check`] fails.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the budget is cancelled or past its deadline (does not
    /// count as a check).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Number of [`Budget::check`] polls performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Polls the budget: `Ok(())` to continue, `Err(Cancelled)` to unwind.
    ///
    /// Cheap enough for per-batch granularity (one relaxed atomic add, one
    /// relaxed load, and — only when a deadline exists — one monotonic
    /// clock read); not meant for per-cell hot loops, which should check
    /// at their enclosing chunk boundary instead.
    pub fn check(&self) -> Result<(), Cancelled> {
        let checks = self.checks.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(Cancelled { reason: CancelReason::Cancelled, checks });
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Cancelled { reason: CancelReason::DeadlineExceeded, checks });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_cancels() {
        let b = Budget::unlimited();
        for _ in 0..1000 {
            b.check().unwrap();
        }
        assert_eq!(b.checks(), 1000);
        assert!(!b.is_exhausted());
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn expired_deadline_fails_checks() {
        let b = Budget::with_deadline(Duration::ZERO);
        let e = b.check().unwrap_err();
        assert_eq!(e.reason, CancelReason::DeadlineExceeded);
        assert_eq!(e.checks, 1);
        assert!(b.is_exhausted());
        assert!(e.to_string().contains("deadline"));
    }

    #[test]
    fn future_deadline_allows_checks() {
        let b = Budget::with_deadline(Duration::from_secs(3600));
        b.check().unwrap();
        assert!(!b.is_exhausted());
    }

    #[test]
    fn cancel_flips_every_thread() {
        let b = Budget::unlimited();
        b.check().unwrap();
        b.cancel();
        let e = b.check().unwrap_err();
        assert_eq!(e.reason, CancelReason::Cancelled);
        assert!(b.is_exhausted());
        // Observed from another thread too.
        std::thread::scope(|s| {
            s.spawn(|| assert!(b.check().is_err()));
        });
    }
}
