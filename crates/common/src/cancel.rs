//! Cooperative cancellation and per-query deadlines.
//!
//! Long-running searches (KTG is NP-hard) need a bounded-latency story:
//! a caller sets a wall-clock budget, the solver checks it at a coarse
//! stride inside its hot loop, and on expiry the search stops and
//! returns its best-so-far **anytime** answer tagged as degraded. The
//! pieces:
//!
//! * [`CancelToken`] — a cheaply-cloneable shared flag with an optional
//!   deadline. Workers call [`CancelToken::poll`] every few hundred
//!   nodes (reading the clock) and [`CancelToken::is_cancelled`] in
//!   between (a single relaxed atomic load).
//! * [`CompletionStatus`] / [`DegradeReason`] — the structured tag that
//!   travels with every outcome: `Exact` answers are the full optimum,
//!   `Degraded` answers are valid (they pass the checked-mode result
//!   audit) but possibly suboptimal.
//!
//! This module is the **only** place outside the bench harness where
//! lib code may read the wall clock: the ktg-lint L4 nondeterminism
//! pass allowlists exactly this file. That is sound because every
//! clock read here is *openly* nondeterministic — whenever a deadline
//! actually changes an answer, the answer is flagged `Degraded` (an
//! `Exact` answer is byte-identical to a run with no deadline at all),
//! and a [`Stopwatch`] only feeds *measurement* (server latency
//! stats), never result-bearing control flow.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a search stopped short of proving optimality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The per-query wall-clock deadline expired.
    Deadline,
    /// The node budget (`BbOptions::node_budget`) was exhausted.
    NodeBudget,
    /// The token was cancelled explicitly (e.g. session shutdown).
    Cancelled,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::Deadline => write!(f, "deadline"),
            DegradeReason::NodeBudget => write!(f, "node-budget"),
            DegradeReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Whether an outcome is the proven optimum or an anytime best-so-far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionStatus {
    /// The search ran to completion; the answer is the exact optimum
    /// under the paper's ordering and is deterministic.
    Exact,
    /// The search stopped early; the answer holds the best groups found
    /// so far. Every group is still *valid* (size, tenuity, coverage,
    /// ordering all hold), it just may not be optimal.
    Degraded(DegradeReason),
}

impl CompletionStatus {
    /// `true` for [`CompletionStatus::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, CompletionStatus::Exact)
    }
}

impl fmt::Display for CompletionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionStatus::Exact => write!(f, "exact"),
            CompletionStatus::Degraded(reason) => write!(f, "degraded({reason})"),
        }
    }
}

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Reason recorded by whichever path fired first; readers only look
    /// at it after observing `cancelled == true`.
    deadline_fired: AtomicBool,
    deadline: Option<Instant>,
}

/// A cooperative cancellation flag with an optional wall-clock deadline.
///
/// Clones share the same underlying flag, so one token can be handed to
/// every worker of a parallel search and fired once for all of them.
/// The token is purely cooperative: nothing is interrupted, workers
/// observe the flag at their next check and unwind normally, leaving
/// best-so-far results intact.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

/// How many search nodes a worker expands between wall-clock reads.
/// In between it only performs a relaxed atomic load, so the deadline
/// machinery costs nothing measurable on the hot path.
pub const POLL_STRIDE: u64 = 512;

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::build(None)
    }

    /// A token that fires once `budget` has elapsed from now.
    pub fn with_deadline(budget: Duration) -> Self {
        CancelToken::build(Some(Instant::now() + budget))
    }

    /// A token that fires once `ms` milliseconds have elapsed from now.
    /// `ms == 0` yields an already-expired deadline, which is useful for
    /// deterministic degradation tests: the first poll fires it.
    pub fn with_deadline_ms(ms: u64) -> Self {
        CancelToken::with_deadline(Duration::from_millis(ms))
    }

    /// `Some(token)` when `deadline_ms` is set, `None` otherwise —
    /// the shape option structs carry deadlines in.
    pub fn for_deadline_ms(deadline_ms: Option<u64>) -> Option<Self> {
        deadline_ms.map(CancelToken::with_deadline_ms)
    }

    fn build(deadline: Option<Instant>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_fired: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// Fires the token explicitly ([`DegradeReason::Cancelled`] unless
    /// the deadline already fired).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Cheap check (one relaxed load): has the token fired?
    ///
    /// Does **not** read the clock — a deadline is only noticed by
    /// [`CancelToken::poll`]. Use this between polls.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Full check: reads the wall clock, fires the token if the
    /// deadline has passed, and returns whether the token has fired.
    /// Call this once every [`POLL_STRIDE`] units of work.
    pub fn poll(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.inner.deadline_fired.store(true, Ordering::Relaxed);
                self.inner.cancelled.store(true, Ordering::Release);
                return true;
            }
        }
        false
    }

    /// Why the token fired, or `None` if it has not fired.
    pub fn reason(&self) -> Option<DegradeReason> {
        if !self.is_cancelled() {
            return None;
        }
        if self.inner.deadline_fired.load(Ordering::Relaxed) {
            Some(DegradeReason::Deadline)
        } else {
            Some(DegradeReason::Cancelled)
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// A monotonic elapsed-time measurer for *instrumentation* (the network
/// server's latency histogram, cache-stat reporting).
///
/// It lives in this module because the L4 nondeterminism lint allowlists
/// exactly this file for clock reads. The soundness argument is the same
/// as for deadlines: a `Stopwatch` reading is reported, never branched
/// on, so answers stay byte-deterministic no matter what the clock says.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturating at
    /// `u64::MAX` (584 years — in practice never).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Wall time elapsed since [`Stopwatch::start`], for build-stats
    /// reporting (the `Duration`-typed sibling of
    /// [`Stopwatch::elapsed_nanos`]).
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.poll());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn explicit_cancel_fires_all_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.reason(), Some(DegradeReason::Cancelled));
    }

    #[test]
    fn expired_deadline_fires_on_poll_not_on_load() {
        let t = CancelToken::with_deadline_ms(0);
        // `is_cancelled` never reads the clock, so the token looks live
        // until someone polls it.
        assert!(!t.is_cancelled());
        assert!(t.poll());
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(DegradeReason::Deadline));
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.poll());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn for_deadline_ms_maps_option() {
        assert!(CancelToken::for_deadline_ms(None).is_none());
        let t = CancelToken::for_deadline_ms(Some(0)).expect("some");
        assert!(t.poll());
    }

    #[test]
    fn stopwatch_is_monotone_nondecreasing() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a, "elapsed must not go backwards ({a} then {b})");
    }

    #[test]
    fn status_display_and_accessors() {
        assert_eq!(CompletionStatus::Exact.to_string(), "exact");
        assert!(CompletionStatus::Exact.is_exact());
        let d = CompletionStatus::Degraded(DegradeReason::Deadline);
        assert_eq!(d.to_string(), "degraded(deadline)");
        assert!(!d.is_exact());
        assert_eq!(
            CompletionStatus::Degraded(DegradeReason::NodeBudget).to_string(),
            "degraded(node-budget)"
        );
        assert_eq!(
            CompletionStatus::Degraded(DegradeReason::Cancelled).to_string(),
            "degraded(cancelled)"
        );
    }
}
