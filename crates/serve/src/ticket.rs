//! Pollable tuning tickets: the non-blocking half of the serving API.
//!
//! [`crate::TuneService::submit`] returns a [`TuneTicket`] immediately:
//! cache hits (and refusals) come back pre-resolved, misses resolve when
//! the worker pool completes (or fails) the key's single-flight. A
//! ticket can be consumed four ways, freely mixed:
//!
//! * [`TuneTicket::try_get`] -- non-blocking peek;
//! * [`TuneTicket::wait`] -- block the calling thread;
//! * [`TuneTicket::wait_timeout`] -- block, but give up after a bound:
//!   an expired wait resolves *this* ticket to
//!   [`crate::Served::TimedOut`] without touching the flight, which
//!   keeps running for its other waiters and still publishes into the
//!   decision cache;
//! * [`TuneTicket::poll_decision`] / the [`Future`] impl -- register a
//!   [`std::task::Waker`] and get woken on completion, so one OS thread
//!   can multiplex arbitrarily many in-flight queries, and a ticket can
//!   back a real `Future` under any executor without this crate taking
//!   an executor dependency.
//!
//! ## Deadlines
//!
//! [`crate::TuneService::submit_with`] can bake a deadline into the
//! ticket at submission. The deadline is enforced at every consumption
//! point: `wait` blocks only until the deadline, `try_get` and
//! `poll_decision` resolve the ticket to `TimedOut` when observed past
//! it. (No timer thread exists: a parked `poll`er is not *woken* at the
//! deadline -- executors with timers should combine the future with
//! their own sleep, while `wait`/`wait_timeout` enforce the bound in
//! real time.) Expiry is ticket-local and race-free: if the decision
//! lands concurrently with the expiry, the decision wins and is
//! returned.
//!
//! ## Dropping tickets
//!
//! Dropping an unresolved ticket is safe and cheap: the registered
//! waker is discarded *without being woken* and the shared completion
//! cell is freed once the flight fans out. Dropping matters to the
//! flight, though: when **every** ticket of a not-yet-started flight
//! has been dropped, the flight is cancelled through the
//! `(key, FlightId)` path (counted in
//! [`crate::FlightStats::cancelled`]) and the queued job is dropped by
//! the worker pool instead of tuning for an audience of zero.

use crate::admission::TenantSlot;
use crate::batch::{Decision, Served};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Open-ticket gauge shared with the service: how many submitted misses
/// have not resolved yet, plus the high-water mark and the deadline
/// expiry counter. `open` increments at submission, decrements exactly
/// once when the ticket's cell resolves (even if the user-facing handle
/// was dropped earlier).
#[derive(Debug, Default)]
pub(crate) struct OpenTickets {
    open: AtomicU64,
    peak: AtomicU64,
    timed_out: AtomicU64,
}

impl OpenTickets {
    fn opened(&self) {
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn resolved(&self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }

    fn note_timeout(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn timeouts(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }
}

struct CellState {
    decision: Option<Decision>,
    waker: Option<Waker>,
}

/// The shared completion slot behind a pending ticket: the flight's
/// waiter callback resolves it, the ticket handle polls/waits on it.
pub(crate) struct TicketCell {
    state: Mutex<CellState>,
    cv: Condvar,
    gauge: Arc<OpenTickets>,
    /// Admission charge to release when this cell resolves (misses that
    /// went through [`crate::admission::Admission::admit`]).
    tenant: Option<Arc<TenantSlot>>,
}

impl TicketCell {
    pub fn new(gauge: Arc<OpenTickets>, tenant: Option<Arc<TenantSlot>>) -> Self {
        gauge.opened();
        TicketCell {
            state: Mutex::new(CellState {
                decision: None,
                waker: None,
            }),
            cv: Condvar::new(),
            gauge,
            tenant,
        }
    }

    /// Publish the decision: the first resolution wins and returns
    /// `true`; later calls are no-ops returning `false`. The
    /// open-ticket gauge is decremented *before* the decision becomes
    /// observable (a waiter woken by this resolution must not read a
    /// stale gauge); the registered waker fires after the state lock is
    /// released.
    pub fn resolve(&self, decision: Decision) -> bool {
        let waker = {
            let mut state = self.state.lock().expect("ticket poisoned");
            if state.decision.is_some() {
                return false;
            }
            self.gauge.resolved();
            // The tenant's in-flight quota slot frees with the ticket,
            // whatever it resolved to (decision, failure, or expiry).
            if let Some(tenant) = &self.tenant {
                tenant.release();
            }
            state.decision = Some(decision);
            self.cv.notify_all();
            state.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
        true
    }

    /// Resolve this cell as timed out (counting the expiry), unless the
    /// real decision won the race -- either way, return what the ticket
    /// is now resolved to.
    fn expire(&self) -> Decision {
        let timed_out = Decision {
            choice: None,
            served: Served::TimedOut,
        };
        if self.resolve(timed_out.clone()) {
            self.gauge.note_timeout();
            if let Some(tenant) = &self.tenant {
                tenant.note_timeout();
            }
            timed_out
        } else {
            self.state
                .lock()
                .expect("ticket poisoned")
                .decision
                .clone()
                .expect("lost the expiry race to a resolution")
        }
    }
}

/// Called at most once when a pending ticket is dropped before its cell
/// resolved; the service uses it to notify the single-flight table of
/// the lost waiter.
pub(crate) type AbandonHook = Box<dyn FnOnce() + Send>;

enum Repr {
    /// Resolved at submission (cache hit, missing shard): no shared
    /// state, no allocation beyond the decision itself -- the cached-hit
    /// path stays O(1) and lock-free at the ticket layer.
    Ready(Decision),
    Pending {
        cell: Arc<TicketCell>,
        /// Instant past which consuming the ticket yields
        /// [`Served::TimedOut`] (from
        /// [`crate::TuneService::submit_with`]).
        deadline: Option<Instant>,
        /// Fired on drop-before-resolution; see the module docs.
        abandon: Option<AbandonHook>,
    },
}

/// A claim on one tuning decision; see the module docs.
///
/// The ticket is single-owner (not `Clone`): each submitted query
/// position gets its own ticket, and concurrent submissions for the
/// same key coalesce *behind* the tickets in the single-flight table,
/// so N tickets on one contended key still cost exactly one cold tune.
pub struct TuneTicket {
    repr: Repr,
}

impl std::fmt::Debug for TuneTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.repr {
            Repr::Ready(d) => f.debug_struct("TuneTicket").field("ready", d).finish(),
            Repr::Pending { deadline, .. } => f
                .debug_struct("TuneTicket")
                .field("ready", &false)
                .field("deadline", deadline)
                .finish(),
        }
    }
}

impl TuneTicket {
    /// A ticket resolved at submission time.
    pub(crate) fn ready(decision: Decision) -> Self {
        TuneTicket {
            repr: Repr::Ready(decision),
        }
    }

    /// A ticket backed by a shared completion cell, optionally bounded
    /// by a deadline, with an optional drop-before-resolution hook.
    pub(crate) fn pending(
        cell: Arc<TicketCell>,
        deadline: Option<Instant>,
        abandon: Option<AbandonHook>,
    ) -> Self {
        TuneTicket {
            repr: Repr::Pending {
                cell,
                deadline,
                abandon,
            },
        }
    }

    /// The decision, if the query has resolved (or its deadline has
    /// expired -- an expired ticket resolves itself to
    /// [`Served::TimedOut`]). Never blocks.
    pub fn try_get(&self) -> Option<Decision> {
        match &self.repr {
            Repr::Ready(d) => Some(d.clone()),
            Repr::Pending { cell, deadline, .. } => {
                let resolved = cell.state.lock().expect("ticket poisoned").decision.clone();
                match resolved {
                    Some(d) => Some(d),
                    None if deadline.is_some_and(|d| Instant::now() >= d) => Some(cell.expire()),
                    None => None,
                }
            }
        }
    }

    /// Whether consuming the ticket would yield a decision right now
    /// (resolved, or past its deadline). Never blocks.
    pub fn is_ready(&self) -> bool {
        match &self.repr {
            Repr::Ready(_) => true,
            Repr::Pending { cell, deadline, .. } => {
                cell.state
                    .lock()
                    .expect("ticket poisoned")
                    .decision
                    .is_some()
                    || deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }

    /// Block the calling thread until the decision lands (or the
    /// ticket's baked-in deadline, if any, expires). This is the
    /// migration shim for pre-ticket callers (`submit(q).wait()` is the
    /// old blocking `submit`); new code should poll.
    pub fn wait(&self) -> Decision {
        self.wait_until(match &self.repr {
            Repr::Pending { deadline, .. } => *deadline,
            Repr::Ready(_) => None,
        })
    }

    /// Block until the decision lands or `timeout` elapses, whichever
    /// comes first (a baked-in deadline still applies if it is
    /// sooner). On expiry the ticket resolves to [`Served::TimedOut`]
    /// -- only for *this* ticket: the flight is not poisoned, other
    /// waiters on the same key still receive the tuned decision, and
    /// the decision is still published to the cache when the tune
    /// lands.
    pub fn wait_timeout(&self, timeout: Duration) -> Decision {
        let bound = Instant::now() + timeout;
        self.wait_until(Some(match &self.repr {
            Repr::Pending {
                deadline: Some(d), ..
            } => bound.min(*d),
            _ => bound,
        }))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Decision {
        match &self.repr {
            Repr::Ready(d) => d.clone(),
            Repr::Pending { cell, .. } => {
                let mut state = cell.state.lock().expect("ticket poisoned");
                loop {
                    if let Some(d) = &state.decision {
                        return d.clone();
                    }
                    match deadline {
                        None => state = cell.cv.wait(state).expect("ticket poisoned"),
                        Some(d) => {
                            let now = Instant::now();
                            if now >= d {
                                drop(state);
                                return cell.expire();
                            }
                            let (guard, _) = cell
                                .cv
                                .wait_timeout(state, d - now)
                                .expect("ticket poisoned");
                            state = guard;
                        }
                    }
                }
            }
        }
    }

    /// Poll for the decision, registering `cx`'s waker to be woken on
    /// completion if it is not ready yet. The waker-compatible core of
    /// the [`Future`] impl, exposed separately so executor-less callers
    /// (a hand-rolled poll loop multiplexing many tickets on one OS
    /// thread) don't need `Pin`. A poll past the ticket's baked-in
    /// deadline resolves it to [`Served::TimedOut`] (no timer wakes a
    /// parked poller *at* the deadline; see the module docs).
    pub fn poll_decision(&self, cx: &mut Context<'_>) -> Poll<Decision> {
        match &self.repr {
            Repr::Ready(d) => Poll::Ready(d.clone()),
            Repr::Pending { cell, deadline, .. } => {
                let mut state = cell.state.lock().expect("ticket poisoned");
                if let Some(d) = &state.decision {
                    return Poll::Ready(d.clone());
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    drop(state);
                    return Poll::Ready(cell.expire());
                }
                // Keep one registered waker: the latest poll wins, as
                // futures contract requires.
                match &state.waker {
                    Some(w) if w.will_wake(cx.waker()) => {}
                    _ => state.waker = Some(cx.waker().clone()),
                }
                Poll::Pending
            }
        }
    }
}

impl Future for TuneTicket {
    type Output = Decision;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Decision> {
        self.poll_decision(cx)
    }
}

impl Drop for TuneTicket {
    fn drop(&mut self) {
        // A dropped ticket must not wake a dead task: discard the waker
        // we registered. The flight still resolves the cell (keeping the
        // open-ticket gauge truthful); it just has no one left to wake.
        if let Repr::Pending { cell, abandon, .. } = &mut self.repr {
            let resolved = {
                let mut state = cell.state.lock().expect("ticket poisoned");
                state.waker = None;
                state.decision.is_some()
            };
            // Tell the flight it lost this waiter -- outside the cell
            // lock: the abandonment may cancel the flight, whose
            // fan-out re-enters the cell to resolve it.
            if !resolved {
                if let Some(hook) = abandon.take() {
                    hook();
                }
            }
        }
    }
}
