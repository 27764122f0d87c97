//! Admission control and fair scheduling across tenants.
//!
//! [`Admission`] hands out a fixed number of **tickets**: a tool call runs
//! only while it holds one, so at most that many calls execute at once. A
//! call that finds every ticket taken waits in its tenant's bounded queue;
//! one that finds its tenant's queue full is **shed** at once (the wire
//! server answers `server_busy`) without touching any other tenant's
//! waiters. A freed ticket goes straight to the next waiter by weighted
//! round-robin ([`WeightedQueues`]): a tenant with weight *w* is granted up
//! to *w* consecutive tickets each time the rotation reaches it, then the
//! cursor moves on. A runaway tenant therefore competes only with its own
//! backlog.
//!
//! The uncontended path is one short mutex section: no clock read, no
//! allocation, no thread wake-up. A [`Ticket`] is an RAII guard, released
//! when the call returns *and* when it unwinds.
//!
//! The structure is engine- and transport-agnostic: the only policy inputs
//! are the ticket count, per-tenant weights, a default weight, and a
//! per-tenant queue capacity.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Why a call was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's queue is at capacity — shed (caller maps this to
    /// server-busy backpressure).
    Shed,
    /// Admission is closed (server shutting down).
    Closed,
}

/// Per-tenant bounded FIFOs with weighted round-robin dequeue. A plain
/// data structure: the caller provides the locking.
pub(crate) struct WeightedQueues<T> {
    queues: BTreeMap<String, VecDeque<T>>,
    /// Tenants with at least one queued item, in rotation order.
    rotation: Vec<String>,
    cursor: usize,
    /// Remaining consecutive dequeues owed to the tenant at `cursor`.
    credit: u32,
    queued: usize,
    per_tenant_capacity: usize,
    default_weight: u32,
    weights: BTreeMap<String, u32>,
}

impl<T> WeightedQueues<T> {
    /// Create queues where each tenant may hold `per_tenant_capacity`
    /// pending items, tenants in `weights` get their configured share, and
    /// everyone else gets `default_weight` (both clamped to ≥ 1).
    pub(crate) fn new(
        per_tenant_capacity: usize,
        default_weight: u32,
        weights: impl IntoIterator<Item = (String, u32)>,
    ) -> Self {
        WeightedQueues {
            queues: BTreeMap::new(),
            rotation: Vec::new(),
            cursor: 0,
            credit: 0,
            queued: 0,
            per_tenant_capacity: per_tenant_capacity.max(1),
            default_weight: default_weight.max(1),
            weights: weights.into_iter().map(|(t, w)| (t, w.max(1))).collect(),
        }
    }

    /// The weight applied to `tenant`.
    pub(crate) fn weight_of(&self, tenant: &str) -> u32 {
        self.weights
            .get(tenant)
            .copied()
            .unwrap_or(self.default_weight)
    }

    /// Enqueue `item` for `tenant`, or shed it when the tenant's queue is
    /// full.
    pub(crate) fn push(&mut self, tenant: &str, item: T) -> Result<(), SubmitError> {
        let queue = match self.queues.get_mut(tenant) {
            Some(queue) => queue,
            None => self.queues.entry(tenant.to_owned()).or_default(),
        };
        if queue.len() >= self.per_tenant_capacity {
            return Err(SubmitError::Shed);
        }
        if queue.is_empty() {
            self.rotation.push(tenant.to_owned());
        }
        queue.push_back(item);
        self.queued += 1;
        Ok(())
    }

    /// Dequeue the next item under the weighted rotation.
    pub(crate) fn pop(&mut self) -> Option<T> {
        while !self.rotation.is_empty() {
            if self.cursor >= self.rotation.len() {
                self.cursor = 0;
                self.credit = 0;
            }
            let tenant = &self.rotation[self.cursor];
            if self.credit == 0 {
                self.credit = self.weight_of(tenant);
            }
            let queue = self.queues.get_mut(tenant).expect("rotated tenant");
            let Some(item) = queue.pop_front() else {
                // Defensive: an empty queue should have left the rotation.
                self.rotation.remove(self.cursor);
                self.credit = 0;
                continue;
            };
            self.queued -= 1;
            self.credit -= 1;
            if queue.is_empty() {
                // Tenant drained: leave the rotation; its spot's remaining
                // credit dies with it.
                self.rotation.remove(self.cursor);
                self.credit = 0;
            } else if self.credit == 0 {
                self.cursor += 1;
            }
            return Some(item);
        }
        None
    }

    /// Total items queued across all tenants.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }
}

const WAITING: u8 = 0;
const GRANTED: u8 = 1;
const CLOSED: u8 = 2;

/// One blocked caller: its thread, woken once its fate is decided.
struct Waiter {
    thread: Thread,
    /// `WAITING` until the releaser or `close` stores the outcome
    /// (`Release`), which the parked caller reads (`Acquire`).
    state: AtomicU8,
}

impl Waiter {
    fn wake(&self, state: u8) {
        self.state.store(state, Ordering::Release);
        self.thread.unpark();
    }
}

struct AdmissionState {
    free: usize,
    closed: bool,
    waiters: WeightedQueues<Arc<Waiter>>,
}

/// A fixed set of execution tickets shared by every tenant, with
/// weighted-fair waiting when they run out.
pub struct Admission {
    state: Mutex<AdmissionState>,
}

impl Admission {
    /// `tickets` calls may run at once (clamped to ≥ 1); each tenant may
    /// have `per_tenant_waiters` more waiting; `weights` are the named
    /// tenants' shares of the rotation (everyone else has weight 1).
    pub fn new(
        tickets: usize,
        per_tenant_waiters: usize,
        weights: impl IntoIterator<Item = (String, u32)>,
    ) -> Self {
        Admission {
            state: Mutex::new(AdmissionState {
                free: tickets.max(1),
                closed: false,
                waiters: WeightedQueues::new(per_tenant_waiters, 1, weights),
            }),
        }
    }

    /// The state is only ever changed whole under the lock, and nothing
    /// panics while holding it, so a poisoned lock still guards a
    /// consistent state.
    fn lock(&self) -> MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a ticket for `tenant`, waiting in its queue while none is free.
    /// Fails at once when the tenant's queue is full ([`SubmitError::Shed`])
    /// or admission is closed ([`SubmitError::Closed`], also what a waiter
    /// gets when [`Admission::close`] runs).
    pub fn admit(&self, tenant: &str) -> Result<Ticket<'_>, SubmitError> {
        let mut state = self.lock();
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.free > 0 {
            state.free -= 1;
            return Ok(Ticket {
                admission: self,
                waited: None,
            });
        }
        let waiter = Arc::new(Waiter {
            thread: thread::current(),
            state: AtomicU8::new(WAITING),
        });
        state.waiters.push(tenant, Arc::clone(&waiter))?;
        drop(state);
        let started = Instant::now();
        loop {
            match waiter.state.load(Ordering::Acquire) {
                // `park` may return spuriously, and returns at once if the
                // grant's `unpark` came first.
                WAITING => thread::park(),
                GRANTED => {
                    return Ok(Ticket {
                        admission: self,
                        waited: Some(started.elapsed()),
                    })
                }
                _ => return Err(SubmitError::Closed),
            }
        }
    }

    /// Calls waiting for a ticket right now.
    pub fn waiting(&self) -> usize {
        self.lock().waiters.queued()
    }

    /// Refuse every further call and wake every waiter with
    /// [`SubmitError::Closed`]. Tickets already held stay valid.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        let waiters: Vec<_> = std::iter::from_fn(|| state.waiters.pop()).collect();
        drop(state);
        for waiter in waiters {
            waiter.wake(CLOSED);
        }
    }

    fn release(&self) {
        let mut state = self.lock();
        match state.waiters.pop() {
            // The ticket passes straight to the next waiter: `free` never
            // rises while anyone waits.
            Some(next) => {
                drop(state);
                next.wake(GRANTED);
            }
            None => state.free += 1,
        }
    }
}

/// The right to run one call; released on drop, including during unwind.
#[must_use = "the ticket is released as soon as it is dropped"]
pub struct Ticket<'a> {
    admission: &'a Admission,
    waited: Option<Duration>,
}

impl Ticket<'_> {
    /// How long the call waited for this ticket; `None` when one was free.
    pub fn waited(&self) -> Option<Duration> {
        self.waited
    }
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn drain<T>(q: &mut WeightedQueues<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn weighted_rotation_interleaves_by_weight() {
        let mut q = WeightedQueues::new(16, 1, [("a".to_string(), 3)]);
        for i in 0..6 {
            q.push("a", format!("a{i}")).unwrap();
            q.push("b", format!("b{i}")).unwrap();
        }
        // Tenant a (weight 3) gets 3 consecutive slots per cycle, b gets 1.
        assert_eq!(
            drain(&mut q),
            ["a0", "a1", "a2", "b0", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"]
        );
    }

    #[test]
    fn equal_weights_alternate() {
        let mut q = WeightedQueues::new(16, 1, []);
        for i in 0..3 {
            q.push("x", format!("x{i}")).unwrap();
            q.push("y", format!("y{i}")).unwrap();
        }
        assert_eq!(drain(&mut q), ["x0", "y0", "x1", "y1", "x2", "y2"]);
    }

    #[test]
    fn full_tenant_queue_sheds_without_touching_others() {
        let mut q = WeightedQueues::new(2, 1, []);
        q.push("hog", "h0").unwrap();
        q.push("hog", "h1").unwrap();
        assert_eq!(q.push("hog", "h2"), Err(SubmitError::Shed));
        q.push("calm", "c0").unwrap();
        assert_eq!(drain(&mut q), ["h0", "c0", "h1"]);
    }

    #[test]
    fn tenant_reentering_rotation_is_served() {
        let mut q = WeightedQueues::new(4, 1, []);
        q.push("a", 1u32).unwrap();
        assert_eq!(q.pop(), Some(1));
        q.push("a", 2u32).unwrap();
        q.push("b", 3u32).unwrap();
        let mut got = drain(&mut q);
        got.sort_unstable();
        assert_eq!(got, [2, 3]);
        assert_eq!(q.queued(), 0);
    }

    /// Start a thread that waits for a ticket as `tenant`, and return only
    /// once it is queued, so waiters queue in call order. The thread sends
    /// `label` when granted, then holds the ticket until `hold` is dropped.
    fn waiter<'s>(
        scope: &'s thread::Scope<'s, '_>,
        admission: &'s Admission,
        tenant: &'s str,
        label: String,
        granted: mpsc::Sender<String>,
    ) -> thread::ScopedJoinHandle<'s, Result<(), SubmitError>> {
        let queued = admission.waiting();
        let handle = scope.spawn(move || {
            let _ticket = admission.admit(tenant)?;
            granted.send(label).unwrap();
            Ok(())
        });
        while admission.waiting() == queued {
            thread::yield_now();
        }
        handle
    }

    #[test]
    fn released_tickets_go_to_waiters_by_weight() {
        let admission = Admission::new(1, 16, [("a".to_string(), 3)]);
        let held = admission.admit("x").unwrap();
        assert_eq!(held.waited(), None, "a free ticket needs no wait");
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .flat_map(|i| [("a", format!("a{i}")), ("b", format!("b{i}"))])
                .map(|(tenant, label)| waiter(s, &admission, tenant, label, tx.clone()))
                .collect();
            assert_eq!(admission.waiting(), 12);
            // Each grantee drops its ticket after reporting, which grants
            // the next waiter: the reports arrive in grant order.
            drop(held);
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        drop(tx);
        assert_eq!(
            rx.iter().collect::<Vec<_>>(),
            ["a0", "a1", "a2", "b0", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"]
        );
        assert_eq!(admission.waiting(), 0);
    }

    #[test]
    fn a_full_tenant_queue_sheds_without_touching_other_tenants() {
        let admission = Admission::new(1, 2, []);
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            let held = admission.admit("hog").unwrap();
            let hogs = [0, 1].map(|i| waiter(s, &admission, "hog", format!("h{i}"), tx.clone()));
            // The third hog waiter is shed at once, without blocking.
            assert!(matches!(admission.admit("hog"), Err(SubmitError::Shed)));
            let calm = waiter(s, &admission, "calm", "c0".into(), tx.clone());
            assert_eq!(admission.waiting(), 3);
            drop(held);
            for h in hogs.into_iter().chain([calm]) {
                h.join().unwrap().unwrap();
            }
        });
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), ["h0", "c0", "h1"]);
    }

    #[test]
    fn closing_wakes_every_waiter_with_closed() {
        let admission = Admission::new(1, 8, []);
        let (tx, _rx) = mpsc::channel();
        thread::scope(|s| {
            let held = admission.admit("t").unwrap();
            let handles: Vec<_> = ["t", "t", "u"]
                .into_iter()
                .map(|tenant| waiter(s, &admission, tenant, tenant.into(), tx.clone()))
                .collect();
            admission.close();
            for h in handles {
                assert_eq!(h.join().unwrap(), Err(SubmitError::Closed));
            }
            assert!(matches!(admission.admit("t"), Err(SubmitError::Closed)));
            drop(held);
        });
        assert_eq!(admission.waiting(), 0);
    }

    #[test]
    fn a_ticket_dropped_by_unwinding_is_released() {
        let admission = Admission::new(1, 1, []);
        let unwound = std::panic::catch_unwind(|| {
            let _ticket = admission.admit("t").unwrap();
            panic!("the holder panics");
        });
        assert!(unwound.is_err());
        let ticket = admission.admit("t").expect("the ticket came back");
        assert_eq!(ticket.waited(), None);
    }
}
