//! A publish-once rendezvous for single-flight computations: of all
//! callers that want one result at the same time, the *leader* computes
//! it and the rest wait. Each caller keeps its own key map and election
//! (the context registry's map is also its cache; the serving layer's
//! sits beside its reply memo); [`Flight`] is the part they share.
//!
//! * A flight moves from `Pending` to `Done(T)` or `Failed(E)` once;
//!   later [`Flight::finish`] calls are ignored.
//! * [`Flight::wait`] blocks; [`Flight::wait_polling`] runs a caller
//!   hook (deadline, cancellation) every slice and may bail, which
//!   abandons only that wait — the flight runs on for everyone else.
//! * No waiter can hang: a [`Leader`] token dropped before publishing
//!   (forgotten exit path, unwinding panic, job dropped unrun) publishes
//!   `Failed` — the waiters' cue to elect a new leader.

use crate::relock;
use std::ops::Deref;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One single-flight rendezvous: `Pending` (`None`) until the leader
/// publishes `Done` (`Some(Ok)`) or `Failed` (`Some(Err)`).
pub struct Flight<T, E> {
    state: Mutex<Option<Result<T, E>>>,
    cv: Condvar,
}

impl<T, E> Flight<T, E> {
    /// Opens a pending flight and returns the leader's token for it.
    /// Insert [`Leader::flight`] into the caller's key map so waiters
    /// can find it. `abandoned` is what the flight fails with if the
    /// token is dropped before anything was published.
    pub fn lead(abandoned: E) -> Leader<T, E> {
        Leader {
            flight: Arc::new(Flight {
                state: Mutex::new(None),
                cv: Condvar::new(),
            }),
            abandoned: Some(abandoned),
        }
    }

    /// Publishes the outcome and wakes every waiter. Only the first
    /// call publishes; an outcome already there is left as it was.
    pub fn finish(&self, outcome: Result<T, E>) {
        let mut state = relock(&self.state);
        if state.is_none() {
            *state = Some(outcome);
            drop(state);
            self.cv.notify_all();
        }
    }
}

impl<T: Clone, E: Clone> Flight<T, E> {
    /// Blocks until the outcome is published and returns a copy of it.
    pub fn wait(&self) -> Result<T, E> {
        let state = self
            .cv
            .wait_while(relock(&self.state), |s| s.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state.clone().expect("flight published")
    }

    /// [`Flight::wait`] that runs `hook` before each wait slice of at
    /// most `slice`. `Ok` is the published outcome; `Err(b)` means the
    /// hook returned `Some(b)` first. An outcome published before the
    /// hook runs wins over the hook.
    pub fn wait_polling<B>(
        &self,
        slice: Duration,
        mut hook: impl FnMut() -> Option<B>,
    ) -> Result<Result<T, E>, B> {
        let mut state = relock(&self.state);
        loop {
            if let Some(outcome) = &*state {
                return Ok(outcome.clone());
            }
            drop(state);
            if let Some(bail) = hook() {
                return Err(bail);
            }
            state = self
                .cv
                .wait_timeout_while(relock(&self.state), slice, |s| s.is_none())
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// The leader's token for one [`Flight`], which it dereferences to
/// (`leader.finish(..)`). Dropping it publishes `Failed(abandoned)`
/// unless an outcome is already there, so "finish on every exit path"
/// is a property of the type, not of the leader's code.
pub struct Leader<T, E> {
    flight: Arc<Flight<T, E>>,
    abandoned: Option<E>,
}

impl<T, E> Leader<T, E> {
    /// A shared handle to the flight, for the caller's key map.
    pub fn flight(&self) -> Arc<Flight<T, E>> {
        Arc::clone(&self.flight)
    }
}

impl<T, E> Deref for Leader<T, E> {
    type Target = Flight<T, E>;

    fn deref(&self) -> &Flight<T, E> {
        &self.flight
    }
}

impl<T, E> Drop for Leader<T, E> {
    fn drop(&mut self) {
        if let Some(e) = self.abandoned.take() {
            self.flight.finish(Err(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    type TestFlight = Flight<u32, &'static str>;

    /// Spawns `n` blocking waiters on `flight` and returns once each has
    /// started, so they are waiting (or about to) when the test publishes.
    fn waiters(
        flight: &Arc<TestFlight>,
        n: usize,
    ) -> Vec<thread::JoinHandle<Result<u32, &'static str>>> {
        let started = Arc::new(std::sync::Barrier::new(n + 1));
        let handles = (0..n)
            .map(|_| {
                let flight = Arc::clone(flight);
                let started = Arc::clone(&started);
                thread::spawn(move || {
                    started.wait();
                    flight.wait()
                })
            })
            .collect();
        started.wait();
        handles
    }

    #[test]
    fn waiters_receive_the_leaders_done_value() {
        let leader = TestFlight::lead("abandoned");
        let handles = waiters(&leader.flight(), 3);
        leader.finish(Ok(42));
        for h in handles {
            assert_eq!(h.join().unwrap(), Ok(42));
        }
        // Publish-once: a second outcome is ignored.
        leader.finish(Err("late"));
        assert_eq!(leader.wait(), Ok(42));
    }

    #[test]
    fn failed_wakes_every_waiter() {
        let leader = TestFlight::lead("abandoned");
        let handles = waiters(&leader.flight(), 4);
        leader.finish(Err("build failed"));
        for h in handles {
            assert_eq!(h.join().unwrap(), Err("build failed"));
        }
    }

    #[test]
    fn a_bailing_poller_leaves_the_flight_running_for_others() {
        let leader = TestFlight::lead("abandoned");
        let other = waiters(&leader.flight(), 1);
        let polls = AtomicUsize::new(0);
        let bailed = leader.wait_polling(Duration::from_millis(1), || {
            (polls.fetch_add(1, Ordering::Relaxed) == 2).then_some("deadline")
        });
        assert_eq!(bailed, Err("deadline"));
        assert_eq!(polls.load(Ordering::Relaxed), 3, "hook runs once per slice");
        // The flight was still pending: the bail published nothing, so
        // this outcome is the one the other waiter receives.
        leader.finish(Ok(7));
        assert_eq!(other.into_iter().next().unwrap().join().unwrap(), Ok(7));
        // A poller arriving after the publish gets the outcome, not a bail.
        let late = leader.wait_polling(Duration::from_millis(1), || Some("never"));
        assert_eq!(late, Ok(Ok(7)));
    }

    #[test]
    fn a_dropped_or_unwinding_leader_publishes_failed() {
        let leader = TestFlight::lead("dropped");
        let flight = leader.flight();
        let handles = waiters(&flight, 2);
        drop(leader);
        for h in handles {
            assert_eq!(h.join().unwrap(), Err("dropped"));
        }

        let leader = TestFlight::lead("unwound");
        let flight = leader.flight();
        let handles = waiters(&flight, 2);
        let died = thread::spawn(move || {
            let _leader = leader;
            panic!("leader dies mid-build");
        })
        .join();
        assert!(died.is_err());
        for h in handles {
            assert_eq!(h.join().unwrap(), Err("unwound"));
        }
    }
}
