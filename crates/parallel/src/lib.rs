//! Concurrency primitives for the FreeHGC workspace.
//!
//! Every kernel in the workspace runs serially; concurrency comes
//! *across* requests, never inside one. This crate holds the pieces
//! that concurrency needs:
//!
//! * [`relock`]: the one poison-recovering lock helper;
//! * [`flight`]: the publish-once single-flight rendezvous the registry
//!   and the serving layer elect leaders with;
//! * [`pool`]: the bounded [`WorkerPool`] that serves requests;
//! * [`workspace`]: pooled per-thread scratch buffers for the hot
//!   kernels.

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod flight;
pub mod pool;
pub mod workspace;

pub use flight::{Flight, Leader};
pub use pool::{PoolStats, SubmitError, WorkerPool};

/// Locks `m`, recovering from poisoning instead of propagating it — the
/// workspace's one poison-recovering lock helper.
///
/// Every critical section guarded this way is a single operation that
/// publishes an already-complete value (computes run *outside* the
/// locks), so a panic unwinding through a lock scope can never leave
/// half-written state behind it — the data under a poisoned mutex is
/// exactly as consistent as under a clean one. Recovering therefore
/// keeps one panicking request from killing every later request on the
/// process, without weakening any invariant.
pub fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
