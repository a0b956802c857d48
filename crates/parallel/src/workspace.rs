//! Pooled per-thread scratch buffers for the hot kernels.
//!
//! The sparse kernels and their iterative callers (PPR pushes, HITS
//! power iterations, propagation sweeps, `condense_target` scans) used
//! to allocate a fresh `Vec` per call for every accumulator, marker
//! array and output vector. None of those allocations carry state
//! between calls — they are pure scratch — so this module keeps them in
//! a small per-thread pool instead: [`take_f32`] / [`take_u32`] hand
//! out a buffer resized to the requested length (reusing a previously
//! returned one when possible) and the RAII guard returns it to the
//! pool on drop. A buffer that must outlive the kernel (an allocating
//! wrapper's result) is [`WsF32::detach`]ed instead, which hands the
//! caller a plain `Vec` and counts the handoff.
//!
//! Two contracts matter:
//!
//! * **Pooling never changes bits.** [`take_f32`] returns a buffer with
//!   *unspecified contents* (whatever the previous user left behind);
//!   every kernel that uses one either overwrites the full length or
//!   guards reads behind its own occupancy markers. Callers that need a
//!   zeroed buffer use the `_zeroed` variants. Given that, a pooled run
//!   is bitwise-identical to a fresh-allocation run.
//! * **Counters are per-thread and observable.** [`stats`] snapshots the
//!   current thread's take/hit/alloc counts, so a bench or test can
//!   assert a steady-state inner loop performs *zero* fresh allocations
//!   (`reset_stats`, run, check `fresh_allocs == 0`) without being
//!   perturbed by other test threads. Kernels run serially on the
//!   calling thread, so a long-lived thread (a pool worker, a client)
//!   keeps its warm buffers from one request to the next.

use std::cell::{Cell, RefCell};

/// Maximum buffers kept per pool per thread; excess returns are freed.
const MAX_POOLED: usize = 16;

/// A point-in-time snapshot of the *current thread's* workspace
/// counters (the `CacheCounters` of the allocation layer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers requested via `take_*`.
    pub takes: u64,
    /// Takes served by reusing a pooled buffer.
    pub pool_hits: u64,
    /// Takes that had to allocate a brand-new buffer.
    pub fresh_allocs: u64,
    /// Bytes newly allocated (fresh buffers plus capacity growth of
    /// reused ones).
    pub alloc_bytes: u64,
    /// Buffers returned to the pool by guard drops.
    pub gives: u64,
    /// Buffers detached and handed to the caller as plain `Vec`s.
    pub handoffs: u64,
}

thread_local! {
    static STATS: Cell<WorkspaceStats> = Cell::new(WorkspaceStats::default());
}

fn bump(f: impl FnOnce(&mut WorkspaceStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Snapshot of the current thread's workspace counters.
pub fn stats() -> WorkspaceStats {
    STATS.with(Cell::get)
}

/// Resets the current thread's workspace counters to zero (the pools
/// themselves keep their buffers — that is the point: a reset-then-run
/// window shows the *steady-state* allocation behaviour).
pub fn reset_stats() {
    STATS.with(|s| s.set(WorkspaceStats::default()));
}

macro_rules! pool_impl {
    ($elem:ty, $pool:ident, $guard:ident, $take:ident, $take_zeroed:ident) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$elem>>> = const { RefCell::new(Vec::new()) };
        }

        /// RAII guard over a pooled scratch buffer; derefs to the
        /// underlying `Vec` and returns it to the current thread's pool
        /// on drop.
        pub struct $guard {
            buf: Option<Vec<$elem>>,
        }

        impl $guard {
            /// Consumes the guard, handing the buffer to the caller as
            /// a plain `Vec` (it leaves the pool for good — used by
            /// allocating wrappers whose result outlives the kernel).
            pub fn detach(mut self) -> Vec<$elem> {
                bump(|s| s.handoffs += 1);
                self.buf.take().expect("buffer present until drop")
            }
        }

        impl std::ops::Deref for $guard {
            type Target = Vec<$elem>;
            fn deref(&self) -> &Vec<$elem> {
                self.buf.as_ref().expect("buffer present until drop")
            }
        }

        impl std::ops::DerefMut for $guard {
            fn deref_mut(&mut self) -> &mut Vec<$elem> {
                self.buf.as_mut().expect("buffer present until drop")
            }
        }

        impl Drop for $guard {
            fn drop(&mut self) {
                if let Some(buf) = self.buf.take() {
                    bump(|s| s.gives += 1);
                    $pool.with(|p| {
                        let mut p = p.borrow_mut();
                        if p.len() < MAX_POOLED {
                            p.push(buf);
                        }
                    });
                }
            }
        }

        /// Takes a buffer of exactly `len` elements with **unspecified
        /// contents** — the caller must fully overwrite it or guard
        /// every read (see the module docs' bitwise contract).
        pub fn $take(len: usize) -> $guard {
            let elem_bytes = std::mem::size_of::<$elem>() as u64;
            // Reuse the pooled buffer with the largest capacity so a
            // steady-state caller converges on zero growth.
            let reused = $pool.with(|p| {
                let mut p = p.borrow_mut();
                let best = (0..p.len()).max_by_key(|&i| p[i].capacity())?;
                Some(p.swap_remove(best))
            });
            let mut buf = match reused {
                Some(b) => {
                    let grown = len.saturating_sub(b.capacity()) as u64;
                    bump(|s| {
                        s.takes += 1;
                        s.pool_hits += 1;
                        s.alloc_bytes += grown * elem_bytes;
                    });
                    b
                }
                None => {
                    bump(|s| {
                        s.takes += 1;
                        s.fresh_allocs += 1;
                        s.alloc_bytes += len as u64 * elem_bytes;
                    });
                    Vec::with_capacity(len)
                }
            };
            buf.resize(len, Default::default());
            buf.truncate(len);
            $guard { buf: Some(buf) }
        }

        /// [`$take`] with the buffer fully zeroed.
        pub fn $take_zeroed(len: usize) -> $guard {
            let mut g = $take(len);
            g.fill(Default::default());
            g
        }
    };
}

pool_impl!(f32, POOL_F32, WsF32, take_f32, take_f32_zeroed);
pool_impl!(u32, POOL_U32, WsU32, take_u32, take_u32_zeroed);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_buffers_and_counts() {
        // Run on a dedicated thread: counters and pools are
        // thread-local, so this is isolated from every other test.
        std::thread::spawn(|| {
            reset_stats();
            {
                let mut a = take_f32(100);
                a[0] = 1.0;
                a[99] = 2.0;
            } // returned to the pool
            let s = stats();
            assert_eq!(s.takes, 1);
            assert_eq!(s.fresh_allocs, 1);
            assert_eq!(s.gives, 1);
            assert_eq!(s.alloc_bytes, 400);

            reset_stats();
            let b = take_f32(80); // steady state: served from the pool
            assert_eq!(b.len(), 80);
            let s = stats();
            assert_eq!(s.takes, 1);
            assert_eq!(s.pool_hits, 1);
            assert_eq!(s.fresh_allocs, 0);
            assert_eq!(s.alloc_bytes, 0, "a shrink must not count as growth");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn zeroed_take_is_zero_even_after_reuse() {
        std::thread::spawn(|| {
            {
                let mut a = take_u32(10);
                a.fill(7);
            }
            let b = take_u32_zeroed(10);
            assert!(b.iter().all(|&v| v == 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn detach_hands_off_ownership() {
        std::thread::spawn(|| {
            reset_stats();
            let g = take_f32(5);
            let v: Vec<f32> = g.detach();
            assert_eq!(v.len(), 5);
            let s = stats();
            assert_eq!(s.handoffs, 1);
            assert_eq!(s.gives, 0, "a detached buffer never returns to the pool");
            // The next take cannot be served by the detached buffer.
            reset_stats();
            let _again = take_f32(5);
            assert_eq!(stats().fresh_allocs, 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn growth_counts_bytes() {
        std::thread::spawn(|| {
            drop(take_u32(4));
            reset_stats();
            let g = take_u32(12); // reuse of the 4-capacity buffer grows it
            assert_eq!(g.len(), 12);
            let s = stats();
            assert_eq!(s.pool_hits, 1);
            assert!(s.alloc_bytes >= 8 * 4, "growth bytes must be counted");
        })
        .join()
        .unwrap();
    }
}
