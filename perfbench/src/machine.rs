//! The machine a result was measured on: reported and effective
//! parallelism, the thread override, the process's CPU clock and its
//! peak memory.

use std::time::Instant;

/// What every result is recorded with.
#[derive(Clone, Debug)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub available: usize,
    /// `FREEHGC_THREADS` as set in the environment (0 when unset).
    pub freehgc_threads: usize,
    /// Two threads' worth of fixed spin work divided by the wall time
    /// two threads take for it, in units of one thread's time: 2.0 on
    /// two free cores, 1.0 when the second thread gains nothing.
    pub effective: f64,
}

/// Fixed integer work that cannot be optimized away.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Times `threads` threads each doing `iters` of spin work; median of
/// five tries, in seconds.
fn timed_spin(threads: usize, iters: u64) -> f64 {
    let mut tries: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| spin(iters));
                }
            });
            t0.elapsed().as_secs_f64()
        })
        .collect();
    tries.sort_by(f64::total_cmp);
    tries[2]
}

impl Machine {
    /// Probes the host (about half a second).
    pub fn probe() -> Self {
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let freehgc_threads = std::env::var("FREEHGC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        const ITERS: u64 = 10_000_000;
        let one = timed_spin(1, ITERS);
        let two = timed_spin(2, ITERS);
        Machine {
            available,
            freehgc_threads,
            effective: 2.0 * one / two,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"freehgc_threads\":{},\"effective_parallelism\":{:.3}}}",
            self.available, self.freehgc_threads, self.effective
        )
    }
}

/// `VmHWM` (peak resident set) of this process in MiB, from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time of the whole process — every thread, user and system — in
/// milliseconds, from `CLOCK_PROCESS_CPUTIME_ID`. Time a thread spends
/// runnable but waiting for a core, because another process or the
/// hypervisor has it, does not count: on a shared host this clock
/// measures the work, the wall clock the work plus the neighbours.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the pointer and keeps nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let c0 = process_cpu_ms();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_ms() - c0;
        assert!(slept < 25.0, "sleeping used {slept} ms of CPU");
        let c1 = process_cpu_ms();
        spin(20_000_000);
        let spun = process_cpu_ms() - c1;
        assert!(spun > 1.0, "spinning used only {spun} ms of CPU");
    }
}
