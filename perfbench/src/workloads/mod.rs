//! The four workloads and what they share: the run clock, repeated
//! set-up, the downstream-accuracy probe and cache-counter roll-ups.

mod cold;
mod mixed;
mod served;
mod sweep;
mod train;

use crate::machine::process_cpu_ms;
use crate::metrics::Outcome;
use crate::stats::{self, p50};
use crate::trace::Tracer;
use freehgc_core::FreeHgc;
use freehgc_eval::{Bench, EvalConfig};
use freehgc_hetgraph::{CacheCounters, Condenser, HeteroGraph};
use freehgc_hgnn::models::ModelKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const NAMES: &[&str] = &[
    "cold-aminer",
    "serve-sweep",
    "serve-mixed",
    "train-condensed",
];

/// Generator seed of every named dataset: "the dataset" is one fixed
/// graph, and the workload seed varies only the requests sent to it.
pub const GRAPH_SEED: u64 = 42;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Successful operations a run needs so that its p90 has ten samples
/// beyond it; the measured phase runs past `--seconds` until it has them.
pub const MIN_SAMPLES: usize = 100;

/// A run ends its measured phase by this many seconds at the latest,
/// however few samples it has, so the process exits in time.
const HARD_STOP_S: f64 = 120.0;

pub struct RunCfg<'t> {
    pub seed: u64,
    pub seconds: f64,
    /// `Some` on a traced run.
    pub tracer: Option<&'t Tracer>,
}

pub fn run(name: &str, cfg: &RunCfg<'_>) -> Outcome {
    match name {
        "cold-aminer" => cold::run(cfg),
        "serve-sweep" => sweep::run(cfg),
        "serve-mixed" => mixed::run(cfg),
        "train-condensed" => train::run(cfg),
        _ => unreachable!("workload names are checked when parsing arguments"),
    }
}

/// Stop condition of a measured phase's closed-loop client. Workloads
/// ask it only at the start of a script round, so every run holds whole
/// rounds and each request class its exact share.
pub struct Clock {
    start: Instant,
    seconds: f64,
    /// Successes still needed before the phase may end (0 on traced
    /// runs, which report no percentiles).
    min_ok: usize,
    ok: AtomicUsize,
}

impl Clock {
    pub fn start(seconds: f64, traced: bool) -> Self {
        Clock {
            start: Instant::now(),
            seconds,
            min_ok: if traced { 0 } else { MIN_SAMPLES },
            ok: AtomicUsize::new(0),
        }
    }

    /// Whether the client should start its next round.
    pub fn more(&self) -> bool {
        let t = self.elapsed_s();
        t < self.seconds || (self.ok.load(Ordering::Relaxed) < self.min_ok && t < HARD_STOP_S)
    }

    pub fn succeeded(&self) {
        self.ok.fetch_add(1, Ordering::Relaxed);
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Runs `build` [`SETUP_REPS`] times, dropping each instance before the
/// next is built, records every repetition's CPU and wall time in `out`,
/// and returns the last instance.
pub fn repeat_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let timer = OpTimer::start();
        last = Some(build());
        let (wall_ms, cpu_ms) = timer.stop();
        out.setup_s.push(cpu_ms / 1e3);
        out.setup_wall_s.push(wall_ms / 1e3);
    }
    last.expect("at least one set-up")
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Wall and process CPU time of one operation. One operation is in
/// flight at a time (every workload has one client), so the process's
/// CPU time across it — client, server and worker threads alike — is
/// that operation's.
pub struct OpTimer {
    wall: Instant,
    cpu_ms: f64,
}

impl OpTimer {
    pub fn start() -> Self {
        OpTimer {
            cpu_ms: process_cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// `(wall ms, CPU ms)` since [`OpTimer::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = ms_since(self.wall);
        (wall, process_cpu_ms() - self.cpu_ms)
    }
}

/// Downstream quality of what a workload serves: FreeHGC condenses
/// `g` at `ratio` (fixed cell), SeHGNN trains on the result with the
/// quick schedule, and the test accuracy on the whole graph's test split
/// is returned in percent.
pub fn accuracy_probe(g: &HeteroGraph, ratio: f64, seed: u64) -> f64 {
    let bench = Bench::new(g, EvalConfig::quick());
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(ratio, seed));
    cond.validate(g);
    bench.eval_condensed(&cond, ModelKind::SeHgnn, seed) * 100.0
}

/// Sums of cache counters over several contexts.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheTotals {
    pub families: [(u64, u64); 7],
    /// Resident cache bytes, as the caller defines them for its
    /// workload (not summed by [`CacheTotals::add`]).
    pub cache_bytes: u64,
    pub evictions: u64,
}

impl CacheTotals {
    pub fn add(&mut self, c: &CacheCounters) {
        let fams = [
            c.paths,
            c.factors,
            c.composed,
            c.oriented,
            c.influence,
            c.diversity,
            c.propagated,
        ];
        for (acc, (h, m)) in self.families.iter_mut().zip(fams) {
            acc.0 += h;
            acc.1 += m;
        }
        self.evictions += c.composed_evictions
            + c.influence_evictions
            + c.diversity_evictions
            + c.propagated_evictions;
    }

    /// Counter growth from `before` to `self` (bytes stay absolute). A
    /// context rebuilt in between restarts its counters; saturation
    /// keeps the difference from wrapping.
    pub fn since(&self, before: &CacheTotals) -> CacheTotals {
        let mut d = *self;
        for (f, b) in d.families.iter_mut().zip(before.families) {
            f.0 = f.0.saturating_sub(b.0);
            f.1 = f.1.saturating_sub(b.1);
        }
        d.evictions = d.evictions.saturating_sub(before.evictions);
        d
    }

    pub fn report(&self, out: &mut Outcome) {
        const NAMES: [&str; 7] = [
            "context.paths.hit_share",
            "context.factors.hit_share",
            "context.composed.hit_share",
            "context.oriented.hit_share",
            "context.influence.hit_share",
            "context.diversity.hit_share",
            "context.propagated.hit_share",
        ];
        for (name, (h, m)) in NAMES.into_iter().zip(self.families) {
            out.layer(name, stats::share(h, h + m));
        }
        out.layer("context.cache_mb", self.cache_bytes as f64 / MIB);
        out.layer("context.evictions", self.evictions as f64);
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Replaces the default panic message (with backtrace) by one line per
/// distinct message. Panics are expected here — GCond's simulated OOM
/// panics inside the server and comes back as a typed reply — and a
/// run would otherwise flood its log.
pub fn quiet_panics() {
    static SEEN: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        let mut seen = SEEN.lock().unwrap_or_else(|p| p.into_inner());
        let n = seen.entry(msg.clone()).or_default();
        *n += 1;
        if *n == 1 {
            let at = info.location().map(|l| l.to_string()).unwrap_or_default();
            eprintln!("perfbench: panic at {at}: {msg} (further repeats not shown)");
        }
    }));
}

/// `(traced / untraced − 1)` in percent, from the two medians.
pub fn overhead_pct(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let (t, u) = (p50(traced_ms), p50(untraced_ms));
    if u > 0.0 {
        (t / u - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Per-stage self times of the FreeHGC replays (`metapath.compose_ms`,
/// `selection.ms`, …) and of the training replays (`propagate.ms`, …):
/// the median over requests of each stage's per-request self time.
pub fn stage_layers(out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.spans();
    let own = crate::trace::self_times_us(&spans);
    for (span, metric) in [
        ("metapath.compose", "metapath.compose_ms"),
        ("selection", "selection.ms"),
        ("father", "father.ms"),
        ("leaf", "leaf.ms"),
        ("assemble", "assemble.ms"),
        ("propagate", "propagate.ms"),
        ("train", "train.ms"),
        ("predict", "predict.ms"),
    ] {
        let per_req = crate::trace::self_ms_per_request(&spans, &own, span);
        out.layer(metric, p50(&per_req));
    }
    out.layer("trace.spans", spans.len() as f64);
}

/// Records the composition counts of a FreeHGC replay.
pub fn compose_layers(out: &mut Outcome, counts: crate::stages::ComposeCounts) {
    out.layer("metapath.paths", counts.paths as f64);
    out.layer("metapath.composed_nnz", counts.composed_nnz as f64);
}

/// Runs `f`, turning a panic into `None`.
pub fn catch<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Checks a condensed graph against its source; a failed check is an
/// output mismatch.
pub fn validate(
    out: &mut Outcome,
    g: &HeteroGraph,
    c: &freehgc_hetgraph::CondensedGraph,
    what: &str,
) {
    if catch(|| c.validate(g)).is_none() {
        out.problem(format!("{what}: CondensedGraph::validate failed"));
    }
}
