//! What the two serving workloads share: request construction, the
//! reference check against `Condenser::condense_shared`, server-layer
//! counters, and the FreeHGC replay on a mirror context.

use super::{catch, validate, CacheTotals, MIB};
use crate::metrics::Outcome;
use crate::stages::{condense_staged, fingerprint, ComposeCounts};
use crate::stats::share;
use crate::trace::Tracer;
use freehgc_core::FreeHgc;
use freehgc_hetgraph::{CondenseContext, CondenseSpec, Condenser, HeteroGraph};
use freehgc_parallel::PoolStats;
use freehgc_serve::{
    default_methods, CondensedSummary, GraphRef, Reply, Request, ServeHandle, StatsReply,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Meta-path cap every served request asks for (the library default).
pub const MAX_PATHS: u32 = freehgc_hetgraph::DEFAULT_MAX_PATHS as u32;

/// The spec the server builds for a condense request.
pub fn spec_of(ratio: f64, seed: u64, hops: u32) -> CondenseSpec {
    CondenseSpec::new(ratio)
        .with_seed(seed)
        .with_max_hops(hops as usize)
        .with_max_paths(MAX_PATHS as usize)
}

pub fn condense(graph: GraphRef, method: &str, ratio: f64, seed: u64, hops: u32) -> Request {
    Request::Condense {
        graph,
        method: method.to_string(),
        ratio,
        seed,
        max_hops: hops,
        max_paths: MAX_PATHS,
        deadline_ms: 0,
    }
}

/// Whether a request failed: a typed error reply or a transport error.
/// Failures count in the result line's `failed` and against
/// `success_share`; their latencies are not sampled.
pub fn is_failure(result: Result<&Reply, &std::io::Error>) -> bool {
    !matches!(result, Ok(reply) if reply.error_code().is_none())
}

/// A served condensation kept for the reference check.
pub struct Sample {
    pub graph: Arc<HeteroGraph>,
    pub method: String,
    pub spec: CondenseSpec,
    pub reply: CondensedSummary,
}

/// Recomputes each sample with `Condenser::condense_shared` on the
/// server's own registry: the result must validate and equal the served
/// reply (fingerprint, node counts and provenance).
pub fn check_samples(out: &mut Outcome, handle: &ServeHandle, samples: &[Sample]) {
    let methods: BTreeMap<&str, Box<dyn Condenser + Send + Sync>> = default_methods()
        .into_iter()
        .map(|m| (m.name(), m))
        .collect();
    for s in samples {
        let Some(m) = methods.get(s.method.as_str()) else {
            out.problem(format!("no reference condenser named {}", s.method));
            continue;
        };
        match catch(|| m.condense_shared(handle.registry(), &s.graph, &s.spec)) {
            None => out.problem(format!("{}: reference condense_shared panicked", s.method)),
            Some(c) => {
                validate(out, &s.graph, &c, &s.method);
                if CondensedSummary::from(&c) != s.reply {
                    out.problem(format!(
                        "{} ratio {} seed {}: served reply differs from condense_shared",
                        s.method, s.spec.ratio, s.spec.seed
                    ));
                }
            }
        }
    }
}

/// Error replies by (method or request kind, code), for the run log.
#[derive(Debug, Default)]
pub struct ErrorTally(pub BTreeMap<String, u64>);

impl ErrorTally {
    pub fn add(&mut self, what: &str, reply: &Reply) {
        if let Reply::Error { code, .. } = reply {
            *self.0.entry(format!("{what}/{code:?}")).or_default() += 1;
        }
    }

    pub fn print(&self) {
        let parts: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "errors {}",
            if parts.is_empty() {
                "none".into()
            } else {
                parts.join(" ")
            }
        );
    }
}

/// Counter snapshot taken when the measured phase starts.
pub struct Before {
    stats: StatsReply,
    pool: PoolStats,
}

impl Before {
    pub fn take(handle: &ServeHandle) -> Self {
        Before {
            stats: handle.stats(),
            pool: handle.pool().stats(),
        }
    }

    /// Server, pool and registry counters of the measured phase.
    /// `condense_sent` is how many condense requests the client sent.
    pub fn report(&self, out: &mut Outcome, handle: &ServeHandle, condense_sent: u64) {
        let (b, a) = (&self.stats, handle.stats());
        let fast = a.fast_path_hits - b.fast_path_hits;
        let ran = (a.condense_ok - b.condense_ok) + (a.worker_panics - b.worker_panics);
        let pool = handle.pool().stats();
        let executed = pool.executed - self.pool.executed;
        // A memo hit counts as a fast-path hit but runs nothing; every
        // other fast-path hit ran its condensation inline.
        let memo = fast.saturating_sub(ran.saturating_sub(executed));
        out.layer("serve.fast_path_share", share(fast, condense_sent));
        out.layer("serve.memo_hit_share", share(memo, condense_sent));
        out.layer("serve.coalesced", (a.coalesced - b.coalesced) as f64);
        out.layer("serve.overloaded", (a.overloaded - b.overloaded) as f64);
        out.layer(
            "serve.worker_panics",
            (a.worker_panics - b.worker_panics) as f64,
        );
        out.layer("pool.executed", executed as f64);
        out.layer("pool.peak_depth", pool.peak_depth as f64);
        out.layer(
            "pool.rejected_full",
            (pool.rejected_full - self.pool.rejected_full) as f64,
        );
        let hits = a.registry_hits - b.registry_hits;
        let misses = a.registry_misses - b.registry_misses;
        out.layer("registry.hit_share", share(hits, hits + misses));
        out.layer("registry.resident_mb", a.resident_bytes as f64 / MIB);
        out.layer("registry.contexts", a.registry_contexts as f64);
        out.layer("registry.duplicate_computes", a.duplicate_computes as f64);
    }
}

/// Cache counters of the registry's contexts for `graphs`.
pub fn registry_caches(handle: &ServeHandle, graphs: &[Arc<HeteroGraph>]) -> CacheTotals {
    let spec = spec_of(0.5, 0, 1);
    let mut t = CacheTotals::default();
    for g in graphs {
        if let Some(ctx) = handle.registry().peek(g, &spec) {
            t.add(&ctx.stats());
            t.cache_bytes += ctx.cache_bytes() as u64;
        }
    }
    t
}

/// A context built like the registry's, private to the traced run, on
/// which served FreeHGC requests are replayed stage by stage.
pub fn mirror_context(graph: &Arc<HeteroGraph>) -> CondenseContext<'static> {
    let knobs = spec_of(0.5, 0, 1);
    CondenseContext::shared(Arc::clone(graph))
        .with_max_row_nnz(knobs.max_row_nnz)
        .with_cache_budget(knobs.cache_budget())
}

/// Timings of the FreeHGC replays of one traced client.
#[derive(Debug, Default)]
pub struct Replays {
    pub staged_ms: Vec<f64>,
    pub plain_ms: Vec<f64>,
    pub counts: ComposeCounts,
}

impl Replays {
    /// Replays a served FreeHGC request on `mirror`, stage by stage and
    /// as one plain call; both must reproduce the served fingerprint.
    pub fn replay(
        &mut self,
        out_problems: &mut Vec<String>,
        tracer: &Tracer,
        mirror: &CondenseContext<'_>,
        spec: &CondenseSpec,
        req: u64,
        served: (u64, u64),
    ) {
        let t0 = Instant::now();
        let (staged, counts) = tracer.scope("replay", None, req, |span| {
            condense_staged(mirror, spec, tracer, span, req)
        });
        self.staged_ms.push(super::ms_since(t0));
        self.counts = counts;
        let t1 = Instant::now();
        let plain = FreeHgc::default().condense_in(mirror, spec);
        self.plain_ms.push(super::ms_since(t1));
        if fingerprint(&staged) != served || fingerprint(&plain) != served {
            out_problems.push(format!(
                "request {req}: staged replay or condense_in differs from the served reply"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freehgc_baselines::GCondBaseline;
    use freehgc_serve::{ErrorCode, ServeConfig};

    #[test]
    fn typed_errors_and_transport_errors_are_failures() {
        assert!(!is_failure(Ok(&Reply::Pong)));
        let overloaded = Reply::Error {
            code: ErrorCode::Overloaded,
            message: String::new(),
        };
        assert!(is_failure(Ok(&overloaded)));
        assert!(is_failure(Err(&std::io::Error::other("connection reset"))));

        // A baseline's simulated device OOM comes back as a typed
        // `WorkerPanic` reply, and counts as a failure.
        let handle = ServeHandle::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        handle.register_graph("g", Arc::new(freehgc_datasets::tiny(0)));
        handle.register_method(Box::new(GCondBaseline {
            memory_limit_bytes: 64,
            ..GCondBaseline::default()
        }));
        let reply = handle.call(&condense(GraphRef::Id("g".into()), "GCond", 0.2, 1, 2));
        handle.shutdown();
        assert_eq!(reply.error_code(), Some(ErrorCode::WorkerPanic));
        assert!(is_failure(Ok(&reply)));
    }
}
