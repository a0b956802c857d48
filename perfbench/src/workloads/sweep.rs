//! `serve-sweep` — the paper's comparison grid as a warm service sees it.
//!
//! One in-process client sends every served method × ratio on ACM, DBLP
//! and IMDB ×2 (at each dataset's `paper_hops`) through
//! `ServeHandle::call`. Set-up warms one registry context per graph, so
//! meta-path composition is already cached; every request carries a
//! fresh seed, so every flight key is distinct and the reply memo never
//! hits. One round of the grid holds, per (graph, ratio) cell,
//! [`FREEHGC_PER_CELL`] FreeHGC requests and one of each of the six
//! baselines, except the GCond cells in [`GCOND_OOM`]: those exceed
//! GCond's simulated device budget (a known defect), would fail, and are
//! sent once each after the measured phase instead.

use super::served::{
    check_samples, condense, is_failure, mirror_context, registry_caches, spec_of, Before,
    ErrorTally, Replays, Sample,
};
use super::{
    accuracy_probe, compose_layers, ms_since, overhead_pct, repeat_setup, stage_layers, Clock,
    OpTimer, RunCfg, GRAPH_SEED,
};
use crate::metrics::{Outcome, OutputLog};
use crate::script::{Digest, Rng};
use crate::stats::p50;
use crate::trace::Tracer;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{CondenseContext, Condenser, HeteroGraph};
use freehgc_serve::{default_methods, ErrorCode, GraphRef, Reply, ServeConfig, ServeHandle};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const KINDS: [DatasetKind; 3] = [DatasetKind::Acm, DatasetKind::Dblp, DatasetKind::Imdb];
const SCALE: f64 = 2.0;
const RATIOS: [f64; 3] = [0.0125, 0.025, 0.05];
pub const FREEHGC_PER_CELL: usize = 7;
/// (graph index, ratio) of the GCond cells whose dense working set
/// exceeds GCond's simulated 32 MiB device budget: DBLP ×2 needs 46 MB
/// and IMDB ×2 36 MB at ratio 0.05. The server answers them with a
/// typed `WorkerPanic`.
pub const GCOND_OOM: [(usize, f64); 2] = [(1, 0.05), (2, 0.05)];
/// Seed of the set-up's warm-up requests; measured seeds are drawn from
/// the script and never collide with it in practice.
const WARM_SEED: u64 = u64::MAX;
/// Every this-many-th successful reply is recomputed with
/// `condense_shared`, up to [`MAX_SAMPLES`].
const SAMPLE_EVERY: usize = 29;
const MAX_SAMPLES: usize = 16;

fn hops(graph: usize) -> u32 {
    KINDS[graph].paper_hops() as u32
}

/// One request of the grid.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub graph: usize,
    pub method: &'static str,
    pub ratio: f64,
    pub seed: u64,
}

/// One round of the grid, in canonical order, seeds not yet drawn.
fn round() -> Vec<(usize, &'static str, f64)> {
    let methods: Vec<&'static str> = default_methods().iter().map(|m| m.name()).collect();
    let mut cells = Vec::new();
    for graph in 0..KINDS.len() {
        for &ratio in &RATIOS {
            for &m in &methods {
                let n = match m {
                    "FreeHGC" => FREEHGC_PER_CELL,
                    "GCond" if GCOND_OOM.contains(&(graph, ratio)) => 0,
                    _ => 1,
                };
                cells.extend(std::iter::repeat_n((graph, m, ratio), n));
            }
        }
    }
    cells
}

/// The client's endless request sequence: shuffled rounds of the grid,
/// each request with a freshly drawn seed.
pub struct Script {
    rng: Rng,
    pending: Vec<Op>,
}

pub fn script(seed: u64) -> Script {
    Script {
        rng: Rng::new(seed),
        pending: Vec::new(),
    }
}

impl Iterator for Script {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            let mut cells = round();
            self.rng.shuffle(&mut cells);
            // Popped from the back: reverse so the round runs in
            // shuffled order.
            self.pending = cells
                .into_iter()
                .rev()
                .map(|(graph, method, ratio)| Op {
                    graph,
                    method,
                    ratio,
                    seed: 0,
                })
                .collect();
            for op in self.pending.iter_mut().rev() {
                op.seed = self.rng.next_u64();
            }
        }
        self.pending.pop()
    }
}

pub fn script_digest(seed: u64) -> Digest {
    let mut d = Digest::default();
    for op in script(seed).take(256) {
        d.u64(op.graph as u64);
        d.str(op.method);
        d.u64(op.ratio.to_bits());
        d.u64(op.seed);
    }
    d
}

/// A server with the three graphs registered and warm.
struct Server {
    handle: ServeHandle,
    graphs: Vec<Arc<HeteroGraph>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

#[derive(Default)]
struct ClientResult {
    /// Operations, their times and output mismatches.
    ops: Outcome,
    per_method: BTreeMap<&'static str, Vec<f64>>,
    log: OutputLog,
    samples: Vec<Sample>,
    errors: ErrorTally,
    replays: Replays,
}

fn client(
    cfg: &RunCfg<'_>,
    server: &Server,
    mirrors: &[CondenseContext<'static>],
    clock: &Clock,
) -> ClientResult {
    let mut r = ClientResult::default();
    let round_len = round().len();
    for (i, op) in script(cfg.seed).enumerate() {
        if i % round_len == 0 && !clock.more() {
            break;
        }
        let req = condense(
            GraphRef::Id(KINDS[op.graph].name().into()),
            op.method,
            op.ratio,
            op.seed,
            hops(op.graph),
        );
        let rid = i as u64;
        let timer = OpTimer::start();
        let reply = match cfg.tracer {
            Some(t) => t.scope("serve.call", None, rid, |_| server.handle.call(&req)),
            None => server.handle.call(&req),
        };
        let (ms, cpu) = timer.stop();
        let failed = is_failure(Ok(&reply));
        r.ops.op(!failed, ms, cpu);
        if failed {
            r.errors.add(op.method, &reply);
            continue;
        }
        let Reply::Condensed(summary) = reply else {
            r.ops
                .problem(format!("request {rid}: unexpected reply {reply:?}"));
            continue;
        };
        clock.succeeded();
        r.per_method.entry(op.method).or_default().push(ms);
        r.log.push(i, summary.fingerprint);
        let spec = spec_of(op.ratio, op.seed, hops(op.graph));
        if let (Some(t), "FreeHGC") = (cfg.tracer, op.method) {
            let fp = summary.fingerprint;
            r.replays
                .replay(&mut r.ops.problems, t, &mirrors[op.graph], &spec, rid, fp);
        }
        if i.is_multiple_of(SAMPLE_EVERY) && r.samples.len() < MAX_SAMPLES {
            r.samples.push(Sample {
                graph: Arc::clone(&server.graphs[op.graph]),
                method: op.method.to_string(),
                spec,
                reply: summary,
            });
        }
    }
    r
}

/// Warms `ctx` the way set-up warms the server: one FreeHGC request per
/// ratio on the graph at index `graph`.
fn warm_mirror(ctx: &CondenseContext<'_>, graph: usize) {
    for &ratio in &RATIOS {
        FreeHgc::default().condense_in(ctx, &spec_of(ratio, WARM_SEED, hops(graph)));
    }
}

pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let mut out = Outcome {
        script_digest: script_digest(cfg.seed),
        ..Default::default()
    };
    let mut generate_ms = Vec::new();
    let server = repeat_setup(&mut out, || {
        let t0 = Instant::now();
        let graphs: Vec<Arc<HeteroGraph>> = KINDS
            .iter()
            .map(|&k| Arc::new(generate(k, SCALE, GRAPH_SEED)))
            .collect();
        generate_ms.push(ms_since(t0));
        let handle = ServeHandle::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        for (k, g) in KINDS.iter().zip(&graphs) {
            handle.register_graph(k.name(), Arc::clone(g));
        }
        for (graph, kind) in KINDS.iter().enumerate() {
            for &ratio in &RATIOS {
                let req = condense(
                    GraphRef::Id(kind.name().into()),
                    "FreeHGC",
                    ratio,
                    WARM_SEED,
                    hops(graph),
                );
                let reply = handle.call(&req);
                assert!(reply.error_code().is_none(), "warm-up failed: {reply:?}");
            }
        }
        Server { handle, graphs }
    });

    let mirrors: Vec<CondenseContext<'static>> = match cfg.tracer {
        Some(_) => server
            .graphs
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let ctx = mirror_context(g);
                warm_mirror(&ctx, i);
                ctx
            })
            .collect(),
        None => Vec::new(),
    };
    let before = Before::take(&server.handle);
    let caches_before = registry_caches(&server.handle, &server.graphs);
    let clock = Clock::start(cfg.seconds, cfg.tracer.is_some());
    let r = client(cfg, &server, &mirrors, &clock);
    out.wall_s = clock.elapsed_s();
    let probed = oom_probe(&server);

    if let Some(t) = cfg.tracer {
        before.report(&mut out, &server.handle, r.ops.attempted + probed);
        registry_caches(&server.handle, &server.graphs)
            .since(&caches_before)
            .report(&mut out);
        traced_layers(&mut out, t, &r, &generate_ms);
    }

    out.absorb_ops(r.ops);
    out.absorb_outputs(&[r.log]);
    r.errors.print();
    check_samples(&mut out, &server.handle, &r.samples);
    out.test_acc_pct = accuracy_probe(&server.graphs[1], RATIOS[1], 0);
    out
}

/// Sends each cell of [`GCOND_OOM`] once, after the measured phase, and
/// prints how the server answered: `WorkerPanic` while the defect
/// stands. A reply that condenses is checked like any other. Returns
/// the number of requests sent.
fn oom_probe(server: &Server) -> u64 {
    let mut panics = 0;
    for &(graph, ratio) in &GCOND_OOM {
        let req = condense(
            GraphRef::Id(KINDS[graph].name().into()),
            "GCond",
            ratio,
            0,
            hops(graph),
        );
        match server.handle.call(&req) {
            Reply::Error {
                code: ErrorCode::WorkerPanic,
                ..
            } => panics += 1,
            other => println!(
                "defect gcond-oom: {} ratio {ratio} answered {other:?}",
                KINDS[graph].name()
            ),
        }
    }
    println!(
        "defect gcond-oom: {panics} of {} known-OOM GCond cells answered WorkerPanic",
        GCOND_OOM.len()
    );
    GCOND_OOM.len() as u64
}

fn traced_layers(out: &mut Outcome, t: &Tracer, r: &ClientResult, generate_ms: &[f64]) {
    for m in default_methods() {
        let name = m.name();
        let ms = r.per_method.get(name).cloned().unwrap_or_default();
        out.layer(&format!("method.{name}.p50_ms"), p50(&ms));
    }
    stage_layers(out, t);
    compose_layers(out, r.replays.counts);
    out.layer("datasets.generate_ms", p50(generate_ms));
    out.layer(
        "trace.overhead_pct",
        overhead_pct(&r.replays.staged_ms, &r.replays.plain_ms),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_and_fixed_shares() {
        assert_eq!(script_digest(3), script_digest(3));
        assert_ne!(script_digest(3), script_digest(4));
        let n = round().len();
        assert_eq!(
            n,
            KINDS.len() * RATIOS.len() * (FREEHGC_PER_CELL + 6) - GCOND_OOM.len()
        );
        // Two full rounds hold each cell's shares exactly.
        let ops: Vec<Op> = script(3).take(2 * n).collect();
        let freehgc = ops.iter().filter(|o| o.method == "FreeHGC").count();
        assert_eq!(freehgc, 2 * KINDS.len() * RATIOS.len() * FREEHGC_PER_CELL);
        let gcond = ops.iter().filter(|o| o.method == "GCond").count();
        assert_eq!(gcond, 2 * (KINDS.len() * RATIOS.len() - GCOND_OOM.len()));
        assert!(ops
            .iter()
            .all(|o| o.method != "GCond" || !GCOND_OOM.contains(&(o.graph, o.ratio))));
        // Seeds are fresh, so flight keys never repeat.
        let mut seeds: Vec<u64> = ops.iter().map(|o| o.seed).collect();
        seeds.sort();
        seeds.dedup();
        assert_eq!(seeds.len(), ops.len());
    }
}
