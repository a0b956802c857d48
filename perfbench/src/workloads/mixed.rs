//! `serve-mixed` — front-door traffic over TCP, writes and evictions
//! beside reads.
//!
//! One client thread sends cycles of 20 requests over a `ServeClient`
//! connection, in a seeded order within each cycle:
//!
//! | class | per cycle | what |
//! |---|---|---|
//! | memo | 6 | repeat of one of the recently completed keys (reply memo) |
//! | ping, stats | 1 + 1 | answered inline |
//! | warm | 2 | FreeHGC, fresh seed, ACM or IMDB ×2 (warm registry contexts) |
//! | delta | 3 + 3 | `ApplyDelta` (edge adds) on a live DBLP ×1 graph, then a FreeHGC read of the mutated graph |
//! | cold | 2 | FreeHGC on a `GraphRef::Inline` ACM ×0.5 spec, run in the worker pool |
//! | coalesce | 2 | one never-seen key sent at once on this and a second connection |
//!
//! The two requests of a coalesced pair are in flight together and
//! share the pair's CPU time; every other request is alone in flight.
//!
//! Inline specs come from a pool of [`INLINE_POOL`]: the
//! first request of each is first sight (the catalog generates and keeps
//! it — its inline map never evicts, a known defect this workload keeps
//! visible in `peak_rss_mb`); later requests of a spec find its context
//! evicted again, because `resident_budget` ([`RESIDENT_BUDGET`]) sits
//! above the warm graphs' caches but below the working set, so
//! `evict_idle` runs after every cold computation.
//!
//! The shares place the percentiles inside a class, not on a boundary:
//! memo, ping and stats take the fastest 40% of requests, delta writes,
//! warm and coalesced reads the next 35% (the median falls here), cold
//! reads the next 10% and reads of a just-mutated graph the slowest 15%
//! (p90 falls here).

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
use crate::stats::share;
use crate::trace::Tracer;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{CondenseContext, Condenser, GraphDelta, HeteroGraph};
use freehgc_serve::wire;
use freehgc_serve::{
    CondensedSummary, GraphRef, Reply, Request, ServeClient, ServeConfig, ServeHandle, TcpServer,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Warm registered graphs: (id, kind, scale).
const WARM: [(&str, DatasetKind, f64); 2] = [
    ("ACM", DatasetKind::Acm, 2.0),
    ("IMDB", DatasetKind::Imdb, 2.0),
];
const LIVE_ID: &str = "DBLP-live";
const LIVE_KIND: DatasetKind = DatasetKind::Dblp;
const LIVE_SCALE: f64 = 1.0;
const INLINE_KIND: &str = "ACM";
const INLINE_SCALE: f64 = 0.5;
pub const INLINE_POOL: u64 = 48;
const HOPS: u32 = 3;
const RATIOS: [f64; 3] = [0.0125, 0.025, 0.05];
/// Registry byte budget: above the warm graphs' resident caches (about
/// 15 MiB on this generator) plus a few cycles of new inline and delta
/// contexts, so least-recently-used eviction takes those and leaves the
/// warm graphs resident; below the ever-growing working set.
pub const RESIDENT_BUDGET: u64 = 32 << 20;
const WARM_SEED: u64 = u64::MAX;
/// Memo repeats pick among this many of the latest completed keys, well
/// inside the server's 256-entry reply memo.
const RECENT: usize = 16;
/// Edges added by one delta.
const DELTA_EDGES: usize = 4;
const SAMPLE_EVERY: usize = 23;
const MAX_SAMPLES: usize = 20;

/// One slot of a cycle, with everything random already drawn.
#[derive(Clone, Debug, PartialEq)]
pub enum Slot {
    Memo {
        pick: u64,
    },
    Ping,
    Stats,
    Warm {
        graph: usize,
        ratio: f64,
        seed: u64,
    },
    /// Edge adds on relation `edge` (modulo the relation count), then a
    /// read of the mutated graph.
    Delta {
        edge: usize,
        draws: [u64; 2 * DELTA_EDGES],
        read_seed: u64,
    },
    Cold {
        seed: u64,
    },
    Coalesce,
}

/// The slots of cycle `n`, in canonical order, seeds not yet drawn (a
/// delta slot and the coalesce slot are two requests each). Every cycle does the same work: one warm
/// read per warm graph (the ratio rotating with `n`) and one delta per
/// relation of the live graph; only order and seeds are random.
fn cycle(n: usize) -> Vec<Slot> {
    let mut v = vec![Slot::Memo { pick: 0 }; 6];
    v.extend([Slot::Ping, Slot::Stats]);
    v.extend((0..WARM.len()).map(|graph| Slot::Warm {
        graph,
        ratio: RATIOS[(n + graph) % RATIOS.len()],
        seed: 0,
    }));
    v.extend((0..3).map(|edge| Slot::Delta {
        edge,
        draws: [0; 2 * DELTA_EDGES],
        read_seed: 0,
    }));
    v.extend(vec![Slot::Cold { seed: 0 }; 2]);
    v.push(Slot::Coalesce);
    v
}

pub struct Script {
    rng: Rng,
    cycles: usize,
    pending: Vec<Slot>,
}

pub fn script(seed: u64) -> Script {
    Script {
        rng: Rng::new(seed),
        cycles: 0,
        pending: Vec::new(),
    }
}

impl Iterator for Script {
    type Item = Slot;

    fn next(&mut self) -> Option<Slot> {
        if self.pending.is_empty() {
            let mut slots = cycle(self.cycles);
            self.cycles += 1;
            self.rng.shuffle(&mut slots);
            let rng = &mut self.rng;
            for s in slots.iter_mut() {
                match s {
                    Slot::Memo { pick } => *pick = rng.next_u64(),
                    Slot::Warm { seed, .. } | Slot::Cold { seed } => *seed = rng.next_u64(),
                    Slot::Delta {
                        draws, read_seed, ..
                    } => {
                        for d in draws.iter_mut() {
                            *d = rng.next_u64();
                        }
                        *read_seed = rng.next_u64();
                    }
                    Slot::Ping | Slot::Stats | Slot::Coalesce => {}
                }
            }
            slots.reverse();
            self.pending = slots;
        }
        self.pending.pop()
    }
}

pub fn script_digest(seed: u64) -> Digest {
    let mut d = Digest::default();
    for slot in script(seed).take(200) {
        d.str(&format!("{slot:?}"));
    }
    d
}

/// The delta a slot describes, on `g`: edge adds on one relation,
/// endpoints drawn in range.
fn delta_of(g: &HeteroGraph, edge: usize, draws: &[u64]) -> GraphDelta {
    let schema = g.schema();
    let edges: Vec<_> = schema.edge_type_ids().collect();
    let e = edges[edge % edges.len()];
    let (src, dst) = schema.edge_endpoints(e);
    let mut delta = GraphDelta::new();
    for pair in draws.chunks(2) {
        delta.add_edge(
            e,
            (pair[0] % g.num_nodes(src) as u64) as u32,
            (pair[1] % g.num_nodes(dst) as u64) as u32,
        );
    }
    delta
}

/// The `k`-th coalesced request.
fn coalesce_request(seed: u64, k: u64) -> (usize, f64, u64) {
    let mut rng = Rng::new(seed ^ 0xc0a1_e5ce).fork(k);
    let graph = (k % WARM.len() as u64) as usize;
    (
        graph,
        RATIOS[(k % RATIOS.len() as u64) as usize],
        rng.next_u64(),
    )
}

/// The inline spec seed of the `n`-th cold request.
fn inline_seed(seed: u64, n: u64) -> u64 {
    Rng::new(seed ^ 0x1d11_e5ed).next_u64() ^ (n % INLINE_POOL)
}

/// Request ids of coalesced pairs, sent as raw frames, start here so
/// they never meet the ids `ServeClient::call` numbers from 1.
const PAIR_IDS: u64 = 1 << 62;

struct Server {
    tcp: TcpServer,
    warm: Vec<Arc<HeteroGraph>>,
    /// The client's two connections; the second carries the other half
    /// of each coalesced pair.
    conns: Option<(ServeClient, ServeClient)>,
}

#[derive(Default)]
struct ClientResult {
    /// Operations, their times and output mismatches.
    ops: Outcome,
    by_class: BTreeMap<&'static str, Vec<f64>>,
    ping_us: Vec<f64>,
    log: OutputLog,
    samples: Vec<Sample>,
    /// Inline samples resolve their graph after the run.
    inline_samples: Vec<(u64, f64, u64, CondensedSummary)>,
    last_delta_read: Option<Sample>,
    delta_reused: u64,
    delta_dropped: u64,
    errors: ErrorTally,
    replays: Replays,
    wire: (Vec<f64>, Vec<f64>, Vec<f64>),
}

struct Shared<'a> {
    cfg: &'a RunCfg<'a>,
    handle: &'a ServeHandle,
    warm: &'a [Arc<HeteroGraph>],
    mirrors: &'a [CondenseContext<'static>],
    warm_keys: &'a [(Request, CondensedSummary)],
    clock: &'a Clock,
}

/// Sends `req` on both connections before reading either reply, so the
/// server sees two identical requests in flight at once.
fn call_pair(
    a: &mut ServeClient,
    b: &mut ServeClient,
    k: u64,
    req: &Request,
) -> std::io::Result<(Reply, Reply)> {
    let ids = (PAIR_IDS + 2 * k, PAIR_IDS + 2 * k + 1);
    a.send_raw(&wire::encode_request(ids.0, req))?;
    b.send_raw(&wire::encode_request(ids.1, req))?;
    let (ra, reply_a) = a.read_reply()?;
    let (rb, reply_b) = b.read_reply()?;
    if (ra, rb) != ids {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("pair replies {ra}, {rb} do not echo requests {ids:?}"),
        ));
    }
    Ok((reply_a, reply_b))
}

fn client(a: &mut ServeClient, b: &mut ServeClient, sh: &Shared<'_>) -> ClientResult {
    let mut r = ClientResult::default();
    let seed = sh.cfg.seed;
    // Keys seen complete, with their replies: the memo pool.
    let mut recent: VecDeque<(Request, CondensedSummary)> = sh.warm_keys.iter().cloned().collect();
    let (mut colds, mut coalesces) = (0u64, 0u64);
    let mut live = sh
        .handle
        .catalog()
        .get(LIVE_ID)
        .expect("live graph registered");
    let mut index = 0usize;
    let cycle_len = cycle(0).len();
    for (n, slot) in script(seed).enumerate() {
        if n % cycle_len == 0 && !sh.clock.more() {
            break;
        }
        // Each slot expands to its (class, request) pairs; a coalesced
        // pair is one request sent twice at once.
        let mut ops: Vec<(&'static str, Request)> = Vec::new();
        match &slot {
            Slot::Memo { pick } => {
                let (req, _) = &recent[(*pick % recent.len() as u64) as usize];
                ops.push(("memo", req.clone()));
            }
            Slot::Ping => ops.push(("ping", Request::Ping)),
            Slot::Stats => ops.push(("stats", Request::Stats)),
            Slot::Warm { graph, ratio, seed } => ops.push((
                "warm",
                condense(
                    GraphRef::Id(WARM[*graph].0.into()),
                    "FreeHGC",
                    *ratio,
                    *seed,
                    HOPS,
                ),
            )),
            Slot::Delta {
                edge,
                draws,
                read_seed,
            } => {
                ops.push((
                    "write",
                    Request::ApplyDelta {
                        graph_id: LIVE_ID.into(),
                        delta: delta_of(&live, *edge, draws),
                    },
                ));
                ops.push((
                    "delta",
                    condense(
                        GraphRef::Id(LIVE_ID.into()),
                        "FreeHGC",
                        RATIOS[1],
                        *read_seed,
                        HOPS,
                    ),
                ));
            }
            Slot::Cold { seed } => {
                let inline = GraphRef::Inline {
                    kind: INLINE_KIND.into(),
                    scale: INLINE_SCALE,
                    seed: inline_seed(sh.cfg.seed, colds),
                };
                colds += 1;
                ops.push(("cold", condense(inline, "FreeHGC", RATIOS[2], *seed, HOPS)));
            }
            Slot::Coalesce => {
                let (g, ratio, s) = coalesce_request(seed, coalesces);
                ops.push((
                    "coalesce",
                    condense(GraphRef::Id(WARM[g].0.into()), "FreeHGC", ratio, s, HOPS),
                ));
            }
        }
        for (class, req) in ops {
            let i = index;
            let rid = i as u64;
            if let Some(t) = sh.cfg.tracer {
                let t0 = Instant::now();
                let frame = t.scope("wire.encode", None, rid, |_| {
                    wire::encode_request(rid, &req)
                });
                r.wire.0.push(ms_since(t0) * 1e3);
                std::hint::black_box(frame);
            }
            let timer = OpTimer::start();
            let result = match (class, sh.cfg.tracer) {
                ("coalesce", Some(t)) => t.scope("tcp.call", None, rid, |_| {
                    call_pair(a, b, coalesces, &req).map(|(x, y)| vec![x, y])
                }),
                ("coalesce", None) => call_pair(a, b, coalesces, &req).map(|(x, y)| vec![x, y]),
                (_, Some(t)) => t.scope("tcp.call", None, rid, |_| a.call(&req).map(|x| vec![x])),
                (_, None) => a.call(&req).map(|x| vec![x]),
            };
            let (ms, cpu) = timer.stop();
            let replies = match result {
                Ok(replies) => replies,
                Err(e) => {
                    // The connection is gone: the client stops here.
                    r.ops.op(false, ms, cpu);
                    eprintln!("perfbench: transport error {e}");
                    return r;
                }
            };
            if class == "coalesce" {
                coalesces += 1;
                if replies[0] != replies[1] {
                    r.ops.problem(format!(
                        "coalesced pair {}: the two connections got different replies",
                        coalesces - 1
                    ));
                }
            }
            // The requests of a pair share its CPU time.
            let share = replies.len() as f64;
            for reply in replies {
                index += 1;
                let ok = !is_failure(Ok(&reply));
                r.ops.op(ok, ms, cpu / share);
                if let Some(t) = sh.cfg.tracer {
                    let bytes = wire::encode_reply(rid, &reply);
                    r.wire.2.push(bytes.len() as f64);
                    let t0 = Instant::now();
                    let decoded = t.scope("wire.decode", None, rid, |_| wire::decode_reply(&bytes));
                    r.wire.1.push(ms_since(t0) * 1e3);
                    if decoded.map(|(_, back)| back) != Ok(reply.clone()) {
                        r.ops
                            .problem(format!("request {rid}: reply does not round-trip the wire"));
                    }
                }
                if !ok {
                    r.errors.add(class, &reply);
                    continue;
                }
                sh.clock.succeeded();
                r.by_class.entry(class).or_default().push(ms);
                match (class, &req, reply) {
                    ("ping", _, Reply::Pong) => r.ping_us.push(ms * 1e3),
                    ("stats", _, Reply::Stats(_)) => {}
                    (
                        "write",
                        Request::ApplyDelta { graph_id, .. },
                        Reply::DeltaApplied {
                            new_fingerprint,
                            reused_entries,
                            dropped_entries,
                        },
                    ) => {
                        live = sh
                            .handle
                            .catalog()
                            .get(graph_id)
                            .expect("live graph registered");
                        let fp = live.fingerprint();
                        if (fp.0, fp.1) != new_fingerprint {
                            r.ops
                                .problem(format!("{graph_id}: delta reply names another graph"));
                        }
                        r.delta_reused += reused_entries;
                        r.delta_dropped += dropped_entries;
                        r.log.push(i, new_fingerprint);
                    }
                    (
                        _,
                        Request::Condense {
                            graph, ratio, seed, ..
                        },
                        Reply::Condensed(s),
                    ) => {
                        r.log.push(i, s.fingerprint);
                        let spec = spec_of(*ratio, *seed, HOPS);
                        if class == "memo" {
                            let original = recent.iter().find(|(q, _)| q == &req).map(|(_, s)| s);
                            if original != Some(&s) {
                                r.ops.problem(format!("request {rid}: memo reply differs"));
                            }
                        }
                        if class == "warm" {
                            if let (Some(t), GraphRef::Id(id)) = (sh.cfg.tracer, graph) {
                                let g = WARM.iter().position(|w| w.0 == id).expect("warm graph");
                                r.replays.replay(
                                    &mut r.ops.problems,
                                    t,
                                    &sh.mirrors[g],
                                    &spec,
                                    rid,
                                    s.fingerprint,
                                );
                            }
                        }
                        if class == "delta" {
                            // Only the latest read of the mutated graph is
                            // kept: older versions are not pinned in memory.
                            r.last_delta_read = Some(Sample {
                                graph: Arc::clone(&live),
                                method: "FreeHGC".into(),
                                spec,
                                reply: s.clone(),
                            });
                        } else if i.is_multiple_of(SAMPLE_EVERY)
                            && r.samples.len() + r.inline_samples.len() < MAX_SAMPLES
                        {
                            match graph {
                                GraphRef::Inline { seed: gs, .. } => {
                                    r.inline_samples.push((*gs, *ratio, *seed, s.clone()))
                                }
                                GraphRef::Id(id) => {
                                    let w =
                                        WARM.iter().position(|w| w.0 == id).expect("warm graph");
                                    r.samples.push(Sample {
                                        graph: Arc::clone(&sh.warm[w]),
                                        method: "FreeHGC".into(),
                                        spec,
                                        reply: s.clone(),
                                    });
                                }
                            }
                        }
                        if class != "delta" && class != "memo" {
                            recent.push_back((req.clone(), s));
                            if recent.len() > RECENT {
                                recent.pop_front();
                            }
                        }
                    }
                    (_, _, other) => r.ops.problem(format!(
                        "request {rid} ({class}): unexpected reply {other:?}"
                    )),
                }
            }
        }
    }
    r
}

/// The warm-up's completed keys and replies: the memo pool before any
/// measured request completes.
fn warm_keys(handle: &ServeHandle) -> Vec<(Request, CondensedSummary)> {
    (0..WARM.len())
        .map(|g| {
            let req = condense(
                GraphRef::Id(WARM[g].0.into()),
                "FreeHGC",
                RATIOS[0],
                WARM_SEED,
                HOPS,
            );
            match handle.call(&req) {
                Reply::Condensed(s) => (req, s),
                other => panic!("warm-up key did not replay: {other:?}"),
            }
        })
        .collect()
}

fn build(generate_ms: &mut Vec<f64>) -> Server {
    let handle = ServeHandle::new(ServeConfig {
        workers: 2,
        resident_budget: Some(RESIDENT_BUDGET),
        ..ServeConfig::default()
    });
    let t0 = Instant::now();
    let warm: Vec<Arc<HeteroGraph>> = WARM
        .iter()
        .map(|&(_, kind, scale)| Arc::new(generate(kind, scale, GRAPH_SEED)))
        .collect();
    let live = generate(LIVE_KIND, LIVE_SCALE, GRAPH_SEED + 1);
    generate_ms.push(ms_since(t0));
    for (w, g) in WARM.iter().zip(&warm) {
        handle.register_graph(w.0, Arc::clone(g));
    }
    handle.register_graph(LIVE_ID, Arc::new(live));
    let mut ids: Vec<String> = WARM.iter().map(|w| w.0.to_string()).collect();
    ids.push(LIVE_ID.into());
    for id in &ids {
        for &ratio in &RATIOS {
            let req = condense(GraphRef::Id(id.clone()), "FreeHGC", ratio, WARM_SEED, HOPS);
            let reply = handle.call(&req);
            assert!(reply.error_code().is_none(), "warm-up failed: {reply:?}");
        }
    }
    let tcp = TcpServer::bind(handle, "127.0.0.1:0").expect("bind a loopback port");
    let connect = || ServeClient::connect(tcp.addr()).expect("connect to the loopback server");
    let conns = Some((connect(), connect()));
    Server { tcp, warm, conns }
}

pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let mut out = Outcome {
        script_digest: script_digest(cfg.seed),
        ..Default::default()
    };
    let mut generate_ms = Vec::new();
    let mut server = repeat_setup(&mut out, || build(&mut generate_ms));
    let handle = server.tcp.handle().clone();
    let mirrors: Vec<CondenseContext<'static>> = match cfg.tracer {
        Some(_) => server
            .warm
            .iter()
            .map(|g| {
                let ctx = mirror_context(g);
                for &ratio in &RATIOS {
                    FreeHgc::default().condense_in(&ctx, &spec_of(ratio, WARM_SEED, HOPS));
                }
                ctx
            })
            .collect(),
        None => Vec::new(),
    };
    let before = Before::take(&handle);
    let caches_before = registry_caches(&handle, &server.warm);
    let clock = Clock::start(cfg.seconds, cfg.tracer.is_some());
    let sh = Shared {
        cfg,
        handle: &handle,
        warm: &server.warm,
        mirrors: &mirrors,
        warm_keys: &warm_keys(&handle),
        clock: &clock,
    };
    let (mut a, mut b) = server.conns.take().expect("connections of the kept set-up");
    let r = client(&mut a, &mut b, &sh);
    out.wall_s = clock.elapsed_s();
    drop((a, b));

    if let Some(t) = cfg.tracer {
        let sent = r
            .by_class
            .iter()
            .filter(|(class, _)| !matches!(**class, "ping" | "stats" | "write"))
            .map(|(_, xs)| xs.len() as u64)
            .sum::<u64>()
            + r.ops.failed;
        before.report(&mut out, &handle, sent);
        registry_caches(&handle, &server.warm)
            .since(&caches_before)
            .report(&mut out);
        traced_layers(&mut out, t, &r, &generate_ms);
    }

    let mut samples = r.samples;
    samples.extend(r.last_delta_read);
    for (gs, ratio, seed, reply) in r.inline_samples {
        let graph = handle
            .catalog()
            .resolve(&GraphRef::Inline {
                kind: INLINE_KIND.into(),
                scale: INLINE_SCALE,
                seed: gs,
            })
            .expect("inline spec resolves");
        samples.push(Sample {
            graph,
            method: "FreeHGC".into(),
            spec: spec_of(ratio, seed, HOPS),
            reply,
        });
    }
    out.absorb_ops(r.ops);
    out.absorb_outputs(&[r.log]);
    r.errors.print();
    check_samples(&mut out, &handle, &samples);
    out.test_acc_pct = accuracy_probe(&server.warm[0], RATIOS[1], 0);
    out
}

fn traced_layers(out: &mut Outcome, t: &Tracer, r: &ClientResult, generate_ms: &[f64]) {
    for (class, metric) in [
        ("memo", "class.memo.p50_ms"),
        ("warm", "class.warm.p50_ms"),
        ("delta", "class.delta.p50_ms"),
        ("cold", "class.cold.p50_ms"),
    ] {
        let ms = r.by_class.get(class).cloned().unwrap_or_default();
        out.layer(metric, p50(&ms));
    }
    out.layer("tcp.ping_p50_us", p50(&r.ping_us));
    out.layer("wire.encode_us", p50(&r.wire.0));
    out.layer("wire.decode_us", p50(&r.wire.1));
    out.layer("wire.reply_bytes", p50(&r.wire.2));
    out.layer(
        "registry.delta_reused_share",
        share(r.delta_reused, r.delta_reused + r.delta_dropped),
    );
    stage_layers(out, t);
    compose_layers(out, r.replays.counts);
    out.layer("method.FreeHGC.p50_ms", p50(&r.replays.plain_ms));
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
        assert_eq!(script_digest(11), script_digest(11));
        assert_ne!(script_digest(11), script_digest(12));
        let slots: Vec<Slot> = script(11).take(3 * cycle(0).len()).collect();
        let count = |f: fn(&Slot) -> bool| slots.iter().filter(|s| f(s)).count();
        assert_eq!(count(|s| matches!(s, Slot::Memo { .. })), 18);
        assert_eq!(count(|s| matches!(s, Slot::Cold { .. })), 6);
        assert_eq!(count(|s| matches!(s, Slot::Delta { .. })), 9);
        assert_eq!(count(|s| matches!(s, Slot::Warm { .. })), 6);
        assert_eq!(count(|s| matches!(s, Slot::Coalesce)), 3);
        // Delta and coalesce slots are two requests: 20 per cycle.
        assert_eq!(cycle(0).len() + 3 + 1, 20);
        // Each cycle warms every graph once and mutates every relation.
        let cycle0: Vec<Slot> = script(11).take(cycle(0).len()).collect();
        let mut edges: Vec<usize> = cycle0
            .iter()
            .filter_map(|s| match s {
                Slot::Delta { edge, .. } => Some(*edge),
                _ => None,
            })
            .collect();
        edges.sort();
        assert_eq!(edges, vec![0, 1, 2]);
        assert_eq!(coalesce_request(11, 3), coalesce_request(11, 3));
        assert_ne!(coalesce_request(11, 3), coalesce_request(11, 4));
        // Inline specs recur once the pool is used up.
        assert_ne!(inline_seed(11, 0), inline_seed(11, 1));
        assert_eq!(inline_seed(11, 1), inline_seed(11, 1 + INLINE_POOL));
    }
}
