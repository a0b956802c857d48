//! `cold-aminer` — a library user's first condensation.
//!
//! One client calls `FreeHgc::condense` on AMiner ×2 (145k nodes), each
//! call with a fresh context, so nothing is cached: every call pays
//! meta-path composition (SpGEMM), PPR father ranking and assembly. The
//! ratio cycles over {0.01, 0.05, 0.1}; every call has a fresh seed.
//! Serving, the registry and context reuse are bypassed.

use super::{
    accuracy_probe, catch, compose_layers, ms_since, overhead_pct, repeat_setup, stage_layers,
    validate, CacheTotals, Clock, OpTimer, RunCfg, GRAPH_SEED,
};
use crate::metrics::{Outcome, OutputLog};
use crate::script::{Digest, Rng};
use crate::stages::{condense_staged, fingerprint};
use crate::stats::p50;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_hetgraph::{CondenseContext, CondenseSpec, Condenser};
use std::time::Instant;

const KIND: DatasetKind = DatasetKind::Aminer;
const SCALE: f64 = 2.0;
const RATIOS: [f64; 3] = [0.01, 0.05, 0.1];

/// One library call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    pub ratio: f64,
    pub seed: u64,
}

impl Op {
    fn spec(&self) -> CondenseSpec {
        CondenseSpec::new(self.ratio)
            .with_max_hops(KIND.paper_hops())
            .with_seed(self.seed)
    }
}

/// The call sequence for `seed`: the ratio cycle starts at a seeded
/// offset, and each call draws a fresh condensation seed.
pub fn script(seed: u64) -> impl Iterator<Item = Op> {
    let mut rng = Rng::new(seed);
    let offset = rng.below(RATIOS.len());
    (0..).map(move |i| Op {
        ratio: RATIOS[(i + offset) % RATIOS.len()],
        seed: rng.next_u64(),
    })
}

pub fn script_digest(seed: u64) -> Digest {
    let mut d = Digest::default();
    for op in script(seed).take(64) {
        d.u64(op.ratio.to_bits());
        d.u64(op.seed);
    }
    d
}

pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let mut out = Outcome {
        script_digest: script_digest(cfg.seed),
        ..Default::default()
    };
    let mut generate_ms = Vec::new();
    let g = repeat_setup(&mut out, || {
        let t0 = Instant::now();
        let g = generate(KIND, SCALE, GRAPH_SEED);
        generate_ms.push(ms_since(t0));
        // Untimed warm-up: page in code and allocator arenas.
        let warm = Op {
            ratio: RATIOS[0],
            seed: u64::MAX,
        };
        FreeHgc::default().condense(&g, &warm.spec());
        g
    });

    let clock = Clock::start(cfg.seconds, cfg.tracer.is_some());
    let mut log = OutputLog::default();
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let mut caches = CacheTotals::default();
    let mut counts = Default::default();
    for (i, op) in script(cfg.seed).enumerate() {
        // A round is one pass over the ratio cycle.
        if i % RATIOS.len() == 0 && !clock.more() {
            break;
        }
        let spec = op.spec();
        let timer = OpTimer::start();
        let result = match cfg.tracer {
            None => catch(|| FreeHgc::default().condense(&g, &spec)),
            Some(t) => catch(|| {
                t.scope("condense", None, i as u64, |span| {
                    let ctx = CondenseContext::for_spec(&g, &spec);
                    let (c, n) = condense_staged(&ctx, &spec, t, span, i as u64);
                    caches.add(&ctx.stats());
                    caches.cache_bytes = caches.cache_bytes.max(ctx.cache_bytes() as u64);
                    counts = n;
                    c
                })
            }),
        };
        let (ms, cpu) = timer.stop();
        out.op(result.is_some(), ms, cpu);
        let Some(c) = result else {
            continue;
        };
        clock.succeeded();
        validate(&mut out, &g, &c, "cold condense");
        log.push(i, fingerprint(&c));
        if cfg.tracer.is_some() {
            // The untraced call on its own fresh context: same bits.
            traced_ms.push(ms);
            let t1 = Instant::now();
            let plain = FreeHgc::default().condense(&g, &spec);
            plain_ms.push(ms_since(t1));
            if fingerprint(&plain) != fingerprint(&c) {
                out.problem(format!(
                    "call {i}: staged FreeHGC differs from FreeHgc::condense"
                ));
            }
        }
    }
    out.wall_s = clock.elapsed_s();
    out.absorb_outputs(&[log]);
    out.test_acc_pct = accuracy_probe(&g, 0.05, 0);

    if let Some(t) = cfg.tracer {
        stage_layers(&mut out, t);
        compose_layers(&mut out, counts);
        caches.report(&mut out);
        out.layer("datasets.generate_ms", p50(&generate_ms));
        out.layer("method.FreeHGC.p50_ms", p50(&plain_ms));
        out.layer("trace.overhead_pct", overhead_pct(&traced_ms, &plain_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        assert_eq!(script_digest(5), script_digest(5));
        assert_ne!(script_digest(5), script_digest(6));
        let ops: Vec<Op> = script(5).take(6).collect();
        // Every ratio appears once per cycle of three.
        let mut first: Vec<f64> = ops[..3].iter().map(|o| o.ratio).collect();
        first.sort_by(f64::total_cmp);
        assert_eq!(first, RATIOS.to_vec());
        assert_eq!(ops[0].ratio, ops[3].ratio);
    }
}
