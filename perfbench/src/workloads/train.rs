//! `train-condensed` — the paper's second claim: a condensed graph
//! trains an HGNN nearly as well as the whole graph.
//!
//! One client runs a fixed list of (ratio, seed) cells on DBLP ×1, in a
//! seeded order per pass. Each cell condenses through one shared
//! context, as `Bench::run_method` does, then propagates the condensed
//! graph, trains SeHGNN (`TrainConfig::quick`) and predicts the whole
//! graph's test split. Whole passes repeat until the run's time is up;
//! every pass must reproduce the first pass's accuracies bit for bit,
//! and `test_acc_pct` is the first pass's mean.

use super::{
    catch, compose_layers, ms_since, overhead_pct, repeat_setup, stage_layers, validate, Clock,
    OpTimer, RunCfg, GRAPH_SEED,
};
use crate::metrics::{Outcome, OutputLog};
use crate::script::{Digest, Rng};
use crate::stages::{condense_staged, eval_staged, fingerprint};
use crate::stats::p50;
use freehgc_core::FreeHgc;
use freehgc_datasets::{generate, DatasetKind};
use freehgc_eval::{Bench, EvalConfig};
use freehgc_hetgraph::{CondensedGraph, Condenser};
use freehgc_hgnn::models::ModelKind;
use std::time::Instant;

const KIND: DatasetKind = DatasetKind::Dblp;
const SCALE: f64 = 1.0;
const RATIOS: [f64; 3] = [0.025, 0.05, 0.1];
const SEEDS: u64 = 4;

/// The fixed cell list.
fn cells() -> Vec<(f64, u64)> {
    RATIOS
        .iter()
        .flat_map(|&r| (0..SEEDS).map(move |s| (r, s)))
        .collect()
}

/// Cell indices of pass `pass`, in that pass's seeded order.
pub fn pass_order(seed: u64, pass: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells().len()).collect();
    Rng::new(seed).fork(pass).shuffle(&mut order);
    order
}

pub fn script_digest(seed: u64) -> Digest {
    let mut d = Digest::default();
    for pass in 0..8 {
        for i in pass_order(seed, pass) {
            d.u64(i as u64);
        }
    }
    d
}

/// One cell, untraced: condense in the shared context, then the whole
/// downstream evaluation. Accuracy is a fraction.
fn cell_plain(bench: &Bench<'_>, ratio: f64, seed: u64) -> (CondensedGraph, f64) {
    let cond = FreeHgc::default().condense_in(&bench.ctx, &bench.spec(ratio, seed));
    let acc = bench.eval_condensed(&cond, ModelKind::SeHgnn, seed);
    (cond, acc)
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
        // Untimed warm-up: build the shared context and whole-graph
        // propagation, and run one cell.
        let bench = Bench::new(&g, EvalConfig::quick());
        cell_plain(&bench, RATIOS[0], SEEDS);
        drop(bench);
        g
    });
    // The bench borrows the graph, so the kept instance's bench is built
    // (and warmed) again here, exactly as in each timed repetition.
    let bench = Bench::new(&g, EvalConfig::quick());
    cell_plain(&bench, RATIOS[0], SEEDS);

    let cells = cells();
    let mut first_pass: Vec<Option<f64>> = vec![None; cells.len()];
    let clock = Clock::start(cfg.seconds, cfg.tracer.is_some());
    let mut log = OutputLog::default();
    let (mut traced_ms, mut plain_ms, mut epochs) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Default::default();
    let mut index = 0usize;
    // A round is one pass over the cell list.
    while clock.more() {
        let pass = index / cells.len();
        for ci in pass_order(cfg.seed, pass as u64) {
            let (ratio, seed) = cells[ci];
            let i = index;
            index += 1;
            let timer = OpTimer::start();
            let result = match cfg.tracer {
                None => catch(|| cell_plain(&bench, ratio, seed)),
                Some(t) => catch(|| {
                    t.scope("cell", None, i as u64, |span| {
                        let spec = bench.spec(ratio, seed);
                        let (cond, n) = condense_staged(&bench.ctx, &spec, t, span, i as u64);
                        counts = n;
                        let (acc, e) = eval_staged(&bench, &cond, seed, t, span, i as u64);
                        epochs.push(e as f64);
                        (cond, acc)
                    })
                }),
            };
            let (ms, cpu) = timer.stop();
            out.op(result.is_some(), ms, cpu);
            let Some((cond, acc)) = result else {
                continue;
            };
            clock.succeeded();
            validate(&mut out, &g, &cond, "train cell");
            log.push(i, fingerprint(&cond));
            match first_pass[ci] {
                None => first_pass[ci] = Some(acc),
                Some(a) if a.to_bits() == acc.to_bits() => {}
                Some(a) => out.problem(format!(
                    "cell ratio {ratio} seed {seed}: accuracy {acc} differs from the first pass's {a}"
                )),
            }
            if cfg.tracer.is_some() {
                traced_ms.push(ms);
                let t1 = Instant::now();
                let (plain, plain_acc) = cell_plain(&bench, ratio, seed);
                plain_ms.push(ms_since(t1));
                if fingerprint(&plain) != fingerprint(&cond) {
                    out.problem(format!("cell {i}: staged FreeHGC differs from condense_in"));
                }
                if plain_acc.to_bits() != acc.to_bits() {
                    out.problem(format!(
                        "cell {i}: staged training differs from eval_condensed"
                    ));
                }
            }
        }
    }
    out.wall_s = clock.elapsed_s();
    out.absorb_outputs(&[log]);
    let accs: Vec<f64> = first_pass.iter().flatten().copied().collect();
    if accs.len() < cells.len() {
        out.problem("the run did not complete one pass over the cell list");
    }
    out.test_acc_pct = crate::stats::mean(&accs) * 100.0;

    if let Some(t) = cfg.tracer {
        stage_layers(&mut out, t);
        compose_layers(&mut out, counts);
        let mut caches = super::CacheTotals::default();
        caches.add(&bench.ctx.stats());
        caches.cache_bytes = bench.ctx.cache_bytes() as u64;
        caches.report(&mut out);
        out.layer("train.epochs", p50(&epochs));
        out.layer("datasets.generate_ms", p50(&generate_ms));
        out.layer("trace.overhead_pct", overhead_pct(&traced_ms, &plain_ms));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_covers_every_cell_once() {
        assert_eq!(script_digest(2), script_digest(2));
        assert_ne!(script_digest(2), script_digest(3));
        let mut order = pass_order(2, 5);
        order.sort();
        assert_eq!(order, (0..cells().len()).collect::<Vec<_>>());
        assert_ne!(pass_order(2, 0), pass_order(2, 1));
    }
}
