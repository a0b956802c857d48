//! Stage-by-stage replays of two library calls, each stage inside its
//! own span:
//!
//! * [`condense_staged`] runs the public stages of
//!   `FreeHgc::condense_in` (default configuration) in its order:
//!   meta-path enumeration and composition, Algorithm 1 target
//!   selection, father ranking, leaf synthesis, assembly;
//! * [`eval_staged`] runs the public stages of `Bench::eval_condensed`:
//!   propagation, training, prediction.
//!
//! The traced run checks each replay's output against the plain call's,
//! bit for bit, so the per-stage numbers describe exactly the work the
//! untraced run does.

use crate::trace::{SpanId, Tracer};
use freehgc_core::{
    assemble, condense_father_seeded_in, condense_target_in, synthesize_leaf_in, ImportanceMethod,
    SelectionConfig, TypePlan,
};
use freehgc_eval::Bench;
use freehgc_hetgraph::{CondenseContext, CondenseSpec, CondensedGraph, NodeTypeId, Role};
use freehgc_hgnn::metrics::accuracy;
use freehgc_hgnn::models::{build_model, ModelKind};
use freehgc_hgnn::propagation::propagate;
use freehgc_hgnn::trainer::{predict, train, EvalData};

/// Content fingerprint of a condensed graph, as the server reports it.
pub fn fingerprint(c: &CondensedGraph) -> (u64, u64) {
    let fp = c.graph.fingerprint();
    (fp.0, fp.1)
}

/// Counts from the composition stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComposeCounts {
    pub paths: usize,
    pub composed_nnz: usize,
}

/// `FreeHgc::default().condense_in(ctx, spec)`, one span per stage.
pub fn condense_staged(
    ctx: &CondenseContext<'_>,
    spec: &CondenseSpec,
    tracer: &Tracer,
    parent: SpanId,
    req: u64,
) -> (CondensedGraph, ComposeCounts) {
    ctx.check_spec(spec);
    let g = ctx.graph();
    let schema = g.schema().clone();
    let target = schema.target();
    let stage = |name, f: &mut dyn FnMut()| tracer.scope(name, Some(parent), req, |_| f());

    let mut counts = ComposeCounts::default();
    stage("metapath.compose", &mut || {
        let paths = ctx.metapaths(target, spec.max_hops, spec.max_paths);
        counts.paths = paths.len();
        counts.composed_nnz = paths.iter().map(|p| ctx.adjacency(p).nnz()).sum();
    });

    let mut target_sel = Vec::new();
    stage("selection", &mut || {
        let cfg = SelectionConfig {
            max_hops: spec.max_hops,
            max_paths: spec.max_paths,
            use_rf: true,
            use_jaccard: true,
        };
        let budget = spec.budget_for(g.num_nodes(target));
        target_sel = condense_target_in(ctx, budget, &cfg).selected;
    });

    let mut plans: Vec<Option<TypePlan>> = (0..schema.num_node_types()).map(|_| None).collect();
    plans[target.0 as usize] = Some(TypePlan::Selected(target_sel.clone()));
    let nim = |t: NodeTypeId| {
        TypePlan::Selected(condense_father_seeded_in(
            ctx,
            t,
            Some(&target_sel),
            spec.budget_for(g.num_nodes(t)),
            spec.max_hops,
            spec.max_paths,
            ImportanceMethod::default(),
            spec.seed,
        ))
    };
    for t in schema.types_with_role(Role::Father) {
        let plan = tracer.scope("father", Some(parent), req, |_| nim(t));
        plans[t.0 as usize] = Some(plan);
    }
    for t in schema.types_with_role(Role::Leaf) {
        let parent_type = schema.parent_of(t).unwrap_or(target);
        let (parent_type, parent_ids) = match plans[parent_type.0 as usize].as_ref() {
            Some(TypePlan::Selected(ids)) if parent_type != target => (parent_type, ids.clone()),
            _ => (target, target_sel.clone()),
        };
        let plan = tracer.scope("leaf", Some(parent), req, |_| {
            if schema.edge_between(parent_type, t).is_none() {
                nim(t)
            } else {
                TypePlan::Synthesized(synthesize_leaf_in(
                    ctx,
                    t,
                    parent_type,
                    &parent_ids,
                    spec.budget_for(g.num_nodes(t)),
                ))
            }
        });
        plans[t.0 as usize] = Some(plan);
    }
    let plans: Vec<TypePlan> = plans
        .into_iter()
        .map(|p| p.expect("every node type planned"))
        .collect();
    let out = tracer.scope("assemble", Some(parent), req, |_| assemble(g, &plans));
    (out, counts)
}

/// `bench.eval_condensed(cond, SeHgnn, seed)` (a fraction in `[0, 1]`),
/// one span per stage, with the epochs training ran.
pub fn eval_staged(
    bench: &Bench<'_>,
    cond: &CondensedGraph,
    seed: u64,
    tracer: &Tracer,
    parent: SpanId,
    req: u64,
) -> (f64, usize) {
    let g = bench.graph;
    let pf = tracer.scope("propagate", Some(parent), req, |_| {
        propagate(&cond.graph, bench.cfg.max_hops, bench.cfg.max_paths)
    });
    let (model, epochs) = tracer.scope("train", Some(parent), req, |_| {
        let labels = cond.graph.labels();
        let dims: Vec<usize> = pf.blocks.iter().map(|b| b.cols).collect();
        let mut model = build_model(
            ModelKind::SeHgnn,
            &dims,
            g.num_classes(),
            bench.cfg.train.hidden,
            bench.cfg.train.dropout,
            seed,
        );
        let val = &g.split().val;
        let val_blocks = bench.pf.gather(val);
        let val_labels: Vec<u32> = val.iter().map(|&v| g.labels()[v as usize]).collect();
        let val_data = EvalData {
            blocks: &val_blocks,
            labels: &val_labels,
        };
        let mut cfg = bench.cfg.train.clone();
        cfg.seed = seed;
        let report = train(
            &mut *model,
            &EvalData {
                blocks: &pf.blocks,
                labels,
            },
            (!val_labels.is_empty()).then_some(&val_data),
            &cfg,
        );
        (model, report.epochs_run)
    });
    let acc = tracer.scope("predict", Some(parent), req, |_| {
        let test = &g.split().test;
        let test_labels: Vec<u32> = test.iter().map(|&v| g.labels()[v as usize]).collect();
        accuracy(&predict(&*model, &bench.pf.gather(test)), &test_labels)
    });
    (acc, epochs)
}
