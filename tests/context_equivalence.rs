//! Shared-context equivalence: condensing through one warm, reused
//! [`CondenseContext`] must be bitwise-identical to fresh-per-call
//! condensation — for FreeHGC and every baseline, across a ratio sweep.
//! A context memoizes deterministic pure functions of the full graph, so
//! caching must be invisible in the outputs; this suite is the
//! system-level enforcement of that contract.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{CondenseContext, CondenseSpec, CondensedGraph, Condenser, HeteroGraph};
use freehgc::hgnn::propagation::{propagate, propagate_ctx};

/// FreeHGC plus all five baselines of the paper's §V-A comparison, with
/// the gradient-matching methods on their quick schedules.
fn condensers() -> Vec<Box<dyn Condenser>> {
    let quick_gm = GradMatchConfig {
        outer: 3,
        inner: 2,
        relay_samples: 2,
        ..Default::default()
    };
    vec![
        Box::new(FreeHgc::default()),
        Box::new(RandomHg),
        Box::new(HerdingHg),
        Box::new(KCenterHg),
        Box::new(CoarseningHg),
        Box::new(HGCondBaseline {
            cfg: quick_gm.clone(),
            kmeans_iters: 3,
        }),
        Box::new(GCondBaseline {
            cfg: quick_gm,
            ..Default::default()
        }),
    ]
}

fn assert_graphs_equal(a: &HeteroGraph, b: &HeteroGraph, what: &str) {
    let schema = a.schema();
    for t in schema.node_type_ids() {
        assert_eq!(a.num_nodes(t), b.num_nodes(t), "{what}: node count {t:?}");
        assert_eq!(a.features(t), b.features(t), "{what}: features {t:?}");
    }
    for e in schema.edge_type_ids() {
        assert_eq!(a.adjacency(e), b.adjacency(e), "{what}: adjacency {e:?}");
    }
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    assert_eq!(a.split(), b.split(), "{what}: split");
}

fn assert_condensed_equal(a: &CondensedGraph, b: &CondensedGraph, what: &str) {
    assert_eq!(a.orig_ids, b.orig_ids, "{what}: provenance");
    assert_graphs_equal(&a.graph, &b.graph, what);
}

#[test]
fn shared_context_matches_fresh_for_every_condenser_across_ratios() {
    let g = tiny(21);
    // ONE context for the whole sweep: every method and ratio reuses it.
    let ctx = CondenseContext::new(&g);
    for c in condensers() {
        for ratio in [0.15, 0.3] {
            let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(5);
            let fresh = c.condense(&g, &spec);
            let shared = c.condense_in(&ctx, &spec);
            assert_condensed_equal(&fresh, &shared, &format!("{} @ ratio {ratio}", c.name()));
        }
    }
    // The sweep must actually have exercised the caches, or this test
    // proves nothing about warm-context behaviour.
    assert!(
        ctx.stats().total_hits() > 0,
        "shared context recorded no cache hits across the sweep: {:?}",
        ctx.stats()
    );
}

#[test]
fn repeated_runs_through_one_context_match_fresh_run() {
    // A cold, fresh-per-call run versus the same spec run twice through
    // one shared context.
    let g = tiny(22);
    let ctx = CondenseContext::new(&g);
    for c in condensers() {
        let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(9);
        let reference = c.condense(&g, &spec);
        // First warm-context run fills the caches, second one hits them;
        // both must match the fresh reference.
        let first = c.condense_in(&ctx, &spec);
        let second = c.condense_in(&ctx, &spec);
        assert_condensed_equal(&reference, &first, &format!("{} cold-ctx", c.name()));
        assert_condensed_equal(&reference, &second, &format!("{} warm-ctx", c.name()));
    }
}

#[test]
fn eval_features_match_between_fresh_and_shared_context() {
    let g = tiny(23);
    let ctx = CondenseContext::new(&g);
    for (hops, paths) in [(1, 8), (2, 12), (2, 24)] {
        let fresh = propagate(&g, hops, paths);
        let shared = propagate_ctx(&ctx, hops, paths);
        assert_eq!(
            fresh.path_names, shared.path_names,
            "({hops},{paths}): block names"
        );
        for (i, (fb, sb)) in fresh.blocks.iter().zip(&shared.blocks).enumerate() {
            assert_eq!(fb.data, sb.data, "({hops},{paths}): block {i}");
        }
    }
    // A warm hit returns the same bits as a fresh propagation.
    let warm = propagate_ctx(&ctx, 2, 12);
    let fresh = propagate(&g, 2, 12);
    for (wb, fb) in warm.blocks.iter().zip(&fresh.blocks) {
        assert_eq!(wb.data, fb.data);
    }
}

#[test]
fn condense_spec_caps_flow_through_both_layers() {
    // The max_paths knob must change condensation and propagation in
    // lockstep: a spec with a tiny cap selects from (and propagates
    // over) the same reduced path family.
    let g = tiny(24);
    let ctx = CondenseContext::new(&g);
    let narrow = CondenseSpec::new(0.3).with_max_hops(2).with_max_paths(2);
    let wide = CondenseSpec::new(0.3).with_max_hops(2).with_max_paths(24);
    let c = FreeHgc::default();
    let a = c.condense_in(&ctx, &narrow);
    let b = c.condense_in(&ctx, &wide);
    // Both are valid condensations of the same graph...
    a.validate(&g);
    b.validate(&g);
    // ...and propagation under the same caps yields matching block
    // families for full and condensed graphs (the alignment the
    // train-on-condensed / test-on-full protocol depends on).
    let pf_full = propagate_ctx(&ctx, 2, 2);
    let pf_cond = propagate(&a.graph, 2, 2);
    assert_eq!(pf_full.path_names, pf_cond.path_names);
}
