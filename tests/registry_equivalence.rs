//! Serving-layer equivalence: the PR-4 cache layer on top of
//! [`CondenseContext`] must be invisible in every output.
//!
//! Three independent mechanisms are exercised:
//!
//! * **Registry sharing** — condensing through a keyed
//!   [`ContextRegistry`] (graph fingerprint → shared context) must be
//!   bitwise-identical to fresh-per-call condensation, for FreeHGC and
//!   every baseline.
//! * **Cost-aware eviction** — a context whose composed-adjacency cache
//!   is byte-budgeted must produce the same bits as an unbounded one
//!   while never holding more resident bytes than the budget.
//! * **Diversity-bonus memoization** — a warm context that serves the
//!   Eq. 5–7 bonus from cache must select exactly the nodes a cold
//!   context selects.

use freehgc::baselines::{
    CoarseningHg, GCondBaseline, GradMatchConfig, HGCondBaseline, HerdingHg, KCenterHg, RandomHg,
};
use freehgc::core::selection::{condense_target_in, SelectionConfig};
use freehgc::core::FreeHgc;
use freehgc::datasets::tiny;
use freehgc::hetgraph::{
    CondenseContext, CondenseSpec, CondensedGraph, Condenser, ContextRegistry, HeteroGraph,
};
use std::sync::Arc;

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
fn registry_shared_matches_fresh_for_every_condenser() {
    let g = Arc::new(tiny(31));
    // ONE registry for the whole matrix: every method and ratio
    // resolves the same shared context by fingerprint.
    let registry = ContextRegistry::new();
    for c in condensers() {
        for ratio in [0.15, 0.3] {
            let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(5);
            let fresh = c.condense(&g, &spec);
            let shared = c.condense_shared(&registry, &g, &spec);
            assert_condensed_equal(&fresh, &shared, &format!("{} @ ratio {ratio}", c.name()));
        }
    }
    // All specs share the default knobs, so the whole matrix must have
    // resolved to exactly one registered context — and hit it.
    assert_eq!(registry.len(), 1, "one graph, one context");
    let (hits, misses) = registry.lookup_stats();
    assert_eq!(misses, 1, "only the first resolution may miss");
    assert!(hits > 0, "the sweep must reuse the registered context");
}

#[test]
fn concurrent_cold_key_resolves_exactly_once() {
    // N requests race onto one cold registry key: single-flight must
    // elect exactly one builder and coalesce everyone else.
    let g = Arc::new(tiny(36));
    let registry = ContextRegistry::new();
    let spec = CondenseSpec::new(0.2).with_max_hops(2).with_seed(1);
    let n = 8;
    let barrier = std::sync::Barrier::new(n);
    let ctxs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    registry.context_for(&g, &spec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(
        ctxs.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
        "all requests must share one context"
    );
    assert_eq!(
        registry.lookup_stats(),
        (n as u64 - 1, 1),
        "exactly one miss (the leader), N-1 hits"
    );
    assert_eq!(
        registry.fault_stats().duplicate_computes,
        0,
        "single-flight must prevent duplicate cold builds"
    );
    assert_eq!(registry.len(), 1);
}

#[test]
fn evicting_cache_matches_unbounded_and_respects_budget() {
    let g = tiny(32);
    let spec = CondenseSpec::new(0.25).with_max_hops(2).with_seed(9);
    // Warm an unbounded context to learn the composed footprint.
    let unbounded = CondenseContext::for_spec(&g, &spec);
    let reference: Vec<CondensedGraph> = condensers()
        .iter()
        .map(|c| c.condense_in(&unbounded, &spec))
        .collect();
    let budget = (unbounded.composed_bytes() / 2).max(64);

    let evicting = CondenseContext::for_spec(&g, &spec).with_cache_budget(Some(budget));
    for (c, want) in condensers().iter().zip(&reference) {
        let got = c.condense_in(&evicting, &spec);
        assert_condensed_equal(want, &got, &format!("{} evicting", c.name()));
    }
    let st = evicting.stats();
    assert!(
        st.composed_peak_bytes <= budget as u64,
        "peak {} exceeded budget {budget}",
        st.composed_peak_bytes
    );
    assert!(
        st.composed_evictions + st.composed_rejected > 0,
        "the halved budget must actually constrain the cache"
    );
}

#[test]
fn warm_diversity_bonus_matches_cold_selection() {
    let g = tiny(33);
    let budget = 10;
    let cfg = SelectionConfig::default();
    let cold = condense_target_in(&CondenseContext::new(&g), budget, &cfg);
    let ctx = CondenseContext::new(&g);
    let first = condense_target_in(&ctx, budget, &cfg);
    let after_first = ctx.stats().diversity;
    assert!(after_first.1 > 0, "first run computes bonuses");
    let second = condense_target_in(&ctx, budget, &cfg);
    let after_second = ctx.stats().diversity;
    assert_eq!(
        after_second.1, after_first.1,
        "the warm run must not recompute any bonus"
    );
    assert!(
        after_second.0 > after_first.0,
        "the warm run must hit the diversity cache"
    );
    assert_eq!(cold.selected, first.selected, "cold vs fresh");
    assert_eq!(first.selected, second.selected, "cold vs warm");
    assert_eq!(first.scores, second.scores, "scores bitwise");
}

#[test]
fn ratio_sweep_through_one_context_reuses_diversity_bonuses() {
    // The motivating workload: a ratio sweep on one graph. The bonus
    // depends on neither ratio nor seed, so only the first run may miss.
    let g = tiny(34);
    let ctx = CondenseContext::new(&g);
    let c = FreeHgc::default();
    let mut misses_after_first = None;
    for (i, ratio) in [0.1, 0.2, 0.3].into_iter().enumerate() {
        for seed in [0u64, 7] {
            let spec = CondenseSpec::new(ratio).with_max_hops(2).with_seed(seed);
            let shared = c.condense_in(&ctx, &spec);
            let fresh = c.condense(&g, &spec);
            assert_condensed_equal(&fresh, &shared, &format!("ratio {ratio} seed {seed}"));
        }
        if i == 0 {
            misses_after_first = Some(ctx.stats().diversity.1);
        }
    }
    let st = ctx.stats().diversity;
    assert_eq!(
        Some(st.1),
        misses_after_first,
        "later ratios/seeds must not add diversity misses"
    );
    assert!(st.0 > 0, "the sweep must hit the diversity cache");
}
