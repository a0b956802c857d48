//! Property-based tests for the sparse kernels.

use freehgc_sparse::ppr::{dense_resolvent, ppr_push, PprConfig};
use freehgc_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

fn arb_edges(rows: usize, cols: usize, max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec(((0..rows as u32), (0..cols as u32)), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// COO construction with arbitrary duplicates matches a dense
    /// accumulation.
    #[test]
    fn coo_accumulates_like_dense(edges in arb_edges(6, 6, 60)) {
        let mut coo = CooMatrix::new(6, 6);
        let mut dense = vec![0f32; 36];
        for &(r, c) in &edges {
            coo.push(r, c, 1.0);
            dense[r as usize * 6 + c as usize] += 1.0;
        }
        let m = coo.to_csr();
        prop_assert_eq!(m.to_dense(), dense);
    }

    /// spmv agrees with the dense matrix-vector product.
    #[test]
    fn spmv_matches_dense(edges in arb_edges(5, 7, 40), x in prop::collection::vec(-2.0f32..2.0, 7)) {
        let m = CsrMatrix::from_edges(5, 7, &edges);
        let y = m.spmv(&x);
        let d = m.to_dense();
        for r in 0..5 {
            let expect: f32 = (0..7).map(|c| d[r * 7 + c] * x[c]).sum();
            prop_assert!((y[r] - expect).abs() < 1e-3);
        }
    }

    /// spmv_t(x) == transpose().spmv(x).
    #[test]
    fn spmv_t_is_transpose_spmv(edges in arb_edges(6, 4, 30), x in prop::collection::vec(-2.0f32..2.0, 6)) {
        let m = CsrMatrix::from_edges(6, 4, &edges);
        let a = m.spmv_t(&x);
        let b = m.transpose().spmv(&x);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-4);
        }
    }

    /// Symmetric normalization keeps the matrix symmetric when the input
    /// is symmetric and bounds entries by 1.
    #[test]
    fn sym_normalization_properties(edges in arb_edges(6, 6, 30)) {
        let m = CsrMatrix::from_edges(6, 6, &edges).symmetrize();
        let n = m.sym_normalized();
        let d = n.to_dense();
        for i in 0..6 {
            for j in 0..6 {
                prop_assert!((d[i * 6 + j] - d[j * 6 + i]).abs() < 1e-4);
                prop_assert!(d[i * 6 + j].abs() <= 1.0 + 1e-4);
            }
        }
    }

    /// Truncated-series PPR converges to the dense resolvent on small
    /// symmetric operators.
    #[test]
    fn ppr_converges_to_resolvent(edges in arb_edges(5, 5, 20), seed_node in 0usize..5) {
        let m = CsrMatrix::from_edges(5, 5, &edges).symmetrize().sym_normalized();
        let cfg = PprConfig { alpha: 0.3, epsilon: 1e-8, max_iters: 400 };
        let mut seed = vec![0f32; 5];
        seed[seed_node] = 1.0;
        let approx = ppr_push(&m, &seed, &cfg);
        let dense = dense_resolvent(&m.to_dense(), 5, 0.3);
        // seedᵀN with symmetric M equals row seed_node of N.
        for j in 0..5 {
            prop_assert!((approx[j] - dense[seed_node * 5 + j]).abs() < 1e-3,
                "entry {j}: {} vs {}", approx[j], dense[seed_node * 5 + j]);
        }
    }

    /// Pruning then densifying matches thresholding the dense form.
    #[test]
    fn prune_matches_dense_threshold(edges in arb_edges(5, 5, 25)) {
        let m = CsrMatrix::from_edges(5, 5, &edges);
        let p = m.pruned(1.5); // entries are small integers (duplicate counts)
        let d = m.to_dense();
        let pd = p.to_dense();
        for (x, y) in d.iter().zip(&pd) {
            if x.abs() > 1.5 {
                prop_assert_eq!(x, y);
            } else {
                prop_assert_eq!(*y, 0.0);
            }
        }
    }

    /// top_k_per_row keeps at most k entries and never invents values.
    #[test]
    fn top_k_per_row_bounds(edges in arb_edges(6, 8, 48), k in 1usize..5) {
        let m = CsrMatrix::from_edges(6, 8, &edges);
        let t = m.top_k_per_row(k);
        for r in 0..6 {
            prop_assert!(t.row_nnz(r) <= k);
            let (cols, vals) = t.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                prop_assert_eq!(m.get(r, c), v);
            }
        }
    }

    /// Submatrix extraction equals dense slicing.
    #[test]
    fn submatrix_matches_dense(edges in arb_edges(6, 6, 30)) {
        let m = CsrMatrix::from_edges(6, 6, &edges);
        let rows = [1u32, 3, 4];
        let cols = [0u32, 2, 5];
        let s = m.submatrix(&rows, &cols);
        let d = m.to_dense();
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                prop_assert_eq!(s.get(ri, ci as u32), d[r as usize * 6 + c as usize]);
            }
        }
    }
}

/// Random CSR with `rows` rows, `cols` columns and about `per_row`
/// entries per row (duplicate draws merge), values quarter-integers in
/// ±2 so exact duplicates and cancellations occur.
fn random_sparse(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        for _ in 0..per_row {
            let c = rng.gen_range(0..cols as u32);
            let v = (rng.gen_range(-8i32..=8) as f32) * 0.25;
            coo.push(r as u32, c, v);
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transposition is an involution, bit for bit, on random
    /// rectangular matrices, and moves every stored entry to its
    /// mirrored position.
    #[test]
    fn transpose_round_trips_on_random_matrices(
        rows in 1100usize..1600,
        cols in 1100usize..1600,
        seed in 0u64..1000,
    ) {
        let a = random_sparse(rows, cols, 32, seed);
        let t = a.transpose();
        prop_assert_eq!((t.nrows(), t.ncols(), t.nnz()), (cols, rows, a.nnz()));
        for r in (0..rows).step_by(97) {
            let (cs, vs) = a.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                prop_assert_eq!(t.get(c as usize, r as u32), v);
            }
        }
        prop_assert_eq!(t.transpose(), a);
    }
}
