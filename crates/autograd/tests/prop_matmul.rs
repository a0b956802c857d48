//! Equivalence suite for the dense matmul kernels across adversarial
//! shapes — 1-column outputs, every `cols % 8` lane remainder,
//! zero-heavy operands (the `a[i,k] == 0.0` skip):
//!
//! * `matmul` is pinned bitwise to `Aᵀ.matmul_tn(B)`, which adds the
//!   same terms (increasing `k`, zeros of `A` skipped) in the same
//!   order through a different loop nest;
//! * the canonical-lane `matmul_nt` is pinned bitwise to its retained
//!   naive reference `matmul_nt_ref`.

use freehgc_autograd::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Quarter-integer values in ±2 with explicit zeros so exact arithmetic
/// coincidences and the zero-skip path both occur.
fn random_matrix(rows: usize, cols: usize, seed: u64, zero_frac: f64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(zero_frac) {
                0.0
            } else {
                (rng.gen_range(-8i32..=8) as f32) * 0.25
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn matmul_matches_reference_on_adversarial_shapes() {
    // (m, k, n): n spans every lane remainder, k includes 1, and the
    // 257/9 case forces many blocks plus a remainder.
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (3, 1, 7),
        (5, 4, 8),
        (7, 3, 9),
        (2, 6, 15),
        (4, 5, 16),
        (6, 2, 17),
        (9, 257, 9),
    ] {
        for zero_frac in [0.0, 0.5] {
            let a = random_matrix(m, k, (m * 31 + n) as u64, zero_frac);
            let b = random_matrix(k, n, (k * 17 + n) as u64, zero_frac);
            let reference = a.transpose().matmul_tn(&b);
            assert_eq!(
                a.matmul(&b).data,
                reference.data,
                "matmul diverged at shape ({m},{k},{n}) zeros={zero_frac}"
            );
        }
    }
}

#[test]
fn matmul_nt_matches_canonical_reference_on_adversarial_shapes() {
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (3, 7, 2),
        (5, 8, 4),
        (7, 9, 3),
        (2, 15, 6),
        (4, 16, 5),
        (6, 17, 8),
        (9, 250, 9),
    ] {
        let a = random_matrix(m, k, (m * 13 + k) as u64, 0.25);
        let b = random_matrix(n, k, (n * 19 + k) as u64, 0.25);
        let reference = a.matmul_nt_ref(&b);
        assert_eq!(
            a.matmul_nt(&b).data,
            reference.data,
            "matmul_nt diverged at shape ({m},{k},{n})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul_kernels_match_references_on_random_shapes(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = random_matrix(m, k, seed, 0.3);
        let b = random_matrix(k, n, seed.wrapping_add(3), 0.3);
        let reference = a.transpose().matmul_tn(&b);
        prop_assert_eq!(&a.matmul(&b).data, &reference.data);
        let bt = random_matrix(n, k, seed.wrapping_add(5), 0.3);
        prop_assert_eq!(&a.matmul_nt(&bt).data, &a.matmul_nt_ref(&bt).data);
    }
}
