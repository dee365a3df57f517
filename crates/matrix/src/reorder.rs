//! Symmetric row/column permutations of a square matrix.
//!
//! Relabelling a matrix's rows and columns together yields the same linear
//! system under different ids: the content hash changes while the structure
//! does not, which is how a caller produces many distinct uploads of one
//! matrix.

use crate::{Coo, Csr};

/// A row/column permutation: `perm[new_index] = old_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<u32>,
}

impl Permutation {
    /// Builds a permutation from a `new → old` table.
    ///
    /// # Panics
    ///
    /// Panics if the table is not a permutation of `0..len`.
    pub fn new(perm: Vec<u32>) -> Self {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!((p as usize) < perm.len() && !seen[p as usize], "table must be a permutation");
            seen[p as usize] = true;
        }
        Permutation { perm }
    }

    /// The identity permutation.
    pub fn identity(n: usize) -> Self {
        Permutation { perm: (0..n as u32).collect() }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Returns `true` for an empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The old index at new position `new`.
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new] as usize
    }

    /// The inverse map: `inv[old_index] = new_index`.
    pub fn inverse_table(&self) -> Vec<u32> {
        let mut inv = vec![0u32; self.perm.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        inv
    }

    /// Applies the permutation symmetrically: `B[i][j] = A[perm(i)][perm(j)]`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or sizes mismatch.
    pub fn apply_symmetric(&self, a: &Csr) -> Csr {
        assert_eq!(a.rows(), a.cols(), "symmetric permutation needs a square matrix");
        assert_eq!(a.rows(), self.len(), "permutation length must match the matrix");
        let inv = self.inverse_table();
        let mut coo = Coo::new(a.rows(), a.cols());
        coo.reserve(a.nnz());
        for i in 0..a.rows() {
            let ni = inv[i] as usize;
            for (j, v) in a.row(i) {
                // lint:allow(R1) permutation length is validated above
                coo.push(ni, inv[j as usize] as usize, v).expect("permuted index in bounds");
            }
        }
        coo.to_csr()
    }

    /// Permutes a vector: `out[i] = x[perm(i)]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn apply_to_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len(), "vector length must match");
        self.perm.iter().map(|&old| x[old as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn permutation_roundtrip_on_vectors() {
        let p = Permutation::new(vec![2, 0, 1]);
        let x = vec![10.0, 20.0, 30.0];
        assert_eq!(p.apply_to_vec(&x), vec![30.0, 10.0, 20.0]);
        let inv = p.inverse_table();
        assert_eq!(inv, vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "must be a permutation")]
    fn rejects_non_permutation() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    fn symmetric_apply_preserves_spmv_up_to_permutation() {
        let m = crate::gen::banded(&crate::gen::BandedConfig { n: 64, ..Default::default() });
        let p = Permutation::new({
            let mut v: Vec<u32> = (0..64).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
            v.shuffle(&mut rng);
            v
        });
        let b = p.apply_symmetric(&m);
        let x: Vec<f64> = (0..64).map(|i| i as f64 * 0.1).collect();
        // B (P x) == P (A x): permuting the system permutes the answer.
        let px = p.apply_to_vec(&x);
        let lhs = b.spmv(&px);
        let rhs = p.apply_to_vec(&m.spmv(&x));
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let m = crate::gen::banded(&crate::gen::BandedConfig { n: 32, ..Default::default() });
        let p = Permutation::identity(32);
        assert_eq!(p.apply_symmetric(&m), m);
        assert!(!p.is_empty());
    }
}
