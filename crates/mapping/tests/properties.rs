//! Property tests for the mapping pipeline: every strategy must produce a
//! valid partition and placement on arbitrary matrices, and the clustering
//! heuristic must respect its structural constraints.

use proptest::prelude::*;
use spacea_mapping::placement::{cluster_sets, pe_column_sets};
use spacea_mapping::{LocalityMapping, MachineShape, MappingStrategy, NaiveMapping};
use spacea_matrix::{Coo, Csr};

fn sparse_square() -> impl Strategy<Value = Csr> {
    (2usize..48).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.1f64..5.0), 0..200).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v).expect("in range");
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_strategy_partitions_and_places(a in sparse_square()) {
        let shape = MachineShape::tiny();
        let strategies: [&dyn MappingStrategy; 2] =
            [&NaiveMapping::default(), &LocalityMapping::default()];
        for strategy in strategies {
            let m = strategy.map(&a, &shape);
            prop_assert!(m.assignment.validate().is_ok(), "{} partition", strategy.name());
            prop_assert_eq!(m.placement.len(), shape.product_pes());
            // Placement is a permutation (checked by construction, but
            // verify the round trip anyway).
            let mut seen = vec![false; shape.product_pes()];
            for slot in 0..shape.product_pes() {
                let l = m.placement.logical_at_slot(slot) as usize;
                prop_assert!(!seen[l]);
                seen[l] = true;
            }
        }
    }

    #[test]
    fn workload_sums_are_invariant(a in sparse_square()) {
        // Total assigned work equals nnz for every strategy.
        let shape = MachineShape::tiny();
        for strategy in [&NaiveMapping::default() as &dyn MappingStrategy, &LocalityMapping::default()] {
            let m = strategy.map(&a, &shape);
            let total: usize = m.assignment.workloads(|r| a.row_nnz(r)).iter().sum();
            prop_assert_eq!(total, a.nnz(), "{}", strategy.name());
        }
    }

    #[test]
    fn cluster_sets_respects_structure(
        seed_sets in proptest::collection::vec(
            proptest::collection::vec(0u32..64, 0..12), 1..5
        ),
        q in 1usize..4,
    ) {
        // Build exactly q*k sets for some k.
        let k = seed_sets.len();
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for i in 0..(q * k) {
            let mut s = seed_sets[i % k].clone();
            s.sort_unstable();
            s.dedup();
            sets.push(s);
        }
        let groups = cluster_sets(&sets, q, k);
        prop_assert_eq!(groups.len(), q);
        let mut all: Vec<u32> = Vec::new();
        for g in &groups {
            prop_assert_eq!(g.len(), k, "groups must be exactly k wide");
            all.extend(g.iter().copied());
        }
        all.sort_unstable();
        let expected: Vec<u32> = (0..(q * k) as u32).collect();
        prop_assert_eq!(all, expected, "every set placed exactly once");
    }

    #[test]
    fn pe_column_sets_cover_matrix_columns(a in sparse_square()) {
        let shape = MachineShape::tiny();
        let m = LocalityMapping::default().map(&a, &shape);
        let sets = pe_column_sets(&a, &m.assignment);
        let mut union: Vec<u32> = sets.into_iter().flatten().collect();
        union.sort_unstable();
        union.dedup();
        let mut expected: Vec<u32> = a.col_idx().to_vec();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(union, expected);
    }
}
