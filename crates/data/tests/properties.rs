//! Property-based tests on dataset generation invariants.

use cap_data::{DatasetSpec, SyntheticDataset};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generation_shape_invariants(
        classes in 2usize..8,
        side in 4usize..10,
        train in 2usize..6,
        test in 1usize..4,
        seed in 0u64..1000,
    ) {
        let spec = DatasetSpec {
            classes,
            image_size: side,
            channels: 3,
            train_per_class: train,
            test_per_class: test,
            noise_std: 0.2,
            max_shift: 1,
            seed,
        };
        let d = SyntheticDataset::generate(&spec).unwrap();
        prop_assert_eq!(d.train().len(), classes * train);
        prop_assert_eq!(d.test().len(), classes * test);
        prop_assert_eq!(d.train().images().shape(), &[classes * train, 3, side, side]);
        // Every class fully populated and labels in range.
        for class in 0..classes {
            prop_assert_eq!(d.train().indices_of_class(class).unwrap().len(), train);
        }
        prop_assert!(d.train().labels().iter().all(|&l| l < classes));
        // All pixels finite.
        prop_assert!(d.train().images().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_seed_same_data(seed in 0u64..1000) {
        let spec = DatasetSpec::cifar10_like()
            .with_image_size(6)
            .with_counts(2, 1)
            .with_seed(seed);
        let a = SyntheticDataset::generate(&spec).unwrap();
        let b = SyntheticDataset::generate(&spec).unwrap();
        prop_assert_eq!(a.train().images(), b.train().images());
    }

    #[test]
    fn subset_then_subset_composes(seed in 0u64..100) {
        let spec = DatasetSpec::cifar10_like()
            .with_image_size(5)
            .with_counts(3, 1)
            .with_seed(seed);
        let d = SyntheticDataset::generate(&spec).unwrap();
        let first = d.train().subset(&[0, 5, 10, 15]).unwrap();
        let second = first.subset(&[1, 3]).unwrap();
        let direct = d.train().subset(&[5, 15]).unwrap();
        prop_assert_eq!(second.images(), direct.images());
        prop_assert_eq!(second.labels(), direct.labels());
    }
}
