//! The load-bearing guarantee of the whole system (Lemma 3.1): every
//! combination of partitioning strategy and detection mode returns
//! exactly the distance-threshold outliers of Definition 2.2.

use dod::prelude::*;
use dod_integration::{mixed_density, reference_outliers, uniform_nd};
use proptest::prelude::*;

fn test_config(params: OutlierParams) -> DodConfig {
    DodConfig::builder(params)
        .sample_rate(1.0)
        .block_size(128)
        .num_reducers(5)
        .target_partitions(12)
        .build()
        .unwrap()
}

type Apply = Box<dyn Fn(dod::DodRunnerBuilder) -> dod::DodRunnerBuilder>;

fn all_runners(params: OutlierParams) -> Vec<(String, DodRunner)> {
    let mut runners = Vec::new();
    let modes: Vec<(&str, Apply)> = vec![
        ("nl", Box::new(|b| b.fixed(AlgorithmKind::NestedLoop))),
        ("cb", Box::new(|b| b.fixed(AlgorithmKind::CellBased))),
        ("ib", Box::new(|b| b.fixed(AlgorithmKind::IndexBased))),
        ("mt", Box::new(|b| b.multi_tactic())),
    ];
    for (mode_name, apply_mode) in &modes {
        let strategies: Vec<(&str, Apply)> = vec![
            ("domain", Box::new(|b| b.strategy(Domain))),
            ("unispace", Box::new(|b| b.strategy(UniSpace))),
            ("ddriven", Box::new(|b| b.strategy(DDriven))),
            (
                "cdriven",
                Box::new(|b| b.strategy(CDriven::new(AlgorithmKind::NestedLoop))),
            ),
            ("dmt", Box::new(|b| b.strategy(Dmt::default()))),
        ];
        for (strat_name, apply_strat) in strategies {
            let builder = DodRunner::builder().config(test_config(params));
            let runner = apply_mode(apply_strat(builder)).build();
            runners.push((format!("{strat_name}+{mode_name}"), runner));
        }
    }
    runners
}

#[test]
fn full_matrix_matches_reference_on_mixed_density_data() {
    let data = mixed_density(1, 700);
    let params = OutlierParams::new(1.2, 4).unwrap();
    let expected = reference_outliers(&data, params);
    assert!(!expected.is_empty(), "test data should contain outliers");
    for (name, runner) in all_runners(params) {
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, expected, "configuration {name}");
    }
}

#[test]
fn full_matrix_matches_reference_in_three_dimensions() {
    let data = uniform_nd(2, 400, 3, 12.0);
    let params = OutlierParams::new(1.6, 3).unwrap();
    let expected = reference_outliers(&data, params);
    for (name, runner) in all_runners(params) {
        let outcome = runner.run(&data).unwrap();
        assert_eq!(outcome.outliers, expected, "configuration {name}");
    }
}

/// Eight dimensions, where the Cell-Based candidate block holds 13^8
/// cells: the default plan (DMT, multi-tactic, the CLI's reducer,
/// partition and sample-rate defaults) must stay exact and visit only the
/// occupied cells of each block instead of allocating them all.
#[test]
fn default_plan_matches_nested_loop_in_eight_dimensions() {
    let domain = dod_core::Rect::new(vec![0.0; 8], vec![100.0; 8]).unwrap();
    let data = dod_data::GaussianMixture::random_cities(domain, 8, 3.0, 0.02, 8).generate(2_000, 8);
    let params = OutlierParams::new(6.0, 8).unwrap();
    let expected = reference_outliers(&data, params);
    assert!(!expected.is_empty(), "test data should contain outliers");
    let config = DodConfig::builder(params)
        .num_reducers(16)
        .target_partitions(64)
        .sample_rate(0.005)
        .build()
        .unwrap();
    let default_plan = DodRunner::builder()
        .config(config.clone())
        .strategy(Dmt::default())
        .multi_tactic()
        .build();
    let outcome = default_plan.run(&data).unwrap();
    let cell_based = outcome
        .report
        .algorithm_histogram
        .iter()
        .any(|&(kind, n)| kind == AlgorithmKind::CellBased && n > 0);
    assert!(
        cell_based,
        "the plan should route some partitions to cell-based"
    );
    assert_eq!(outcome.outliers, expected);
    let nested_loop = DodRunner::builder()
        .config(config)
        .strategy(Dmt::default())
        .fixed(AlgorithmKind::NestedLoop)
        .build();
    assert_eq!(nested_loop.run(&data).unwrap().outliers, expected);
}

#[test]
fn repeated_runs_are_deterministic() {
    let data = mixed_density(3, 500);
    let params = OutlierParams::new(1.0, 3).unwrap();
    let runner = DodRunner::builder()
        .config(test_config(params))
        .multi_tactic()
        .build();
    let first = runner.run(&data).unwrap().outliers;
    for _ in 0..3 {
        assert_eq!(runner.run(&data).unwrap().outliers, first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_data_random_params_exact(
        seed in 0u64..10_000,
        n in 1usize..150,
        r in 0.2f64..4.0,
        k in 1usize..6,
        reducers in 1usize..6,
        partitions in 1usize..20,
    ) {
        let data = mixed_density(seed, n);
        let params = OutlierParams::new(r, k).unwrap();
        let expected = reference_outliers(&data, params);
        // Direct field mutation (possible because the fields stay `pub`)
        // deliberately bypasses builder validation: the proptest ranges
        // include degenerate reducer/partition combinations the builder
        // rejects, and exactness must hold even for those.
        let mut config = test_config(params);
        config.num_reducers = reducers;
        config.target_partitions = partitions;
        // DMT multi-tactic, the full system.
        let runner = DodRunner::builder().config(config.clone()).multi_tactic().build();
        prop_assert_eq!(&runner.run(&data).unwrap().outliers, &expected);
        // Domain two-job baseline, the trickiest correctness path.
        let runner = DodRunner::builder()
            .config(config)
            .strategy(Domain)
            .fixed(AlgorithmKind::CellBased)
            .build();
        prop_assert_eq!(&runner.run(&data).unwrap().outliers, &expected);
    }
}
