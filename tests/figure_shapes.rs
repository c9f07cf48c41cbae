//! Shape tests for the paper's headline results, run on short simulations so they stay fast
//! enough for the regular test suite. Absolute numbers are calibration-dependent; these tests
//! assert the *relative* claims the paper makes (who wins, what collapses, what grows), using
//! deliberately loose margins so they are not flaky.

use fabricsharp::prelude::*;

fn quick(system: SystemKind, workload: WorkloadKind) -> SimulationConfig {
    let mut config = SimulationConfig::new(system, workload);
    config.duration_s = 4.0;
    config.params.num_accounts = 2_000;
    config.params.request_rate_tps = 500;
    config.block.max_txns_per_block = 80;
    config
}

#[test]
fn figure1_shape_raw_is_flat_while_effective_drops_with_skew() {
    let low = Simulator::run(&quick(
        SystemKind::Fabric,
        WorkloadKind::KvUpdate { theta: 0.2 },
    ));
    let high = Simulator::run(&quick(
        SystemKind::Fabric,
        WorkloadKind::KvUpdate { theta: 1.2 },
    ));
    // Raw throughput barely moves...
    let raw_ratio = high.raw_tps() / low.raw_tps();
    assert!(
        (0.8..1.2).contains(&raw_ratio),
        "raw throughput should be flat, ratio {raw_ratio:.2}"
    );
    // ...while effective throughput drops markedly under heavy skew.
    assert!(
        high.effective_tps() < 0.8 * low.effective_tps(),
        "effective throughput should collapse with skew: {:.0} vs {:.0}",
        high.effective_tps(),
        low.effective_tps()
    );
    assert!(high.aborted() > low.aborted());
}

#[test]
fn figure10_shape_fabricsharp_leads_at_the_default_block_size() {
    let reports =
        Simulator::run_all_systems(&quick(SystemKind::Fabric, WorkloadKind::ModifiedSmallbank));
    let effective: Vec<(SystemKind, f64)> = reports
        .iter()
        .map(|r| (r.system, r.effective_tps()))
        .collect();
    let sharp = effective
        .iter()
        .find(|(s, _)| *s == SystemKind::FabricSharp)
        .expect("FabricSharp report")
        .1;
    for (system, tps) in &effective {
        if *system != SystemKind::FabricSharp {
            assert!(
                sharp >= *tps * 0.95,
                "Fabric# ({sharp:.0} tps) should not trail {system} ({tps:.0} tps)"
            );
        }
    }
}

#[test]
fn figure11_shape_focc_s_collapses_under_write_hot_contention() {
    let mut hot = quick(SystemKind::FoccS, WorkloadKind::ModifiedSmallbank);
    hot.params.write_hot_ratio = 0.5;
    let focc_s_hot = Simulator::run(&hot);

    let mut sharp_cfg = quick(SystemKind::FabricSharp, WorkloadKind::ModifiedSmallbank);
    sharp_cfg.params.write_hot_ratio = 0.5;
    let sharp_hot = Simulator::run(&sharp_cfg);

    assert!(
        sharp_hot.effective_tps() > 2.0 * focc_s_hot.effective_tps(),
        "under 50% write-hot contention Fabric# ({:.0}) should far exceed Focc-s ({:.0})",
        sharp_hot.effective_tps(),
        focc_s_hot.effective_tps()
    );
    // The collapse is attributable to concurrent write-write aborts.
    assert!(focc_s_hot.aborts.get(AbortReason::ConcurrentWriteWrite) > 0);
}

#[test]
fn figure13_shape_client_delay_grows_block_span_and_hops() {
    let no_delay = Simulator::run(&quick(
        SystemKind::FabricSharp,
        WorkloadKind::ModifiedSmallbank,
    ));
    let mut delayed_cfg = quick(SystemKind::FabricSharp, WorkloadKind::ModifiedSmallbank);
    delayed_cfg.params.client_delay_ms = 400;
    let delayed = Simulator::run(&delayed_cfg);

    assert!(
        delayed.avg_block_span > no_delay.avg_block_span,
        "client delay must widen the block span"
    );
    assert!(
        delayed.avg_hops >= no_delay.avg_hops,
        "more concurrency must not reduce graph traversal"
    );
    assert!(delayed.effective_tps() <= no_delay.effective_tps() * 1.05);
}

#[test]
fn figure14_shape_long_simulations_hurt_fabric_and_fabricpp_most() {
    let mut base = quick(SystemKind::Fabric, WorkloadKind::ModifiedSmallbank);
    base.params.read_interval_ms = 120;
    let reports = Simulator::run_all_systems(&base);
    let get = |kind: SystemKind| {
        reports
            .iter()
            .find(|r| r.system == kind)
            .expect("report present")
    };
    let fabric = get(SystemKind::Fabric);
    let fabricpp = get(SystemKind::FabricPlusPlus);
    let sharp = get(SystemKind::FabricSharp);

    // The vanilla lock and Fabric++'s cross-block aborts both hurt badly; FabricSharp does not.
    assert!(sharp.effective_tps() > 1.5 * fabric.effective_tps());
    assert!(sharp.effective_tps() > 1.5 * fabricpp.effective_tps());
    // Fabric++'s losses are dominated by simulation aborts.
    assert!(fabricpp.aborts.get(AbortReason::CrossBlockRead) > 0);
}

#[test]
fn figure15_shape_fastfabric_sharp_gains_grow_with_skew() {
    let run = |system: SystemKind, theta: f64| {
        let mut config =
            SimulationConfig::fast_fabric(system, WorkloadKind::MixedSmallbank { theta });
        config.duration_s = 4.0;
        config.params.num_accounts = 2_000;
        config.params.request_rate_tps = 2_500;
        config.block.max_txns_per_block = 150;
        Simulator::run(&config)
    };
    let gain = |theta: f64| {
        let ff = run(SystemKind::Fabric, theta);
        let sharp = run(SystemKind::FabricSharp, theta);
        sharp.effective_tps() / ff.effective_tps()
    };
    let low = gain(0.0);
    let high = gain(1.0);
    assert!(
        high > low,
        "the FastFabric# advantage must grow with skew ({low:.2} -> {high:.2})"
    );
    assert!(
        high > 1.05,
        "at θ=1 the advantage should be clearly visible, got {high:.2}"
    );

    // Contention-free Create-Account: the reordering overhead must be small (<10%).
    let ff_create = run(SystemKind::Fabric, 0.0);
    let mut create_cfg =
        SimulationConfig::fast_fabric(SystemKind::FabricSharp, WorkloadKind::CreateAccount);
    create_cfg.duration_s = 4.0;
    create_cfg.params.num_accounts = 2_000;
    create_cfg.params.request_rate_tps = 2_500;
    create_cfg.block.max_txns_per_block = 150;
    let sharp_create = Simulator::run(&create_cfg);
    assert!(sharp_create.effective_tps() > 0.9 * ff_create.effective_tps());
    assert_eq!(
        sharp_create.aborted(),
        0,
        "Create Account transactions never conflict"
    );
}
