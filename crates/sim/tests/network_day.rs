//! Tentpole differentials for the network-day backend and the Pollakis
//! margin-trading schedule: the stochastic wye day end to end through
//! the event engine, cross-worker byte-identity of the streamed day
//! rows, the SHA-pinned `margin_floor = current margin` special case
//! that reproduces the boundary-only schedule exactly, and floor
//! properties over random connected topologies.

use corridor_core::hash::sha256_hex;
use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::{
    CorridorNetwork, NetworkDayEngine, NetworkDayReport, NetworkError, NetworkOptimizer,
    SearchSpace, NETWORK_DAY_CSV_HEADER,
};
use corridor_units::Meters;
use proptest::prelude::*;

/// Renders `report` in `format` through its `stream_into`.
fn render(report: &NetworkDayReport, format: RowFormat) -> String {
    StringSink::render(0, |s| report.stream_into(format, s))
}

/// Coarse profile sampling, as in the network suite: boundary ISDs are
/// insensitive to 5 m vs 10 m, and debug-mode tests stay quick.
fn quick_space() -> SearchSpace {
    SearchSpace::new().sample_step(Meters::new(10.0))
}

/// Pinned digests of the wye3 boundary-only schedule and frontier under
/// `quick_space()` — the PR 8 bytes the `margin_floor = current margin`
/// special case must reproduce exactly.
const WYE3_SCHEDULE_SHA256: &str =
    "8f033bef8f33bf2c031930d7946eca11b4b0f838c1fcaba3a03e144968f7e65b";
const WYE3_FRONTIER_SHA256: &str =
    "4996ad220df73d73d683e3e17144c0b4f028fc49cf9104715f96fdcf73d60a7e";

#[test]
fn wye3_day_runs_end_to_end_with_correlated_crossings() {
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let report = NetworkDayEngine::new()
        .workers(1)
        .reps(5)
        .run(&net, &quick_space())
        .unwrap();
    assert_eq!(report.per_edge().len(), 3);
    assert_eq!(report.reps(), 5);
    // the demand decomposition must route trains *across* the hub: at
    // least one route with two legs, so junction crossings happen every
    // simulated day
    assert!(
        report.routes().iter().any(|r| r.legs().len() >= 2),
        "wye demands must decompose into junction-crossing routes"
    );
    assert!(
        report.crossings_per_day() > 0.0,
        "a stochastic day on the wye must cross the hub"
    );
    // every edge keeps its demand (4 / 16 / 12 tph); that the route
    // rates add back to it is `day::tests::route_rates_sum_back_to_edge_demands`
    for (e, want) in [(0usize, 4.0), (1, 16.0), (2, 12.0)] {
        let stats = &report.per_edge()[e];
        assert_eq!(stats.edge, e);
        assert_eq!(stats.demand_tph, want);
        assert!(stats.routes >= 1);
        assert!(stats.mean_wh_day > 0.0);
        assert!(stats.mean_passes > 0.0, "edge {e} saw no trains");
        assert!(stats.ci95_wh_day.is_finite());
    }
    assert!(report.network_mean_wh_day() > 0.0);
}

#[test]
fn day_stream_is_byte_identical_across_worker_counts() {
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let engine = NetworkDayEngine::new().reps(3);
    let report = engine.workers(1).run(&net, &quick_space()).unwrap();
    let reference = [
        render(&report, RowFormat::Csv),
        render(&report, RowFormat::Json),
    ];
    assert!(reference[0].starts_with(NETWORK_DAY_CSV_HEADER));
    for workers in [1usize, 2, 8] {
        for (format, want) in [RowFormat::Csv, RowFormat::Json].iter().zip(&reference) {
            let mut sink = StringSink::with_capacity(2048);
            let summary = engine
                .workers(workers)
                .stream(&net, &quick_space(), *format, &mut sink)
                .unwrap();
            assert_eq!(summary.cells, net.edge_count() as u64);
            assert_eq!(&sink.into_string(), want, "{format:?}, workers = {workers}");
        }
    }
}

#[test]
fn day_engine_rejects_invalid_networks() {
    let err = NetworkDayEngine::new()
        .workers(1)
        .run(&CorridorNetwork::new(), &quick_space())
        .unwrap_err();
    assert!(matches!(err, NetworkError::Empty));
}

#[test]
fn margin_floor_at_current_margin_reproduces_the_boundary_schedule() {
    // the acceptance differential: with the floor at the picks' own
    // margin there is no margin to spend, the interior candidate family
    // is empty by construction, and the schedule and frontier are the
    // PR 8 boundary-only bytes exactly
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let base = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    assert_eq!(
        sha256_hex(base.schedule_csv().as_bytes()),
        WYE3_SCHEDULE_SHA256,
        "boundary-only schedule drifted:\n{}",
        base.schedule_csv()
    );
    assert_eq!(
        sha256_hex(base.frontier_csv().as_bytes()),
        WYE3_FRONTIER_SHA256
    );
    let current = base.picks()[0].as_ref().unwrap().margin_db;
    for floor in [current, 3.0] {
        let gated = NetworkOptimizer::new()
            .workers(1)
            .margin_floor_db(floor)
            .run(&net, &quick_space())
            .unwrap();
        assert_eq!(gated.schedule_csv(), base.schedule_csv(), "floor {floor}");
        assert_eq!(gated.frontier_csv(), base.frontier_csv(), "floor {floor}");
        assert_eq!(gated.plan(), base.plan(), "floor {floor}");
        // residual margins are the picks' own, untouched
        assert_eq!(gated.residual_margins(), base.residual_margins());
    }
}

#[test]
fn relaxed_floor_sleeps_interior_repeaters_at_a_strict_net_win() {
    // the acceptance win: relaxing the floor below the picks' ~3 dB
    // margin lets interior repeaters sleep — on the wye, ten of them —
    // while every edge's residual margin stays at or above the floor
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let base = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    let floor = -3.0;
    let traded = NetworkOptimizer::new()
        .workers(1)
        .margin_floor_db(floor)
        .run(&net, &quick_space())
        .unwrap();
    let interior: Vec<_> = traded
        .plan()
        .iter()
        .filter(|d| d.repeater.is_some())
        .collect();
    assert!(
        !interior.is_empty(),
        "a relaxed floor must sleep interior repeaters"
    );
    for d in &interior {
        assert!(d.net_wh_day > 1e-9, "interior sleeps are strict wins");
        assert!((d.slept_wh_day - d.absorber_delta_wh_day - d.net_wh_day).abs() < 1e-9);
        assert!(d.margin_cost_db >= 0.0);
        assert_eq!(
            d.absorber_edge, d.edge,
            "interior absorption stays on the edge"
        );
        let k = d.repeater.unwrap();
        let n = traded.picks()[d.edge].as_ref().unwrap().nodes;
        assert!(k >= 1 && k < n - 1, "repeater {k} is not interior of {n}");
    }
    for (e, margin) in traded.residual_margins().iter().enumerate() {
        let margin = margin.expect("every wye edge deploys");
        assert!(
            margin >= floor,
            "edge {e} residual margin {margin} fell below the {floor} dB floor"
        );
        assert!(
            margin < base.residual_margins()[e].unwrap(),
            "edge {e} must have spent margin"
        );
    }
    // the traded network is strictly cheaper than boundary-only sleep,
    // and the exact plan is pinned: ten interior sleeps plus the
    // boundary sleep the base schedule already had
    assert!(traded.network_wh_day() < base.network_wh_day());
    assert_eq!(interior.len(), 10);
    assert_eq!(traded.plan().len(), base.plan().len() + 10);
    assert!(
        (traded.network_wh_day() - 89962.150).abs() < 5e-3,
        "traded total drifted: {}",
        traded.network_wh_day()
    );
    // deeper floors change nothing: adjacency (every sleeper needs an
    // awake absorbing neighbor) exhausts the candidate set first
    let deeper = NetworkOptimizer::new()
        .workers(1)
        .margin_floor_db(-20.0)
        .run(&net, &quick_space())
        .unwrap();
    assert_eq!(deeper.plan().len(), traded.plan().len());
}

#[test]
fn margin_trading_is_deterministic_across_worker_counts() {
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let a = NetworkOptimizer::new()
        .workers(1)
        .margin_floor_db(-3.0)
        .run(&net, &quick_space())
        .unwrap();
    let b = NetworkOptimizer::new()
        .workers(4)
        .margin_floor_db(-3.0)
        .run(&net, &quick_space())
        .unwrap();
    assert_eq!(a.plan(), b.plan());
    assert_eq!(a.residual_margins(), b.residual_margins());
    assert_eq!(a.schedule_csv(), b.schedule_csv());
}

/// Demand pool the random topologies draw from.
const TPH: [f64; 4] = [2.0, 4.0, 8.0, 12.0];

/// Builds one of the three connected topology families from the pool.
fn random_net(shape: usize, n_edges: usize) -> CorridorNetwork {
    let demands: Vec<f64> = TPH.iter().copied().cycle().take(n_edges).collect();
    match shape {
        0 => CorridorNetwork::line(&demands),
        1 => CorridorNetwork::star(&demands),
        _ => {
            // a cycle needs >= 3 edges; pad the ring up to the floor
            let demands: Vec<f64> = TPH.iter().copied().cycle().take(n_edges.max(3)).collect();
            CorridorNetwork::cycle(&demands)
        }
    }
}

proptest! {
    /// On every generated line/star/cycle, the margin-trading scheduler
    /// never drops any edge below the configured floor, interior sleeps
    /// are strict wins, and raising the floor to the picks' own margin
    /// reproduces the boundary-only schedule byte-for-byte.
    #[test]
    fn random_topologies_hold_the_margin_floor(
        shape in 0usize..3,
        n_edges in 1usize..=3,
    ) {
        let net = random_net(shape, n_edges);
        let space = quick_space().node_counts(vec![0, 10]);
        let base = NetworkOptimizer::new().workers(1).run(&net, &space).unwrap();

        // relaxed floor: margins may be spent but never below the floor
        let floor = -6.0;
        let traded = NetworkOptimizer::new()
            .workers(1)
            .margin_floor_db(floor)
            .run(&net, &space)
            .unwrap();
        for margin in traded.residual_margins().iter().flatten() {
            prop_assert!(*margin >= floor, "residual {} below floor", margin);
        }
        for d in traded.plan() {
            prop_assert!(d.net_wh_day > 0.0);
            if d.repeater.is_some() {
                prop_assert_eq!(d.absorber_edge, d.edge);
                prop_assert!(d.margin_cost_db >= 0.0);
            }
        }
        prop_assert!(traded.network_wh_day() <= base.network_wh_day() + 1e-9);

        // floor at the picks' own margin: the interior family is gated
        // out entirely and the PR 8 boundary-only schedule comes back
        // byte-for-byte
        let current = base
            .picks()
            .iter()
            .flatten()
            .map(|p| p.margin_db)
            .fold(f64::NEG_INFINITY, f64::max);
        if current.is_finite() {
            let gated = NetworkOptimizer::new()
                .workers(1)
                .margin_floor_db(current)
                .run(&net, &space)
                .unwrap();
            prop_assert_eq!(gated.plan(), base.plan());
            prop_assert_eq!(gated.schedule_csv(), base.schedule_csv());
            prop_assert_eq!(gated.residual_margins(), base.residual_margins());
        }
    }
}
