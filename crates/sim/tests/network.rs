//! Network-optimizer integration suite: the degenerate-path differential
//! against the linear corridor optimizer (byte-for-byte, sha256-pinned),
//! cross-worker byte-identity of the streamed frontier, the junction
//! sleep win the per-corridor optimizer cannot express, and properties
//! over random connected topologies.

use corridor_core::hash::sha256_hex;
use corridor_core::sink::{RowFormat, StringSink};
use corridor_sim::{
    CorridorEdge, CorridorNetwork, DeploymentOptimizer, NetworkError, NetworkOptimizer,
    NetworkReport, ScenarioGrid, SearchSpace, NETWORK_SCHEDULE_CSV_HEADER,
};
use corridor_units::Meters;
use proptest::prelude::*;

/// Coarse profile sampling, as in the optimize suite: boundary ISDs are
/// insensitive to 5 m vs 10 m, and debug-mode tests stay quick.
fn quick_space() -> SearchSpace {
    SearchSpace::new().sample_step(Meters::new(10.0))
}

/// The per-edge frontiers as JSON, through the report's row stream.
fn frontier_json(report: &NetworkReport) -> String {
    let mut sink = StringSink::with_capacity(8192);
    report
        .stream_frontier_into(RowFormat::Json, &mut sink)
        .unwrap();
    sink.into_string()
}

/// Pinned digests of the degenerate-path frontier renderings. These are
/// digests of the *linear* optimizer's bytes over `smoke_3`, which the
/// network layer must reproduce exactly on the equivalent path graph.
const LINE3_CSV_SHA256: &str = "4bebad07f877e154375a0fc2d5c789a8bcf084ab5d8c61d6b2b38f499c00d31b";
const LINE3_JSON_SHA256: &str = "ed73cc89b759c3739027fafe75ce5711697708010913d1aed0ff59027b72e657";

#[test]
fn degenerate_path_reproduces_the_linear_frontier_byte_for_byte() {
    // the acceptance differential: a single-path network built from
    // grid-default edges is the *same computation* as the linear
    // corridor sweep — same cells, same search, same rendered bytes
    let net = CorridorNetwork::line(&[4.0, 8.0, 12.0]);
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    let linear = DeploymentOptimizer::new()
        .workers(1)
        .run(&ScenarioGrid::smoke_3(), &quick_space())
        .unwrap();
    let csv = report.frontier_csv();
    let json = frontier_json(&report);
    assert_eq!(csv, linear.to_csv());
    assert_eq!(json, linear.to_json());
    // pin the exact bytes so drift in either pipeline trips loudly
    assert_eq!(
        sha256_hex(csv.as_bytes()),
        LINE3_CSV_SHA256,
        "line3 frontier CSV drifted:\n{csv}"
    );
    assert_eq!(sha256_hex(json.as_bytes()), LINE3_JSON_SHA256);
}

#[test]
fn junction_frontiers_still_match_the_linear_search_per_edge() {
    // topology never bends the per-edge search: the wye's cells (4 tph,
    // 8 tph double-tracked = 16 tph aggregate, 12 tph) are exactly a
    // linear grid over those demands, so the frontier bytes agree even
    // though the graphs differ
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 16.0, 12.0]);
    let linear = DeploymentOptimizer::new()
        .workers(1)
        .run(&grid, &quick_space())
        .unwrap();
    assert_eq!(report.frontier_csv(), linear.to_csv());
    assert_eq!(frontier_json(&report), linear.to_json());
}

#[test]
fn streamed_frontier_is_byte_identical_across_worker_counts() {
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    let reference = [report.frontier_csv(), frontier_json(&report)];
    for workers in [1usize, 2, 8] {
        for (format, want) in [RowFormat::Csv, RowFormat::Json].iter().zip(&reference) {
            let mut sink = StringSink::with_capacity(4096);
            let summary = NetworkOptimizer::new()
                .workers(workers)
                .stream_frontier(&net, &quick_space(), *format, &mut sink)
                .unwrap();
            assert_eq!(summary.cells, net.edge_count() as u64);
            assert_eq!(&sink.into_string(), want, "{format:?}, workers = {workers}");
        }
    }
}

#[test]
fn junction_sleeps_what_per_corridor_optimization_cannot() {
    // the acceptance win: on the wye the per-corridor picks are optimal
    // per edge (equal coverage margins, pinned above by the frontier
    // differential), yet the network still saves energy by sleeping a
    // boundary repeater into its co-located neighbor across the hub —
    // a move no independent per-corridor optimizer can express
    let net = CorridorNetwork::by_name("wye3").unwrap();
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    assert!(!report.plan().is_empty(), "the hub must admit a sleep");
    assert!(report.sleep_saving_wh_day() > 0.0);
    assert!(
        report.network_wh_day() < report.corridor_wh_day(),
        "network {} !< corridor {}",
        report.network_wh_day(),
        report.corridor_wh_day()
    );
    // every committed decision is a strict win within capacity
    for d in report.plan() {
        assert!(d.net_wh_day > 0.0);
        assert!((d.slept_wh_day - d.absorber_delta_wh_day - d.net_wh_day).abs() < 1e-9);
        assert!(d.absorbed_demand_tph > 0.0);
    }
    // and the coverage margins of the picks are the per-corridor
    // optimizer's own (sleep touches boundary repeaters, not coverage)
    let grid = ScenarioGrid::new().trains_per_hour(vec![4.0, 16.0, 12.0]);
    let linear = DeploymentOptimizer::new()
        .workers(1)
        .run(&grid, &quick_space())
        .unwrap();
    for (e, pick) in report.picks().iter().enumerate() {
        let pick = pick.as_ref().unwrap();
        let best = linear.results()[e]
            .frontier()
            .iter()
            .min_by(|x, y| x.energy_wh_day_km.total_cmp(&y.energy_wh_day_km))
            .unwrap();
        assert_eq!(pick.margin_db, best.margin_db, "edge {e}");
        assert_eq!(pick.isd, best.isd, "edge {e}");
    }
}

#[test]
fn single_station_network_is_a_valid_degenerate_case() {
    let mut net = CorridorNetwork::new();
    net.add_station("only");
    let report = NetworkOptimizer::new()
        .workers(1)
        .run(&net, &quick_space())
        .unwrap();
    assert!(report.is_empty());
    assert!(report.plan().is_empty());
    assert_eq!(report.corridor_wh_day(), 0.0);
    assert_eq!(report.network_wh_day(), 0.0);
    assert_eq!(
        report.schedule_csv().trim_end(),
        NETWORK_SCHEDULE_CSV_HEADER
    );
}

#[test]
fn empty_and_disconnected_networks_are_typed_errors() {
    let err = NetworkOptimizer::new()
        .workers(1)
        .run(&CorridorNetwork::new(), &quick_space())
        .unwrap_err();
    assert!(matches!(err, NetworkError::Empty));

    let mut net = CorridorNetwork::new();
    let a = net.add_station("a");
    let b = net.add_station("b");
    net.add_edge(CorridorEdge::between(a, b)).unwrap();
    net.add_station("island");
    net.add_station("atoll");
    for run in [
        NetworkOptimizer::new().workers(1).run(&net, &quick_space()),
        NetworkOptimizer::new().workers(2).run(&net, &quick_space()),
    ] {
        assert!(matches!(run.unwrap_err(), NetworkError::Disconnected(2)));
    }
    let mut sink = StringSink::with_capacity(64);
    let err = NetworkOptimizer::new()
        .workers(1)
        .stream_frontier(&net, &quick_space(), RowFormat::Csv, &mut sink)
        .unwrap_err();
    assert!(matches!(err, NetworkError::Disconnected(2)));
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
    /// Every generated line/star/cycle is connected, searches every
    /// edge, agrees between serial and parallel execution, and never
    /// schedules sleep at a net loss.
    #[test]
    fn random_connected_topologies_hold_the_invariants(
        shape in 0usize..3,
        n_edges in 1usize..=4,
        workers in 2usize..=8,
    ) {
        let net = random_net(shape, n_edges);
        prop_assert!(net.validate().is_ok());
        // a reduced space keeps the 64-case sweep quick; 0 vs 10 nodes
        // still exercises the conventional/deployed split
        let space = quick_space().node_counts(vec![0, 10]);
        let serial = NetworkOptimizer::new().workers(1).run(&net, &space).unwrap();
        let parallel = NetworkOptimizer::new().workers(workers).run(&net, &space).unwrap();
        prop_assert_eq!(serial.results(), parallel.results());
        prop_assert_eq!(serial.plan(), parallel.plan());
        prop_assert_eq!(serial.frontier_csv(), parallel.frontier_csv());
        prop_assert_eq!(serial.len(), net.edge_count());
        // sleep can only help, and each decision is a strict win
        prop_assert!(serial.network_wh_day() <= serial.corridor_wh_day() + 1e-9);
        for d in serial.plan() {
            prop_assert!(d.net_wh_day > 0.0);
            prop_assert!(d.edge != d.absorber_edge);
            prop_assert!(net.edge(d.edge).touches(d.station));
            prop_assert!(net.edge(d.absorber_edge).touches(d.station));
        }
        // at most two boundary repeaters sleep per edge
        for e in 0..net.edge_count() {
            let slept = serial.plan().iter().filter(|d| d.edge == e).count();
            prop_assert!(slept <= 2, "edge {} slept {} boundaries", e, slept);
        }
    }

    /// Disconnecting any generated topology by appending an isolated
    /// station turns the run into the typed `Disconnected` error naming
    /// that station.
    #[test]
    fn appended_island_is_always_a_typed_error(
        shape in 0usize..3,
        n_edges in 1usize..=4,
    ) {
        let mut net = random_net(shape, n_edges);
        let island = net.add_station("island");
        let err = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space().node_counts(vec![10]))
            .unwrap_err();
        prop_assert!(matches!(err, NetworkError::Disconnected(i) if i == island));
    }
}
