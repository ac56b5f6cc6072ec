//! Deployment-optimizer integration suite: paper-anchor consistency,
//! cache-efficiency counters, edge cases (one-point and all-infeasible
//! search spaces) and byte-exact determinism across worker counts,
//! sha256-pinned like the Monte-Carlo suite.

use corridor_core::hash::sha256_hex;
use corridor_core::sink::{RowFormat, StringSink};
use corridor_core::{experiments, ScenarioParams};
use corridor_sim::{
    DeploymentOptimizer, IsdSearch, OptimizeReport, ScenarioGrid, SearchSpace, WakePolicy,
};
use corridor_units::{Db, Meters};

/// Renders `report` in `format` through its `stream_into`.
fn render(report: &OptimizeReport, format: RowFormat) -> String {
    StringSink::render(0, |s| report.stream_into(format, s))
}

/// Coarse profile sampling: boundary ISDs are insensitive to 5 m vs
/// 10 m at a 50 m grid, and debug-mode tests stay quick.
fn quick_space() -> SearchSpace {
    SearchSpace::new().sample_step(Meters::new(10.0))
}

/// The fixed configuration of the `optimize --smoke` golden: the 3-cell
/// timetable-density grid searched against the model grid.
fn smoke_report(workers: usize) -> OptimizeReport {
    DeploymentOptimizer::new()
        .workers(workers)
        .run(
            &ScenarioGrid::smoke_3(),
            &quick_space().isd_search(IsdSearch::model_paper_grid()),
        )
        .unwrap()
}

#[test]
fn paper_anchor_point_is_on_the_frontier() {
    // acceptance: the 8-repeater/2400 m point must agree with
    // IsdTable::paper and the analytic 124.07 Wh/day headline
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(&ScenarioGrid::new(), &quick_space())
        .unwrap();
    let frontier = report.results()[0].frontier();
    let point = frontier
        .iter()
        .find(|p| p.nodes == 8)
        .expect("8-node point on the frontier");
    assert_eq!(point.isd, Meters::new(2400.0));
    let headline = experiments::headline_numbers(&ScenarioParams::paper_default())
        .repeater_daily_energy
        .value();
    assert!(
        (point.repeater_wh_day - headline).abs() < 0.1,
        "repeater {} vs headline {headline}",
        point.repeater_wh_day
    );
    // and the 10-node point reproduces the 74 % sleep-mode saving
    let ten = frontier.iter().find(|p| p.nodes == 10).unwrap();
    assert_eq!(ten.isd, Meters::new(2650.0));
    assert!(
        (ten.saving_sleep_pct - 74.0).abs() < 1.0,
        "{}",
        ten.saving_sleep_pct
    );
}

#[test]
fn model_grid_reproduces_the_published_early_anchors() {
    // the model matches the paper exactly at n = 1, 2 (the same anchors
    // IsdOptimizer pins); the cached search must find the same boundary
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space()
                .node_counts(vec![1, 2])
                .isd_search(IsdSearch::model_paper_grid()),
        )
        .unwrap();
    let frontier = report.results()[0].frontier();
    assert_eq!(
        frontier.iter().find(|p| p.nodes == 1).unwrap().isd,
        Meters::new(1250.0)
    );
    assert_eq!(
        frontier.iter().find(|p| p.nodes == 2).unwrap().isd,
        Meters::new(1450.0)
    );
    // model-grid deployments satisfy the criterion by construction
    for p in frontier {
        assert!(p.margin_db >= 0.0, "n={}: margin {}", p.nodes, p.margin_db);
    }
}

#[test]
fn shared_cache_at_least_halves_the_profile_evaluations() {
    // acceptance: >= 2x fewer SNR-profile evaluations than the naive
    // per-step sweep, which would pay one profile per coverage lookup
    let report = smoke_report(1);
    let lookups = report.coverage_lookups();
    let profiles = report.profile_evaluations();
    assert!(profiles > 0);
    assert!(
        lookups >= 2 * profiles,
        "cache saved too little: {lookups} lookups, {profiles} profiles"
    );
    assert!(report.cache_hit_rate() >= 0.5);

    // cross-check the "naive" accounting directly: the 3 cells share
    // every geometry, so an uncached search would profile 3x what one
    // cell needs
    let single = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space().isd_search(IsdSearch::model_paper_grid()),
        )
        .unwrap();
    assert_eq!(report.profile_evaluations(), single.profile_evaluations());
    assert!(3 * single.profile_evaluations() >= 2 * report.profile_evaluations());
}

#[test]
fn one_point_search_space_yields_one_point_frontier() {
    let space = quick_space()
        .node_counts(vec![8])
        .wake_policies(vec![WakePolicy::instant()]);
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(&ScenarioGrid::new(), &space)
        .unwrap();
    let r = &report.results()[0];
    assert_eq!(r.evaluated(), 1);
    assert_eq!(r.frontier().len(), 1);
    assert_eq!(r.frontier()[0].nodes, 8);
    assert_eq!(report.frontier_points(), 1);
}

#[test]
fn all_infeasible_cells_are_unsolvable_not_a_panic() {
    // a 90 dB floor is unreachable at any searched geometry
    let space = quick_space()
        .isd_search(IsdSearch::model_paper_grid())
        .snr_threshold(Db::new(90.0));
    let report = DeploymentOptimizer::new()
        .workers(2)
        .run(&ScenarioGrid::smoke_3(), &space)
        .unwrap();
    assert_eq!(report.len(), 3);
    for r in report.results() {
        assert!(r.is_unsolvable(), "{}", r.cell());
        assert!(r.frontier().is_empty());
        assert_eq!(r.evaluated(), 0);
    }
    assert_eq!(report.frontier_points(), 0);
    // the writers render explicit unsolvable rows, not empty output
    let csv = report.to_csv();
    assert_eq!(csv.lines().count(), 4); // header + one row per cell
    for line in csv.lines().skip(1) {
        assert!(line.contains(",unsolvable,"), "{line}");
    }
    assert_eq!(
        render(&report, RowFormat::Json)
            .matches("\"unsolvable\"")
            .count(),
        3
    );
}

#[test]
fn oversized_counts_are_infeasible_candidates_not_errors() {
    // the paper table stops at 10 nodes; 11 must be skipped, and a
    // space holding only unreachable counts degenerates to Unsolvable
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space().node_counts(vec![8, 11]),
        )
        .unwrap();
    let r = &report.results()[0];
    assert_eq!(r.evaluated(), 1);
    assert_eq!(r.frontier().len(), 1);
    assert_eq!(r.frontier()[0].nodes, 8);

    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space().node_counts(vec![11, 12]),
        )
        .unwrap();
    assert!(report.results()[0].is_unsolvable());
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let serial = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::smoke_3(),
            &quick_space().isd_search(IsdSearch::model_paper_grid()),
        )
        .unwrap();
    let reference_csv = serial.to_csv();
    let reference_json = render(&serial, RowFormat::Json);
    for workers in [1usize, 2, 8] {
        let parallel = smoke_report(workers);
        assert_eq!(parallel.to_csv(), reference_csv, "{workers} workers");
        assert_eq!(
            render(&parallel, RowFormat::Json),
            reference_json,
            "{workers} workers"
        );
        assert_eq!(parallel, serial, "{workers} workers");
        // the cache counters are deterministic too (locked compute:
        // every key is profiled exactly once, regardless of racing)
        assert_eq!(parallel.coverage_lookups(), serial.coverage_lookups());
        assert_eq!(parallel.profile_evaluations(), serial.profile_evaluations());
    }
    // pin the exact bytes: any drift in the search, the energy math or
    // the writers shows up as a digest change here
    assert_eq!(
        sha256_hex(reference_csv.as_bytes()),
        SMOKE_CSV_SHA256,
        "smoke CSV drifted:\n{reference_csv}"
    );
    assert_eq!(sha256_hex(reference_json.as_bytes()), SMOKE_JSON_SHA256);
}

#[test]
fn pv_sizing_lands_on_the_frontier_rows() {
    let space = quick_space().node_counts(vec![0, 10]).pv_sizing(true);
    let report = DeploymentOptimizer::new()
        .workers(1)
        .run(&ScenarioGrid::new(), &space)
        .unwrap();
    let frontier = report.results()[0].frontier();
    // conventional deployment has no repeater to size
    let conventional = frontier.iter().find(|p| p.nodes == 0).unwrap();
    assert_eq!(conventional.pv, corridor_sim::PvOutcome::Skipped);
    // the 10-node Berlin cell reproduces Table IV: 600 Wp / 1440 Wh
    let ten = frontier.iter().find(|p| p.nodes == 10).unwrap();
    match ten.pv {
        corridor_sim::PvOutcome::Sized {
            pv_wp, battery_wh, ..
        } => {
            assert_eq!(pv_wp, 600.0);
            assert_eq!(battery_wh, 1440.0);
        }
        other => panic!("expected sized PV, got {other:?}"),
    }
    let csv = report.to_csv();
    assert!(
        csv.lines()
            .any(|l| l.ends_with(",600,1440,100.00") || l.contains(",600,1440,")),
        "{csv}"
    );
}

#[test]
fn padded_policy_pv_is_sized_for_its_own_load() {
    // a padded wake policy keeps the repeater powered longer than the
    // instant-wake activity floor, so its zero-downtime PV system must
    // be at least as large as the instant one on the same geometry
    let instant = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space().node_counts(vec![10]).pv_sizing(true),
        )
        .unwrap();
    let padded = DeploymentOptimizer::new()
        .workers(1)
        .run(
            &ScenarioGrid::new(),
            &quick_space()
                .node_counts(vec![10])
                .wake_policies(vec![WakePolicy::paper_default()])
                .pv_sizing(true),
        )
        .unwrap();
    let pv_wp = |report: &OptimizeReport| match report.results()[0].frontier()[0].pv {
        corridor_sim::PvOutcome::Sized { pv_wp, .. } => pv_wp,
        other => panic!("expected sized PV, got {other:?}"),
    };
    let instant_wp = pv_wp(&instant);
    let padded_wp = pv_wp(&padded);
    assert_eq!(instant_wp, 600.0); // Table IV Berlin
    assert!(
        padded_wp >= instant_wp,
        "padded {padded_wp} Wp < instant {instant_wp} Wp"
    );
    // the padded row's energy really is higher than the instant one
    let e_instant = instant.results()[0].frontier()[0].repeater_wh_day;
    let e_padded = padded.results()[0].frontier()[0].repeater_wh_day;
    assert!(e_padded > e_instant, "{e_padded} <= {e_instant}");
}

const SMOKE_CSV_SHA256: &str = "2bda3d27d792fe925c7fa6cbcfffa7f7c1a574e1dfe7e1b85843f5b4e43335b8";
const SMOKE_JSON_SHA256: &str = "424801c9b0c65f568a3729b9ede8c9bc9de277b25e3ecb81add32fc8780389e3";

// report digests are pinned through `corridor_core::hash::sha256_hex`,
// the crate-wide streaming SHA-256 (FIPS-vector-tested at its source)
