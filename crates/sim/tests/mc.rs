//! Monte-Carlo determinism and convergence: byte-identical reports
//! across worker counts, and confidence intervals that shrink like 1/√N
//! toward the analytic headline value.

use corridor_core::sink::{RowFormat, StringSink};
use corridor_core::{experiments, ScenarioParams};
use corridor_sim::{McEngine, McMetric, McReport, ReplicationPlan, ScenarioGrid, TrafficSpec};

/// Renders `report` in `format` through its `stream_into`.
fn render(report: &McReport, format: RowFormat) -> String {
    StringSink::render(0, |s| report.stream_into(format, s))
}

fn small_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .trains_per_hour(vec![4.0, 8.0])
        .train_speeds_kmh(vec![160.0, 200.0])
}

fn headline_mc(replications: usize) -> McReport {
    McEngine::new()
        .workers(1)
        .run(&ScenarioGrid::new(), &ReplicationPlan::new(replications))
        .unwrap()
}

#[test]
fn csv_is_byte_identical_across_worker_counts() {
    let grid = small_grid();
    let plan = ReplicationPlan::new(6).master_seed(13);
    let serial = McEngine::new().workers(1).run(&grid, &plan).unwrap();
    let reference_csv = serial.to_csv();
    let reference_json = render(&serial, RowFormat::Json);
    for workers in [1usize, 2, 8] {
        let parallel = McEngine::new().workers(workers).run(&grid, &plan).unwrap();
        assert_eq!(parallel.to_csv(), reference_csv, "{workers} workers");
        assert_eq!(
            render(&parallel, RowFormat::Json),
            reference_json,
            "{workers} workers"
        );
        assert_eq!(parallel, serial, "{workers} workers");
    }
}

#[test]
fn jittered_plan_is_deterministic_too() {
    let plan = ReplicationPlan::new(5)
        .master_seed(3)
        .traffic(TrafficSpec::Jittered(
            corridor_traffic::DelayModel::typical(),
        ));
    let grid = ScenarioGrid::new();
    let a = McEngine::new().workers(1).run(&grid, &plan).unwrap();
    let b = McEngine::new().workers(4).run(&grid, &plan).unwrap();
    assert_eq!(a.to_csv(), b.to_csv());
}

#[test]
fn different_master_seeds_give_different_statistics() {
    let grid = ScenarioGrid::new();
    let a = McEngine::new()
        .workers(1)
        .run(&grid, &ReplicationPlan::new(5).master_seed(1))
        .unwrap();
    let b = McEngine::new()
        .workers(1)
        .run(&grid, &ReplicationPlan::new(5).master_seed(2))
        .unwrap();
    assert_ne!(
        a.results()[0].stats(McMetric::RepeaterWhDay).mean,
        b.results()[0].stats(McMetric::RepeaterWhDay).mean
    );
}

#[test]
fn ci_half_width_shrinks_like_one_over_sqrt_n() {
    let coarse = headline_mc(25);
    let fine = headline_mc(400);
    let coarse_ci = coarse.results()[0].stats(McMetric::RepeaterWhDay).ci95;
    let fine_ci = fine.results()[0].stats(McMetric::RepeaterWhDay).ci95;
    assert!(coarse_ci > 0.0 && fine_ci > 0.0);
    // 16x the replications -> ~4x tighter CI (sampled stddev wobbles,
    // so allow a generous band around sqrt(16) = 4)
    let ratio = coarse_ci / fine_ci;
    assert!((2.5..=6.5).contains(&ratio), "CI shrink ratio {ratio}");
}

#[test]
fn headline_cell_converges_to_the_analytic_energy() {
    let analytic = experiments::headline_numbers(&ScenarioParams::paper_default())
        .repeater_daily_energy
        .value();
    let coarse = headline_mc(25);
    let fine = headline_mc(400);
    let coarse_stats = *coarse.results()[0].stats(McMetric::RepeaterWhDay);
    let fine_stats = *fine.results()[0].stats(McMetric::RepeaterWhDay);

    // the 25-replication mean lands within 1 % of 124.07 Wh/day, the
    // 400-replication mean within 0.5 %
    assert!(
        (coarse_stats.mean / analytic - 1.0).abs() < 0.01,
        "25 reps: {} vs {analytic}",
        coarse_stats.mean
    );
    assert!(
        (fine_stats.mean / analytic - 1.0).abs() < 0.005,
        "400 reps: {} vs {analytic}",
        fine_stats.mean
    );
    // and the 25-replication 95 % CI covers the analytic value (the
    // acceptance criterion of the mc binary's headline cell)
    assert!(
        coarse_stats.ci_covers(analytic),
        "CI [{} ± {}] misses {analytic}",
        coarse_stats.mean,
        coarse_stats.ci95
    );
}
