//! StateTrace / horizon-clipping edge cases: passes straddling the
//! horizon end, back-to-back passes inside one guard interval, and
//! zero-length occupancy — each pinned against the analytic backend's
//! merged activity timeline.

use corridor_events::{CorridorSimulator, NodeKind, NodeSpec, WakePolicy};
use corridor_traffic::{ActivityTimeline, TrackSection, Train, TrainPass};
use corridor_units::{Meters, Seconds};

const DAY: f64 = 86_400.0;

fn hp_node(end_m: f64) -> Vec<NodeSpec> {
    vec![NodeSpec::new(
        NodeKind::HighPowerMast,
        TrackSection::new(Meters::ZERO, Meters::new(end_m)),
    )]
}

/// The analytic reference: the merged occupancy union clipped to the
/// simulation horizon (`ActivityTimeline` itself does not clip, so the
/// clip is applied through `active_within`).
fn analytic_powered(section: &TrackSection, passes: &[TrainPass]) -> f64 {
    ActivityTimeline::for_section(section, passes)
        .active_within(Seconds::ZERO, Seconds::new(DAY))
        .value()
}

#[test]
fn pass_straddling_the_horizon_end_is_clipped_like_the_timeline() {
    let train = Train::paper_default();
    let nodes = hp_node(500.0);
    // occupancy is 16.2 s; entering 5 s before midnight leaves 5 s
    // inside the horizon and 11.2 s clipped away
    let passes = vec![TrainPass::new(train, Seconds::new(DAY - 5.0))];
    let report = CorridorSimulator::new().simulate(&nodes, &passes);
    let simulated = report.nodes()[0].trace().powered().value();
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    assert!((analytic - 5.0).abs() < 1e-9, "analytic {analytic}");
    assert!(
        (simulated - analytic).abs() < 1e-9,
        "simulated {simulated} vs analytic {analytic}"
    );
    // the trace's integrated day still sums to exactly the horizon
    let t = report.nodes()[0].trace();
    let total = t.asleep().value() + t.powered().value();
    assert!((total - DAY).abs() < 1e-9, "day sums to {total}");
}

#[test]
fn pass_straddling_the_horizon_start_is_clipped_too() {
    let train = Train::paper_default();
    let nodes = hp_node(500.0);
    // enters before t=0 (negative origin): only the in-horizon tail of
    // the occupancy may bill
    let passes = vec![TrainPass::new(train, Seconds::new(-10.0))];
    let report = CorridorSimulator::new().simulate(&nodes, &passes);
    let simulated = report.nodes()[0].trace().powered().value();
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    assert!(analytic > 0.0 && analytic < 16.2);
    assert!(
        (simulated - analytic).abs() < 1e-9,
        "simulated {simulated} vs analytic {analytic}"
    );
}

#[test]
fn back_to_back_passes_inside_one_guard_interval_stay_powered() {
    let train = Train::paper_default();
    let nodes = hp_node(500.0);
    // under the paper policy the second pass's barrier trips 1 s before
    // it enters, 1.2 s after the first exits: 0.2 s into the 0.5 s
    // guard, so the node must ride through on one wake
    let (first_enter, first_exit) = nodes[0]
        .section()
        .occupancy(&TrainPass::new(train, Seconds::new(1000.0)));
    let gap = 1.2;
    let second_origin = Seconds::new(1000.0) + (first_exit - first_enter) + Seconds::new(gap);
    let passes = vec![
        TrainPass::new(train, Seconds::new(1000.0)),
        TrainPass::new(train, second_origin),
    ];
    let policy = WakePolicy::paper_default();
    let report = CorridorSimulator::new()
        .with_policy(policy)
        .simulate(&nodes, &passes);
    let trace = report.nodes()[0].trace();

    // one wake, no coverage gap
    assert_eq!(trace.wakes(), 1);
    assert_eq!(trace.uncovered(), Seconds::ZERO);

    // powered time = the analytic occupancy union (two disjoint
    // occupancies), plus the inter-pass gap the guard bridged, plus the
    // barrier lead before the first entry and one trailing guard after
    // the last exit
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    let expected = analytic + gap + policy.lead().value() + policy.guard().value();
    let simulated = trace.powered().value();
    assert!(
        (simulated - expected).abs() < 1e-9,
        "simulated {simulated} vs expected {expected}"
    );
}

#[test]
fn back_to_back_passes_with_instant_policy_match_the_timeline() {
    // the same two-pass day with no guard: each pass is its own wake and
    // the energy integral equals the analytic union exactly
    let train = Train::paper_default();
    let nodes = hp_node(500.0);
    let passes = vec![
        TrainPass::new(train, Seconds::new(1000.0)),
        TrainPass::new(train, Seconds::new(1020.0)),
    ];
    let report = CorridorSimulator::new().simulate(&nodes, &passes);
    let trace = report.nodes()[0].trace();
    assert_eq!(trace.wakes(), 2);
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    assert!((trace.powered().value() - analytic).abs() < 1e-9);
}

#[test]
fn zero_length_occupancy_contributes_nothing() {
    // a zero-length train over a point section: enter == exit, an
    // interval of measure zero — the analytic timeline discards it and
    // the simulator must not wake for it either
    let point_train = Train::new(Meters::ZERO, Train::paper_default().speed());
    let nodes = vec![NodeSpec::new(
        NodeKind::ServiceRepeater,
        TrackSection::new(Meters::new(100.0), Meters::new(100.0)),
    )];
    let passes = vec![TrainPass::new(point_train, Seconds::new(500.0))];
    let (enter, exit) = nodes[0].section().occupancy(&passes[0]);
    assert_eq!(enter, exit, "occupancy must be zero-length");

    let report = CorridorSimulator::new().simulate(&nodes, &passes);
    let trace = report.nodes()[0].trace();
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    assert_eq!(analytic, 0.0);
    assert_eq!(trace.powered(), Seconds::ZERO);
    assert_eq!(trace.wakes(), 0);
    assert_eq!(trace.asleep().value(), DAY);
}

#[test]
fn zero_length_train_over_a_real_section_matches_the_timeline() {
    // measure-zero only comes from BOTH a point train and a point
    // section; a point train over a 200 m section still occupies it for
    // section/speed seconds and must match the analytic integral
    let point_train = Train::new(Meters::ZERO, Train::paper_default().speed());
    let nodes = vec![NodeSpec::new(
        NodeKind::ServiceRepeater,
        TrackSection::new(Meters::new(100.0), Meters::new(300.0)),
    )];
    let passes = vec![TrainPass::new(point_train, Seconds::new(500.0))];
    let report = CorridorSimulator::new().simulate(&nodes, &passes);
    let analytic = analytic_powered(&nodes[0].section(), &passes);
    assert!(analytic > 0.0);
    assert!((report.nodes()[0].trace().powered().value() - analytic).abs() < 1e-9);
    assert_eq!(report.nodes()[0].trace().wakes(), 1);
}
