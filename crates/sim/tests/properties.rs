//! Property-based tests for the scenario-sweep engine.

use corridor_core::energy::{self, SegmentEnergy};
use corridor_core::sink::{RowFormat, StringSink};
use corridor_core::{experiments, EnergyStrategy, ScenarioParams};
use corridor_sim::{ScenarioGrid, SweepEngine};
use corridor_solar::climate;
use corridor_units::Watts;
use proptest::prelude::*;

/// The sweep of `grid` by `engine`, streamed into memory in `format`.
fn render(engine: SweepEngine, grid: &ScenarioGrid, format: RowFormat) -> String {
    let mut sink = StringSink::default();
    engine.stream(grid, format, &mut sink).unwrap();
    sink.into_string()
}

/// Candidate pools the random grids draw their axes from.
const TPH: [f64; 4] = [2.0, 4.0, 8.0, 12.0];
const SPEEDS: [f64; 4] = [120.0, 160.0, 200.0, 250.0];
const ISDS: [f64; 3] = [400.0, 500.0, 600.0];

fn take<const N: usize>(pool: [f64; N], count: usize) -> Vec<f64> {
    pool.iter().copied().take(count.max(1)).collect()
}

proptest! {
    /// Grid expansion yields exactly the product of the axis lengths, and
    /// cell indices are the contiguous range `0..len`.
    #[test]
    fn expansion_count_is_axis_product(
        n_tph in 1usize..=4,
        n_speed in 1usize..=4,
        n_isd in 1usize..=3,
        n_location in 1usize..=2,
    ) {
        let locations = [climate::madrid(), climate::berlin()];
        let grid = ScenarioGrid::new()
            .trains_per_hour(take(TPH, n_tph))
            .train_speeds_kmh(take(SPEEDS, n_speed))
            .conventional_isds_m(take(ISDS, n_isd))
            .locations(locations[..n_location].to_vec());
        let expected = n_tph * n_speed * n_isd * n_location;
        prop_assert_eq!(grid.len(), expected);
        let cells = grid.expand().unwrap();
        prop_assert_eq!(cells.len(), expected);
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(cell.index(), i);
        }
    }

    /// The parallel run is a permutation-invariant match of the serial
    /// run: whatever order the workers pick cells in, the report holds
    /// identical results in identical grid order.
    #[test]
    fn parallel_matches_serial(
        n_tph in 1usize..=3,
        n_speed in 1usize..=3,
        workers in 2usize..=8,
        nodes in 1usize..=10,
    ) {
        let grid = ScenarioGrid::new()
            .trains_per_hour(take(TPH, n_tph))
            .train_speeds_kmh(take(SPEEDS, n_speed))
            .repeater_nodes(nodes)
            .unwrap();
        let engine = SweepEngine::new().pv_sizing(false);
        let serial = engine.workers(1).run(&grid).unwrap();
        let parallel = engine.workers(workers).run(&grid).unwrap();
        prop_assert_eq!(serial.results(), parallel.results());
        prop_assert_eq!(
            render(engine.workers(1), &grid, RowFormat::Csv),
            render(engine.workers(workers), &grid, RowFormat::Csv)
        );
    }

    /// Savings fractions stay within the physically meaningful window on
    /// random cells.
    #[test]
    fn savings_are_fractions(
        tph in 1.0..16.0f64,
        speed in 80.0..320.0f64,
        nodes in 1usize..=10,
    ) {
        let grid = ScenarioGrid::new()
            .trains_per_hour(vec![tph])
            .train_speeds_kmh(vec![speed])
            .repeater_nodes(nodes)
            .unwrap();
        let report = SweepEngine::new().workers(1).pv_sizing(false).run(&grid).unwrap();
        for strategy in [
            EnergyStrategy::ContinuousRepeaters,
            EnergyStrategy::SleepModeRepeaters,
            EnergyStrategy::SolarPoweredRepeaters,
        ] {
            let s = report.results()[0].savings(strategy);
            prop_assert!((-1.0..1.0).contains(&s), "savings {s} for {strategy:?}");
        }
    }

    /// Metamorphic: more trains per hour never lower the energy per km,
    /// for the conventional baseline or any strategy, with every other
    /// axis fixed.
    #[test]
    fn energy_per_km_is_monotone_in_trains_per_hour(
        tph in 0.5..30.0f64,
        more in 0.0..10.0f64,
        speed in 60.0..320.0f64,
        shape in (0usize..3, 1usize..=10),
    ) {
        let (isd, nodes) = shape;
        let grid = ScenarioGrid::new()
            .trains_per_hour(vec![tph, tph + more])
            .train_speeds_kmh(vec![speed])
            .conventional_isds_m(vec![ISDS[isd]])
            .repeater_nodes(nodes)
            .unwrap();
        let report = SweepEngine::new().workers(1).pv_sizing(false).run(&grid).unwrap();
        let [sparse, dense] = report.results() else {
            panic!("expected two cells, got {}", report.len());
        };
        prop_assert_eq!(sparse.cell().trains_per_hour(), tph);
        prop_assert_eq!(dense.cell().trains_per_hour(), tph + more);
        prop_assert!(
            dense.baseline().total() >= sparse.baseline().total(),
            "baseline: {} -> {} tph lowered energy", tph, tph + more
        );
        for strategy in EnergyStrategy::ALL {
            prop_assert!(
                dense.split(strategy).total() >= sparse.split(strategy).total(),
                "{strategy:?}: {} -> {} tph lowered energy", tph, tph + more
            );
        }
    }
}

/// Metamorphic: solar-powered repeaters draw no mains power. On every
/// cell of the 200-cell screening sweep (PV sizing on, as served), the
/// `SolarPoweredRepeaters` split's service and donor power are zero.
#[test]
fn solar_repeaters_draw_no_mains_power_on_the_screening_sweep() {
    let report = SweepEngine::new()
        .workers(1)
        .run(&ScenarioGrid::screening_200())
        .unwrap();
    assert_eq!(report.len(), 200);
    for result in report.results() {
        let split = result.split(EnergyStrategy::SolarPoweredRepeaters);
        assert_eq!(split.service, Watts::ZERO, "{}", result.cell());
        assert_eq!(split.donor, Watts::ZERO, "{}", result.cell());
        assert!(split.hp > Watts::ZERO, "{}", result.cell());
    }
}

/// Every split of the 200-cell screening sweep equals the core energy
/// function evaluated directly, bit for bit, and stays finite — the
/// zero-baseline savings convention included.
#[test]
fn screening_sweep_splits_equal_the_core_energy_functions() {
    let report = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .run(&ScenarioGrid::screening_200())
        .unwrap();
    assert_eq!(report.len(), 200);
    let bits = |e: &SegmentEnergy| [e.hp, e.service, e.donor].map(|w| w.value().to_bits());
    let zero = SegmentEnergy {
        hp: Watts::ZERO,
        service: Watts::ZERO,
        donor: Watts::ZERO,
    };
    for result in report.results() {
        let cell = result.cell();
        let params = cell.params();
        let baseline = energy::average_power_per_km(
            params,
            0,
            params.conventional_isd(),
            EnergyStrategy::SleepModeRepeaters,
        );
        assert_eq!(bits(result.baseline()), bits(&baseline), "{cell}");
        assert!(result.baseline().total().value().is_finite(), "{cell}");
        for strategy in EnergyStrategy::ALL {
            let split = result.split(strategy);
            let expected = energy::average_power_per_km(params, cell.nodes(), cell.isd(), strategy);
            assert_eq!(bits(split), bits(&expected), "{cell} {strategy}");
            for w in [split.hp, split.service, split.donor] {
                assert!(w.value().is_finite(), "{cell}: {w:?}");
            }
            assert!(result.savings(strategy).is_finite(), "{cell}");
        }
        assert_eq!(
            result
                .split(EnergyStrategy::SleepModeRepeaters)
                .savings_vs(&zero),
            0.0
        );
    }
}

/// A degenerate one-cell grid reproduces the `paper_default()` headline
/// numbers exactly (not approximately: the same code path, the same
/// floats).
#[test]
fn one_cell_grid_reproduces_paper_headline_exactly() {
    let report = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .run(&ScenarioGrid::new())
        .unwrap();
    let r = &report.results()[0];
    let h = experiments::headline_numbers(&ScenarioParams::paper_default());
    assert_eq!(
        r.savings(EnergyStrategy::SleepModeRepeaters),
        h.savings_sleep_10
    );
    assert_eq!(
        r.savings(EnergyStrategy::SolarPoweredRepeaters),
        h.savings_solar_10
    );

    let one_node = SweepEngine::new()
        .workers(1)
        .pv_sizing(false)
        .run(&ScenarioGrid::new().repeater_nodes(1).unwrap())
        .unwrap();
    let r1 = &one_node.results()[0];
    assert_eq!(
        r1.savings(EnergyStrategy::SleepModeRepeaters),
        h.savings_sleep_1
    );
    assert_eq!(
        r1.savings(EnergyStrategy::SolarPoweredRepeaters),
        h.savings_solar_1
    );
}
