//! Oracle test for the early-exit Table IV search.
//!
//! `size_for_zero_downtime` stops a candidate at its first downtime day
//! and skips its remaining seed years. The oracle below is the search it
//! replaced, kept verbatim: every candidate steps every seed year in
//! full and passes only if all of them are downtime-free. Over random
//! loads, sites, candidate ladders and seed sets both searches must pick
//! the same candidate (or none), and the winner's year stats must be
//! bit-identical.

use corridor_solar::sizing::{size_for_zero_downtime, PvSizing, SizingOptions};
use corridor_solar::{
    climate, Battery, DailyLoadProfile, Location, OffGridSystem, PvArray, PvModule, YearStats,
};
use corridor_units::{WattHours, Watts};
use proptest::prelude::*;

/// The full search: every candidate runs every seed year to the end.
fn oracle(location: Location, load: DailyLoadProfile, options: &SizingOptions) -> Option<PvSizing> {
    for pv in &options.pv_candidates {
        for &battery_capacity in &options.battery_candidates {
            let system = OffGridSystem::new(
                location.clone(),
                *pv,
                Battery::with_capacity(battery_capacity),
                load.clone(),
            );
            let stats: Vec<_> = options
                .seeds
                .iter()
                .map(|&seed| system.simulate_year(seed))
                .collect();
            if stats.iter().all(|s| s.downtime_days() == 0) {
                return Some(PvSizing {
                    pv: *pv,
                    battery_capacity,
                    stats,
                });
            }
        }
    }
    None
}

/// Every field of a year's stats, floats as bits.
fn stat_bits(stats: &YearStats) -> [u64; 8] {
    [
        u64::from(stats.days()),
        u64::from(stats.full_battery_days()),
        u64::from(stats.downtime_days()),
        stats.unmet_energy().value().to_bits(),
        stats.curtailed_energy().value().to_bits(),
        stats.generation().value().to_bits(),
        stats.consumption().value().to_bits(),
        stats.min_soc_fraction().to_bits(),
    ]
}

/// Asserts that both searches chose the same candidate with
/// bit-identical stats, or both found none.
fn assert_same(fast: Option<PvSizing>, full: Option<PvSizing>) {
    match (fast, full) {
        (None, None) => {}
        (Some(fast), Some(full)) => {
            assert_eq!(fast.pv, full.pv);
            assert_eq!(fast.battery_capacity, full.battery_capacity);
            let fast_bits: Vec<[u64; 8]> = fast.stats.iter().map(stat_bits).collect();
            let full_bits: Vec<[u64; 8]> = full.stats.iter().map(stat_bits).collect();
            assert_eq!(fast_bits, full_bits);
        }
        (fast, full) => panic!("early exit chose {fast:?}, the full search {full:?}"),
    }
}

/// A paper region, either as published or with perturbed normals.
fn site() -> impl Strategy<Value = Location> {
    let region = 0usize..4;
    let perturbation = (0.5..1.3f64, -4.0..4.0f64, -3.0..3.0f64, 0.4..0.9f64);
    (region, 0u32..2, perturbation).prop_map(|(i, perturb, (ghi, lat, temp, persistence))| {
        let base = climate::paper_regions()[i].clone();
        if perturb == 0 {
            return base;
        }
        let mut ghi_normals = *base.monthly_ghi_kwh_m2_day();
        ghi_normals.iter_mut().for_each(|g| *g *= ghi);
        let mut temp_normals = *base.monthly_temp_c();
        temp_normals.iter_mut().for_each(|t| *t += temp);
        Location::new(
            base.name(),
            base.latitude_deg() + lat,
            ghi_normals,
            temp_normals,
        )
        .with_overcast_persistence(persistence)
    })
}

/// A repeater load: sleep power at night, another power by day.
fn load() -> impl Strategy<Value = DailyLoadProfile> {
    (0.0..40.0f64, 0.0..40.0f64, 0usize..24).prop_map(|(sleep, day, night_hours)| {
        DailyLoadProfile::repeater_profile(Watts::new(sleep), Watts::new(day), night_hours)
    })
}

/// A candidate ladder and a non-empty seed set.
fn options() -> impl Strategy<Value = SizingOptions> {
    let pv = (150.0..260.0f64, 1u32..6)
        .prop_map(|(peak, count)| PvArray::new(PvModule::with_peak(Watts::new(peak)), count));
    let battery = (200.0..3000.0f64).prop_map(WattHours::new);
    (
        prop::collection::vec(pv, 1..4),
        prop::collection::vec(battery, 1..4),
        prop::collection::vec(0u64..1000, 1..4),
    )
        .prop_map(|(pv_candidates, battery_candidates, seeds)| SizingOptions {
            pv_candidates,
            battery_candidates,
            seeds,
        })
}

proptest! {
    /// Random sites, loads, ladders and seeds: the early exit picks the
    /// full search's answer.
    #[test]
    fn early_exit_picks_the_full_search_answer(
        location in site(),
        load in load(),
        options in options(),
    ) {
        let fast = size_for_zero_downtime(location.clone(), load.clone(), &options);
        let full = oracle(location, load, &options);
        assert_same(fast, full);
    }

    /// The paper ladder and seeds on the four paper climates, over the
    /// load range where the ladder's answer changes.
    #[test]
    fn paper_ladder_matches_the_full_search(
        region in 0usize..4,
        day in 2.0..14.0f64,
        night_hours in 0usize..24,
    ) {
        let location = climate::paper_regions()[region].clone();
        let load = DailyLoadProfile::repeater_profile(Watts::new(4.72), Watts::new(day), night_hours);
        let options = SizingOptions::paper_default();
        let fast = size_for_zero_downtime(location.clone(), load.clone(), &options);
        let full = oracle(location, load, &options);
        assert_same(fast, full);
    }
}

#[test]
fn table_iv_regions_match_the_full_search() {
    let options = SizingOptions::paper_default();
    for location in climate::paper_regions() {
        let load = DailyLoadProfile::repeater_paper_default();
        let fast = size_for_zero_downtime(location.clone(), load.clone(), &options);
        let full = oracle(location, load, &options);
        assert_same(fast, full);
    }
}
