//! Integration tests exercising interactions between crates that no
//! single crate's unit tests cover.

use railway_corridor::prelude::*;
use railway_corridor::propagation::{LogDistance, TwoRayGround};

/// The traffic-derived duty cycle feeds the power model consistently:
/// computing the repeater's daily energy through the full pipeline equals
/// the hand-computed paper value.
#[test]
fn traffic_to_power_pipeline() {
    let params = ScenarioParams::paper_default();
    let section = TrackSection::around(Meters::new(500.0), params.lp_spacing());
    let activity = ActivityTimeline::for_section(&section, &params.timetable().passes());
    let duty = DutyCycle::over_day(activity.total_active_hours(), Hours::ZERO);
    let daily = duty.daily_energy(params.lp_node());
    assert!((daily.value() - 124.1).abs() < 0.1, "got {daily}");
}

/// The same duty cycle drives the solar load profile: a profile built
/// from the traffic simulation matches the paper's PVGIS input closely.
#[test]
fn traffic_to_solar_pipeline() {
    let params = ScenarioParams::paper_default();
    let section = TrackSection::around(Meters::new(500.0), params.lp_spacing());
    let activity = ActivityTimeline::for_section(&section, &params.timetable().passes());

    // build an hourly profile from the actual activity timeline
    let mut hourly = [Watts::ZERO; 24];
    let full = params.lp_node().full_load_power();
    let sleep = params.lp_node().p_sleep();
    for (h, slot) in hourly.iter_mut().enumerate() {
        let from = Seconds::new(h as f64 * 3600.0);
        let to = Seconds::new((h + 1) as f64 * 3600.0);
        let active = activity.active_within(from, to);
        let fraction = active.value() / 3600.0;
        *slot = full * fraction + sleep * (1.0 - fraction);
    }
    let from_traffic = DailyLoadProfile::from_hourly(hourly);
    let paper = DailyLoadProfile::repeater_paper_default();
    assert!(
        (from_traffic.daily_energy().value() - paper.daily_energy().value()).abs() < 0.5,
        "traffic-derived {} vs paper {}",
        from_traffic.daily_energy(),
        paper.daily_energy()
    );

    // and the traffic-derived profile is just as solvable in Madrid
    let system = OffGridSystem::new(
        climate::madrid(),
        PvArray::standard_modules(3),
        Battery::paper_default(),
        from_traffic,
    );
    assert_eq!(system.simulate_year(2).downtime_days(), 0);
}

/// Swapping the path-loss family changes the achievable ISD in the
/// physically expected direction.
#[test]
fn pathloss_families_order_the_isd() {
    let base = IsdOptimizer::new(LinkBudget::paper_default()).with_sample_step(Meters::new(10.0));
    let friis_isd = base.max_isd(2).unwrap();

    // a harsher link: a noise floor 6 dB higher costs range
    let harsh_budget = LinkBudget::paper_default().with_noise_floor(Dbm::new(-126.0));
    let harsh = IsdOptimizer::new(harsh_budget).with_sample_step(Meters::new(10.0));
    let harsh_isd = harsh.max_isd(2).unwrap();
    assert!(harsh_isd < friis_isd);

    // sanity on the alternative models themselves
    let d = Meters::new(1000.0);
    let friis = CalibratedFriis::new(Hertz::from_ghz(3.5), Db::new(0.0));
    let log35 = LogDistance::new(Hertz::from_ghz(3.5), 3.5);
    let two_ray = TwoRayGround::new(Hertz::from_ghz(3.5), Meters::new(15.0), Meters::new(3.0));
    assert!(log35.attenuation(d) > friis.attenuation(d));
    assert_eq!(two_ray.attenuation(d), friis.attenuation(d)); // below crossover
}

/// The donor-node rule changes the energy by the expected small amount:
/// removing donors from a 10-node deployment saves under 10 %.
#[test]
fn donor_share_is_small() {
    let params = ScenarioParams::paper_default();
    let with = energy::average_power_per_km(
        &params,
        10,
        Meters::new(2650.0),
        EnergyStrategy::SleepModeRepeaters,
    );
    let donor_share = with.donor / with.total();
    assert!(
        donor_share > 0.0 && donor_share < 0.10,
        "share {donor_share}"
    );
}

/// The wake controller integrates with the energy model: a 1 s barrier
/// lead on every pass adds well under 1 % to the repeater's daily energy.
#[test]
fn wake_lead_energy_overhead_negligible() {
    let params = ScenarioParams::paper_default();
    let section = TrackSection::around(Meters::new(500.0), params.lp_spacing());
    let passes = params.timetable().passes();
    let plain = ActivityTimeline::for_section(&section, &passes);
    let ctl = WakeController::paper_default();
    let waked = ActivityTimeline::for_section_with_wake(&section, &passes, &ctl);
    let plain_e =
        DutyCycle::over_day(plain.total_active_hours(), Hours::ZERO).daily_energy(params.lp_node());
    let waked_e =
        DutyCycle::over_day(waked.total_active_hours(), Hours::ZERO).daily_energy(params.lp_node());
    let overhead = (waked_e - plain_e) / plain_e;
    assert!(overhead < 0.01, "overhead {overhead}");
    assert!(waked_e >= plain_e);
}

/// Units flow through the whole stack without manual conversions: a
/// corridor evaluation in different length units agrees.
#[test]
fn unit_consistency_end_to_end() {
    let params = ScenarioParams::paper_default();
    let isd_m = Meters::new(2400.0);
    let isd_km: Meters = Kilometers::new(2.4).into();
    let a = energy::average_power_per_km(&params, 8, isd_m, EnergyStrategy::SleepModeRepeaters);
    let b = energy::average_power_per_km(&params, 8, isd_km, EnergyStrategy::SleepModeRepeaters);
    assert_eq!(a, b);
}

/// The EIRP chain: watts -> dBm -> per-subcarrier RSTP -> RSRP -> SNR ->
/// throughput, all in one expression, lands on the paper's numbers.
#[test]
fn eirp_chain_matches_paper() {
    let carrier = NrCarrier::paper_100mhz();
    let eirp = Dbm::from_milliwatts(2_500_000.0);
    let rstp = carrier.per_subcarrier(eirp);
    assert!((rstp.value() - 28.8).abs() < 0.05);
    let model = CalibratedFriis::new(Hertz::from_ghz(3.5), Db::new(33.0));
    let rsrp = rstp - model.attenuation(Meters::new(250.0));
    let snr = rsrp - (Dbm::new(-132.0) + Db::new(5.0));
    let thr = ThroughputModel::nr_default();
    assert_eq!(thr.spectral_efficiency(snr), 5.84);
}

/// Serde round-trip across crates (feature-gated types compile and the
/// default feature set builds without serde).
#[test]
fn public_types_have_debug_and_clone() {
    fn assert_traits<T: std::fmt::Debug + Clone + Send + Sync>() {}
    assert_traits::<ScenarioParams>();
    assert_traits::<LinkBudget>();
    assert_traits::<IsdTable>();
    assert_traits::<CoverageProfile>();
    assert_traits::<DailyLoadProfile>();
    assert_traits::<Battery>();
    assert_traits::<Timetable>();
    assert_traits::<LoadDependentPower>();
}
