//! Property-based tests for link-budget invariants.

use corridor_link::{CoverageProfile, NrCarrier, SignalSource, SnrModel, ThroughputModel};
use corridor_propagation::CalibratedFriis;
use corridor_units::{Db, Dbm, Hertz, Meters};
use proptest::prelude::*;

fn hp() -> CalibratedFriis {
    CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(33.0))
}

fn lp() -> CalibratedFriis {
    CalibratedFriis::new(Hertz::from_ghz(3.7), Db::new(20.0))
}

proptest! {
    /// Throughput is monotone non-decreasing in SNR.
    #[test]
    fn throughput_monotone(a in -30.0..60.0f64, b in -30.0..60.0f64) {
        let m = ThroughputModel::nr_default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(m.spectral_efficiency(Db::new(hi)) >= m.spectral_efficiency(Db::new(lo)));
    }

    /// Spectral efficiency is bounded by [0, Thr_MAX].
    #[test]
    fn throughput_bounded(snr in -100.0..100.0f64) {
        let m = ThroughputModel::nr_default();
        let se = m.spectral_efficiency(Db::new(snr));
        prop_assert!((0.0..=5.84).contains(&se));
    }

    /// Above peak_snr the model always reports peak; below, never.
    #[test]
    fn peak_predicate_consistent(snr in -30.0..60.0f64) {
        let m = ThroughputModel::nr_default();
        let is_peak = m.is_peak(Db::new(snr));
        let se = m.spectral_efficiency(Db::new(snr));
        if is_peak {
            prop_assert!((se - 5.84).abs() < 1e-12);
        } else {
            prop_assert!(se < 5.84);
        }
    }

    /// Adding a repeater source never lowers the total signal.
    #[test]
    fn extra_source_never_lowers_signal(pos in 0.0..2000.0f64, probe in 0.0..2000.0f64) {
        let base = SnrModel::new(NrCarrier::paper_100mhz())
            .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.81), hp()));
        let with = base.clone().with_source(
            SignalSource::new(Meters::new(pos), Dbm::new(4.81), lp()));
        let at = Meters::new(probe);
        let s1 = base.total_signal_at(at).unwrap();
        let s2 = with.total_signal_at(at).unwrap();
        prop_assert!(s2.value() >= s1.value() - 1e-9);
    }

    /// SNR equals signal minus noise at every sample of a profile.
    #[test]
    fn profile_samples_self_consistent(isd in 200.0..3000.0f64) {
        let model = SnrModel::new(NrCarrier::paper_100mhz())
            .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.81), hp()))
            .with_source(SignalSource::new(Meters::new(isd), Dbm::new(28.81), hp()));
        let thr = ThroughputModel::nr_default();
        let p = CoverageProfile::sample(&model, Meters::new(isd), Meters::new(10.0), &thr);
        for s in p.samples() {
            prop_assert!(((s.signal - s.noise).value() - s.snr.value()).abs() < 1e-9);
            prop_assert!((s.spectral_efficiency - thr.spectral_efficiency(s.snr)).abs() < 1e-12);
        }
    }

    /// Repeater noise only ever increases total noise, and total noise is
    /// at least the terminal noise.
    #[test]
    fn noise_floor_is_lower_bound(pos in 0.0..1000.0f64, probe in 0.0..1000.0f64, nf in 0.0..15.0f64) {
        let repeater = SignalSource::new(Meters::new(pos), Dbm::new(4.81), lp())
            .with_emitted_noise(Dbm::new(-132.0) + Db::new(nf));
        let model = SnrModel::new(NrCarrier::paper_100mhz())
            .with_source(SignalSource::new(Meters::ZERO, Dbm::new(28.81), hp()))
            .with_source(repeater);
        let at = Meters::new(probe);
        prop_assert!(model.total_noise_at(at).value() >= model.terminal_noise().value() - 1e-12);
    }

    /// EIRP -> RSTP -> EIRP round trip on the paper's carrier.
    #[test]
    fn carrier_division_round_trip(eirp in -30.0..70.0f64) {
        let c = NrCarrier::paper_100mhz();
        let down = c.per_subcarrier(Dbm::new(eirp));
        let up = down + c.subcarrier_division();
        prop_assert!((up.value() - eirp).abs() < 1e-9);
        prop_assert!(down.value() <= eirp);
    }
}
