//! 5G NR carrier and subcarrier accounting.

use corridor_units::{Db, Dbm, Hertz};

/// A 5G NR carrier: occupied bandwidth and number of subcarriers.
///
/// Reference signal powers (RSTP/RSRP) are *per-subcarrier* quantities: the
/// total transmit power is divided evenly over all subcarriers, i.e.
/// `RSTP = EIRP − 10·log10(N_sc)` in the log domain.
///
/// The paper uses a 100 MHz carrier with 3300 subcarriers (30 kHz
/// subcarrier spacing); [`NrCarrier::paper_100mhz`] reproduces that.
///
/// # Examples
///
/// ```
/// use corridor_link::NrCarrier;
/// use corridor_units::Dbm;
///
/// let carrier = NrCarrier::paper_100mhz();
/// // 2500 W EIRP = 64 dBm total -> 28.8 dBm per subcarrier
/// let rstp = carrier.per_subcarrier(Dbm::from_milliwatts(2_500_000.0));
/// assert!((rstp.value() - 28.79).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NrCarrier {
    bandwidth: Hertz,
    subcarriers: u32,
}

impl NrCarrier {
    /// The paper's carrier: 100 MHz with 3300 subcarriers.
    pub const fn paper_100mhz() -> Self {
        NrCarrier {
            bandwidth: Hertz::from_mhz(100.0),
            subcarriers: 3300,
        }
    }

    /// The dB factor `10·log10(N_sc)` between total power and
    /// per-subcarrier power.
    pub fn subcarrier_division(&self) -> Db {
        Db::new(10.0 * f64::from(self.subcarriers).log10())
    }

    /// Converts a total transmit power (EIRP) to per-subcarrier RSTP.
    pub fn per_subcarrier(&self, total: Dbm) -> Dbm {
        total - self.subcarrier_division()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_carrier_values() {
        let c = NrCarrier::paper_100mhz();
        // 10 log10(3300) = 35.19 dB
        assert!((c.subcarrier_division().value() - 35.185).abs() < 1e-3);
    }

    #[test]
    fn eirp_to_rstp_paper_values() {
        let c = NrCarrier::paper_100mhz();
        // HP: 64 dBm EIRP -> 28.8 dBm RSTP
        let hp = c.per_subcarrier(Dbm::new(64.0));
        assert!((hp.value() - 28.81).abs() < 0.01);
        // LP: 40 dBm EIRP -> 4.8 dBm RSTP
        let lp = c.per_subcarrier(Dbm::new(40.0));
        assert!((lp.value() - 4.81).abs() < 0.01);
    }
}
