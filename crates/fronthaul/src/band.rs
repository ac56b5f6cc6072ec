//! mmWave band presets.

use core::fmt;

use corridor_units::{Db, Dbm, Hertz};

/// A millimetre-wave band usable for the donor fronthaul.
///
/// The two practically relevant choices for unlicensed/lightly-licensed
/// fixed links:
///
/// * **V-band (57–66 GHz)** — unlicensed in most of Europe, but sits on
///   the 60 GHz oxygen absorption peak (~15 dB/km extra), which limits
///   hops to a few hundred metres — exactly the repeater spacing regime;
/// * **E-band (71–76 / 81–86 GHz)** — light-licensed, no oxygen peak,
///   longer reach, higher EIRP allowance (a custom [`MmWaveBand::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MmWaveBand {
    name: &'static str,
    frequency: Hertz,
    max_eirp: Dbm,
    oxygen_db_per_km: Db,
}

impl MmWaveBand {
    /// V-band at 60 GHz: 40 dBm EIRP limit (ETSI), ~15 dB/km oxygen
    /// absorption.
    pub fn v_band_60ghz() -> Self {
        MmWaveBand {
            name: "V-band 60 GHz",
            frequency: Hertz::from_ghz(60.0),
            max_eirp: Dbm::new(40.0),
            oxygen_db_per_km: Db::new(15.0),
        }
    }

    /// A custom band.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is not in the mmWave range (24–300 GHz).
    pub fn new(name: &'static str, frequency: Hertz, max_eirp: Dbm, oxygen_db_per_km: Db) -> Self {
        assert!(
            (24.0..=300.0).contains(&frequency.gigahertz()),
            "not a mmWave frequency"
        );
        MmWaveBand {
            name,
            frequency,
            max_eirp,
            oxygen_db_per_km,
        }
    }

    /// Band name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Carrier frequency.
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// Regulatory EIRP ceiling.
    pub fn max_eirp(&self) -> Dbm {
        self.max_eirp
    }

    /// Oxygen (gaseous) specific attenuation.
    pub fn oxygen_db_per_km(&self) -> Db {
        self.oxygen_db_per_km
    }
}

impl fmt::Display for MmWaveBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let v = MmWaveBand::v_band_60ghz();
        assert_eq!(v.frequency(), Hertz::from_ghz(60.0));
        assert_eq!(v.max_eirp(), Dbm::new(40.0));
        assert_eq!(v.oxygen_db_per_km(), Db::new(15.0));
    }

    #[test]
    fn display() {
        assert_eq!(MmWaveBand::v_band_60ghz().to_string(), "V-band 60 GHz");
    }

    #[test]
    #[should_panic(expected = "not a mmWave")]
    fn sub6_rejected() {
        let _ = MmWaveBand::new("bad", Hertz::from_ghz(3.5), Dbm::new(40.0), Db::ZERO);
    }
}
