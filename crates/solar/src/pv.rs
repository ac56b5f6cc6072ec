//! Photovoltaic module and array model.

use corridor_units::Watts;

/// One PV module, rated at standard test conditions (1000 W/m², 25 °C).
///
/// The paper considers standard 0.6 m × 1.4 m modules of 180 Wp mounted
/// vertically on catenary masts ([`PvModule::standard_180wp`]).
///
/// # Examples
///
/// ```
/// use corridor_solar::PvModule;
/// let m = PvModule::standard_180wp();
/// // full irradiance at 25 °C cell temperature -> rated power
/// assert!((m.dc_power_w(1000.0, 25.0 - 31.25) - 180.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvModule {
    peak: Watts,
}

impl PvModule {
    /// Power temperature coefficient, per kelvin above 25 °C.
    const TEMP_COEFF_PER_K: f64 = -0.004;
    /// Nominal operating cell temperature, °C.
    const NOCT_C: f64 = 45.0;

    /// The paper's standard module: 180 Wp, −0.4 %/K, NOCT 45 °C.
    pub fn standard_180wp() -> Self {
        PvModule::with_peak(Watts::new(180.0))
    }

    /// A module with the given peak power and standard thermal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is not strictly positive.
    pub fn with_peak(peak: Watts) -> Self {
        assert!(peak.value() > 0.0, "peak power must be positive");
        PvModule { peak }
    }

    /// Rated (STC) power.
    pub fn peak(&self) -> Watts {
        self.peak
    }

    /// Cell temperature (°C) under `poa_w_m2` at ambient `ambient_c`,
    /// using the NOCT model.
    pub fn cell_temperature_c(&self, poa_w_m2: f64, ambient_c: f64) -> f64 {
        ambient_c + (Self::NOCT_C - 20.0) / 800.0 * poa_w_m2
    }

    /// DC output power (watts) under `poa_w_m2` at ambient `ambient_c`.
    pub fn dc_power_w(&self, poa_w_m2: f64, ambient_c: f64) -> f64 {
        if poa_w_m2 <= 0.0 {
            return 0.0;
        }
        let t_cell = self.cell_temperature_c(poa_w_m2, ambient_c);
        let derate = 1.0 + Self::TEMP_COEFF_PER_K * (t_cell - 25.0);
        (self.peak.value() * poa_w_m2 / 1000.0 * derate).max(0.0)
    }
}

/// A string of identical modules plus balance-of-system losses.
///
/// # Examples
///
/// ```
/// use corridor_solar::PvArray;
/// // the paper's standard repeater system: three 180 Wp modules = 540 Wp
/// let array = PvArray::standard_modules(3);
/// assert_eq!(array.peak().value(), 540.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PvArray {
    module: PvModule,
    count: u32,
}

impl PvArray {
    /// Balance-of-system efficiency (wiring, charge controller,
    /// soiling): 86 %, matching PVGIS' default 14 % system loss.
    const SYSTEM_EFFICIENCY: f64 = 0.86;

    /// `count` standard 180 Wp modules.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn standard_modules(count: u32) -> Self {
        PvArray::new(PvModule::standard_180wp(), count)
    }

    /// An array of `count` identical `module`s.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(module: PvModule, count: u32) -> Self {
        assert!(count > 0, "array needs at least one module");
        PvArray { module, count }
    }

    /// Number of modules.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Installed peak power.
    pub fn peak(&self) -> Watts {
        self.module.peak() * f64::from(self.count)
    }

    /// AC-side output power (watts) under `poa_w_m2` at ambient
    /// `ambient_c`, including system losses.
    pub fn output_power_w(&self, poa_w_m2: f64, ambient_c: f64) -> f64 {
        self.module.dc_power_w(poa_w_m2, ambient_c)
            * f64::from(self.count)
            * Self::SYSTEM_EFFICIENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rated_power_at_stc() {
        let m = PvModule::standard_180wp();
        // ambient such that cell temp is exactly 25 °C
        let ambient = 25.0 - (45.0 - 20.0) / 800.0 * 1000.0;
        assert!((m.dc_power_w(1000.0, ambient) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn zero_in_darkness() {
        let m = PvModule::standard_180wp();
        assert_eq!(m.dc_power_w(0.0, 20.0), 0.0);
        assert_eq!(m.dc_power_w(-5.0, 20.0), 0.0);
    }

    #[test]
    fn hot_cells_produce_less() {
        let m = PvModule::standard_180wp();
        let cold = m.dc_power_w(800.0, 0.0);
        let hot = m.dc_power_w(800.0, 35.0);
        assert!(cold > hot);
        // 35 K ambient difference -> 14 % power difference at -0.4 %/K
        assert!((cold / hot - 1.0 - 0.004 * 35.0).abs() < 0.05);
    }

    #[test]
    fn cell_temperature_noct_model() {
        let m = PvModule::standard_180wp();
        // at NOCT conditions (800 W/m², 20 °C) the cell sits at NOCT
        assert!((m.cell_temperature_c(800.0, 20.0) - 45.0).abs() < 1e-9);
    }

    #[test]
    fn array_scales_linearly() {
        let one = PvArray::standard_modules(1);
        let three = PvArray::standard_modules(3);
        assert_eq!(three.peak(), Watts::new(540.0));
        let p1 = one.output_power_w(600.0, 10.0);
        let p3 = three.output_power_w(600.0, 10.0);
        assert!((p3 - 3.0 * p1).abs() < 1e-9);
    }

    #[test]
    fn system_losses_applied() {
        // the 0.86 balance-of-system factor rides on every array's output
        let array = PvArray::standard_modules(1).output_power_w(500.0, 10.0);
        let module = PvModule::standard_180wp().dc_power_w(500.0, 10.0);
        assert!((array - module * 0.86).abs() < 1e-9);
    }

    #[test]
    fn paper_sizes() {
        // 540 Wp for Madrid/Lyon/Vienna; 600 Wp ("slightly larger") Berlin
        assert_eq!(PvArray::standard_modules(3).peak(), Watts::new(540.0));
        let berlin = PvArray::new(PvModule::with_peak(Watts::new(200.0)), 3);
        assert_eq!(berlin.peak(), Watts::new(600.0));
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_array_rejected() {
        let _ = PvArray::standard_modules(0);
    }
}
