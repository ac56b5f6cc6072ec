//! Component-level power bill of the low-power repeater prototype
//! (paper Table I).

use core::fmt;

use corridor_units::Watts;

/// The signal path a component belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentRole {
    /// Shared infrastructure (controller, clocking, LO distribution).
    Common,
    /// Downlink amplification chain.
    Downlink,
    /// Uplink amplification chain.
    Uplink,
}

impl fmt::Display for ComponentRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ComponentRole::Common => "common",
            ComponentRole::Downlink => "DL",
            ComponentRole::Uplink => "UL",
        };
        f.write_str(s)
    }
}

/// One row of the repeater's power bill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeaterComponent {
    /// Component name as listed in Table I.
    pub name: &'static str,
    /// Which chain the component belongs to.
    pub role: ComponentRole,
    /// Power draw while the repeater is operating.
    pub active: Watts,
    /// Power draw in sleep mode.
    pub sleep: Watts,
}

/// The full component bill of the prototype repeater node.
///
/// Reproduces paper Table I. Common components are instantiated once; the
/// DL and UL chains exist once per signal path (two paths in the
/// prototype: one per direction along the track).
///
/// The paper's stated full-load total (28.38 W) is smaller than the naive
/// `common + paths·(DL + UL)` sum of the printed rows (31.90 W) — the
/// prototype does not run every amplifier at its maximum simultaneously.
/// [`RepeaterBill::paper_full_load_total`] preserves the published number;
/// [`RepeaterBill::naive_active_total`] exposes the arithmetic sum. The
/// sleep-mode column is internally consistent:
/// `2 + 2.22 + 0.5 = 4.72 W`.
///
/// # Examples
///
/// ```
/// use corridor_power::RepeaterBill;
/// let bill = RepeaterBill::prototype();
/// assert!((bill.sleep_total().value() - 4.72).abs() < 1e-9);
/// assert_eq!(bill.paper_full_load_total().value(), 28.38);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RepeaterBill {
    components: Vec<RepeaterComponent>,
    dl_paths: u32,
    ul_paths: u32,
}

impl RepeaterBill {
    /// The prototype's bill exactly as printed in paper Table I.
    pub fn prototype() -> Self {
        use ComponentRole::{Common, Downlink, Uplink};
        let w = Watts::new;
        let components = vec![
            RepeaterComponent {
                name: "Controller",
                role: Common,
                active: w(2.0),
                sleep: w(2.0),
            },
            RepeaterComponent {
                name: "GNSS DOCXO",
                role: Common,
                active: w(2.22),
                sleep: w(2.22),
            },
            RepeaterComponent {
                name: "Local Oscillator",
                role: Common,
                active: w(5.0),
                sleep: w(0.5),
            },
            RepeaterComponent {
                name: "Frequency Doubler",
                role: Common,
                active: w(0.35),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "RF Switches",
                role: Common,
                active: w(0.195),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "RX LNA",
                role: Downlink,
                active: w(0.27),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "TX PA",
                role: Downlink,
                active: w(5.0),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "RX LNA",
                role: Uplink,
                active: w(0.462),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "Second RX LNA",
                role: Uplink,
                active: w(0.335),
                sleep: w(0.0),
            },
            RepeaterComponent {
                name: "TX PA",
                role: Uplink,
                active: w(5.0),
                sleep: w(0.0),
            },
        ];
        RepeaterBill {
            components,
            dl_paths: 2,
            ul_paths: 2,
        }
    }

    /// All components.
    pub fn components(&self) -> &[RepeaterComponent] {
        &self.components
    }

    /// Components filtered by role.
    pub fn components_with_role(
        &self,
        role: ComponentRole,
    ) -> impl Iterator<Item = &RepeaterComponent> {
        self.components.iter().filter(move |c| c.role == role)
    }

    /// Number of downlink signal paths.
    pub fn dl_paths(&self) -> u32 {
        self.dl_paths
    }

    /// Number of uplink signal paths.
    pub fn ul_paths(&self) -> u32 {
        self.ul_paths
    }

    fn role_total(&self, role: ComponentRole, active: bool) -> Watts {
        self.components_with_role(role)
            .map(|c| if active { c.active } else { c.sleep })
            .sum()
    }

    /// Active power of the common chain (single instance).
    pub fn common_active(&self) -> Watts {
        self.role_total(ComponentRole::Common, true)
    }

    /// Active power of one downlink chain.
    pub fn dl_active_per_path(&self) -> Watts {
        self.role_total(ComponentRole::Downlink, true)
    }

    /// Active power of one uplink chain.
    pub fn ul_active_per_path(&self) -> Watts {
        self.role_total(ComponentRole::Uplink, true)
    }

    /// Sleep-mode total: only the common chain stays partially powered.
    pub fn sleep_total(&self) -> Watts {
        self.role_total(ComponentRole::Common, false)
            + self.role_total(ComponentRole::Downlink, false) * f64::from(self.dl_paths)
            + self.role_total(ComponentRole::Uplink, false) * f64::from(self.ul_paths)
    }

    /// The arithmetic full-load sum `common + paths·(DL + UL)` of the
    /// printed rows: 31.90 W. See the type-level docs for why this differs
    /// from the paper's stated total.
    pub fn naive_active_total(&self) -> Watts {
        self.common_active()
            + self.dl_active_per_path() * f64::from(self.dl_paths)
            + self.ul_active_per_path() * f64::from(self.ul_paths)
    }

    /// The full-load total as published in Table I: 28.38 W.
    pub fn paper_full_load_total(&self) -> Watts {
        Watts::new(28.38)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_total_matches_table_i() {
        let bill = RepeaterBill::prototype();
        assert!((bill.sleep_total().value() - 4.72).abs() < 1e-9);
    }

    #[test]
    fn chain_subtotals() {
        let bill = RepeaterBill::prototype();
        assert!((bill.common_active().value() - 9.765).abs() < 1e-9);
        assert!((bill.dl_active_per_path().value() - 5.27).abs() < 1e-9);
        assert!((bill.ul_active_per_path().value() - 5.797).abs() < 1e-9);
    }

    #[test]
    fn naive_total_documented_discrepancy() {
        let bill = RepeaterBill::prototype();
        assert!((bill.naive_active_total().value() - 31.899).abs() < 1e-3);
        assert!(bill.naive_active_total() > bill.paper_full_load_total());
    }

    #[test]
    fn ten_rows_two_paths() {
        let bill = RepeaterBill::prototype();
        assert_eq!(bill.components().len(), 10);
        assert_eq!(bill.dl_paths(), 2);
        assert_eq!(bill.ul_paths(), 2);
        assert_eq!(bill.components_with_role(ComponentRole::Common).count(), 5);
        assert_eq!(
            bill.components_with_role(ComponentRole::Downlink).count(),
            2
        );
        assert_eq!(bill.components_with_role(ComponentRole::Uplink).count(), 3);
    }

    #[test]
    fn sleep_is_tiny_fraction_of_active() {
        let bill = RepeaterBill::prototype();
        let ratio = bill.sleep_total().value() / bill.paper_full_load_total().value();
        assert!(ratio < 0.17, "sleep/active = {ratio}");
    }

    #[test]
    fn display_roles() {
        assert_eq!(ComponentRole::Common.to_string(), "common");
        assert_eq!(ComponentRole::Downlink.to_string(), "DL");
        assert_eq!(ComponentRole::Uplink.to_string(), "UL");
    }
}
