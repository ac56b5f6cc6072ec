//! PV sizing of one service repeater, memoized in an
//! [`EvalContext`](crate::EvalContext).
//!
//! Sizing a load is the paper's Table IV search: up to six candidates
//! stepped through three weather years. Its answer depends only on the
//! site's climate and the repeater's 24-hour load profile (every engine
//! searches the paper's ladder), and a grid repeats those far more often
//! than it has cells: location is the innermost grid axis, and cells
//! that differ only in axes the load does not see (the conventional
//! ISD, say) share one load. [`SizingMemo`] sizes each distinct
//! `(location, load)` key once for as long as its context lives.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use corridor_core::ScenarioParams;
use corridor_solar::sizing::{self, SizingOptions};
use corridor_solar::{DailyLoadProfile, Location};
use corridor_units::Watts;

use crate::PvOutcome;

/// The daily load of one service repeater with `active_h` full-load
/// hours: it sleeps through the night pause and averages sleep and
/// full load over the service window.
pub(crate) fn repeater_load(params: &ScenarioParams, active_h: f64) -> DailyLoadProfile {
    let lp = params.lp_node();
    let night_h = (24.0 - params.timetable().service_window().value())
        .round()
        .clamp(0.0, 23.0);
    let day_window_h = 24.0 - night_h;
    let day_avg_w = (lp.full_load_power().value() * active_h
        + lp.p_sleep().value() * (day_window_h - active_h).max(0.0))
        / day_window_h;
    DailyLoadProfile::repeater_profile(lp.p_sleep(), Watts::new(day_avg_w), night_h as usize)
}

/// Everything the sizing search reads besides the paper ladder,
/// compared by bits so distinct floats (`+0.0` and `-0.0`, say) never
/// alias.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SizingKey {
    name: &'static str,
    site: [u64; 26],
    load: [u64; 24],
}

impl SizingKey {
    fn new(location: &Location, load: &DailyLoadProfile) -> Self {
        let mut site = [0u64; 26];
        let normals = location
            .monthly_ghi_kwh_m2_day()
            .iter()
            .chain(location.monthly_temp_c());
        let fields = [location.latitude_deg(), location.overcast_persistence()];
        for (slot, value) in site.iter_mut().zip(fields.iter().chain(normals)) {
            *slot = value.to_bits();
        }
        let mut bits = [0u64; 24];
        for (hour, slot) in bits.iter_mut().enumerate() {
            *slot = load.power_at_hour(hour).value().to_bits();
        }
        SizingKey {
            name: location.name(),
            site,
            load: bits,
        }
    }
}

/// One slot per key, so a sizing search never holds the map lock:
/// workers sizing other keys proceed while the first caller of this key
/// fills the `OnceLock`.
type Slot = Arc<OnceLock<PvOutcome>>;

/// PV sizing outcomes by `(location, load)`, at most `capacity` of
/// them, each searched on the paper's Table IV ladder
/// ([`SizingOptions::paper_default`]).
///
/// When a new key would overflow it, the memo evicts its smallest key.
/// A hit returns exactly what a fresh search computes, so eviction only
/// costs a repeated search, never an output byte.
#[derive(Debug)]
pub(crate) struct SizingMemo {
    slots: Mutex<BTreeMap<SizingKey, Slot>>,
    capacity: usize,
    /// Table IV searches run, one per key per residency.
    searches: AtomicU64,
}

impl SizingMemo {
    /// An empty memo holding at most `capacity` (at least one) entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        SizingMemo {
            slots: Mutex::default(),
            capacity,
            searches: AtomicU64::new(0),
        }
    }

    /// How many Table IV searches this memo has run.
    pub(crate) fn searches(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// How many outcomes this memo holds.
    pub(crate) fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The sizing of `load` at `location`, searched on the first request
    /// for its key and shared by every later one.
    pub(crate) fn size(&self, location: &Location, load: DailyLoadProfile) -> PvOutcome {
        let key = SizingKey::new(location, &load);
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if slots.len() >= self.capacity && !slots.contains_key(&key) {
                slots.pop_first();
            }
            Arc::clone(slots.entry(key).or_default())
        };
        *slot.get_or_init(|| {
            self.searches.fetch_add(1, Ordering::Relaxed);
            search(location, load)
        })
    }
}

/// The Table IV search for `load` at `location` on the paper ladder.
fn search(location: &Location, load: DailyLoadProfile) -> PvOutcome {
    let options = SizingOptions::paper_default();
    match sizing::size_for_zero_downtime(location.clone(), load, &options) {
        Some(fit) => PvOutcome::Sized {
            pv_wp: fit.pv.peak().value(),
            battery_wh: fit.battery_capacity.value(),
            days_full_pct: fit.mean_full_battery_fraction() * 100.0,
        },
        None => PvOutcome::Unsolvable,
    }
}

#[cfg(test)]
mod tests {
    use corridor_solar::climate;

    use super::*;

    #[test]
    fn locations_sharing_a_name_do_not_alias() {
        let berlin = climate::berlin();
        let mut brighter = *berlin.monthly_ghi_kwh_m2_day();
        brighter.iter_mut().for_each(|g| *g *= 2.0);
        let impostor = Location::new(
            berlin.name(),
            berlin.latitude_deg(),
            brighter,
            *berlin.monthly_temp_c(),
        )
        .with_overcast_persistence(berlin.overcast_persistence());
        let load = DailyLoadProfile::repeater_paper_default();
        let memo = SizingMemo::with_capacity(8);
        let real = memo.size(&berlin, load.clone());
        let fake = memo.size(&impostor, load.clone());
        assert_eq!(memo.searches(), 2);
        assert_eq!(real, search(&berlin, load.clone()));
        assert_eq!(fake, search(&impostor, load));
        assert_ne!(real, fake);
    }

    #[test]
    fn signed_zero_loads_do_not_alias() {
        let location = climate::madrid();
        let zero = |power: f64| {
            DailyLoadProfile::repeater_profile(Watts::new(4.72), Watts::new(power), 23)
        };
        let memo = SizingMemo::with_capacity(8);
        let positive = memo.size(&location, zero(0.0));
        let negative = memo.size(&location, zero(-0.0));
        assert_eq!(memo.searches(), 2);
        assert_eq!(positive, negative);
        memo.size(&location, zero(0.0));
        assert_eq!(memo.searches(), 2);
    }

    #[test]
    fn a_full_memo_evicts_and_never_outgrows_its_capacity() {
        let location = climate::madrid();
        let load =
            |day_w: f64| DailyLoadProfile::repeater_profile(Watts::new(4.72), Watts::new(day_w), 6);
        let memo = SizingMemo::with_capacity(2);
        for day_w in [5.0, 6.0, 7.0, 5.0] {
            assert_eq!(
                memo.size(&location, load(day_w)),
                search(&location, load(day_w))
            );
            assert!(memo.len() <= 2, "{} entries", memo.len());
        }
        // the 7 W key evicted the smallest key, so 5 W was searched again
        assert_eq!(memo.searches(), 4);
    }

    #[test]
    fn a_poisoned_memo_still_answers() {
        let memo = SizingMemo::with_capacity(8);
        let poisoned = std::panic::catch_unwind(|| {
            let _guard = memo.slots.lock();
            panic!("poison the memo lock");
        });
        assert!(poisoned.is_err());
        assert!(memo.slots.is_poisoned());
        let location = climate::madrid();
        let load = DailyLoadProfile::repeater_paper_default();
        assert_eq!(
            memo.size(&location, load.clone()),
            search(&location, load.clone())
        );
        assert_eq!(memo.searches(), 1);
        assert_eq!(memo.len(), 1);
    }
}
