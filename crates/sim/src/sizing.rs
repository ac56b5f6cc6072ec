//! PV sizing of one service repeater, memoized in an
//! [`EvalContext`](crate::EvalContext).
//!
//! Sizing a load is the paper's Table IV search: up to six candidates
//! stepped through three weather years. Its answer depends only on the
//! site's climate, the repeater's 24-hour load profile and the search's
//! options, and a grid repeats those far more often than it has cells:
//! location is the innermost grid axis, and cells that differ only in
//! axes the load does not see (the conventional ISD, say) share one
//! load. [`SizingMemo`] sizes each distinct `(location, load, options)`
//! key once for as long as its context lives.

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

/// Everything the sizing search reads, compared by bits so distinct
/// floats (`+0.0` and `-0.0`, say) never alias.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SizingKey {
    name: &'static str,
    site: [u64; 26],
    load: [u64; 24],
    /// The search options, as [`options_bits`] encodes them.
    options: Arc<[u64]>,
}

impl SizingKey {
    fn new(location: &Location, load: &DailyLoadProfile, options: &Arc<[u64]>) -> Self {
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
            options: Arc::clone(options),
        }
    }
}

/// Every field of `options` the search reads, as bits, each list
/// prefixed by its length so two option sets never encode alike.
fn options_bits(options: &SizingOptions) -> Arc<[u64]> {
    let mut bits = vec![options.pv_candidates.len() as u64];
    for pv in &options.pv_candidates {
        let module = pv.module();
        bits.extend([
            module.peak().value().to_bits(),
            module.temp_coefficient_per_k().to_bits(),
            module.noct_c().to_bits(),
            u64::from(pv.count()),
            pv.system_efficiency().to_bits(),
        ]);
    }
    bits.push(options.battery_candidates.len() as u64);
    bits.extend(
        options
            .battery_candidates
            .iter()
            .map(|c| c.value().to_bits()),
    );
    bits.push(options.seeds.len() as u64);
    bits.extend(&options.seeds);
    bits.into()
}

/// One slot per key, so a sizing search never holds the map lock:
/// workers sizing other keys proceed while the first caller of this key
/// fills the `OnceLock`.
type Slot = Arc<OnceLock<PvOutcome>>;

/// PV sizing outcomes by `(location, load, options)`, at most
/// `capacity` of them.
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

    /// A sizer searching with `options` through this memo.
    pub(crate) fn sizer(&self, options: SizingOptions) -> Sizer<'_> {
        Sizer {
            memo: self,
            bits: options_bits(&options),
            options,
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
}

/// One option set's sizing searches through a [`SizingMemo`]; a job
/// builds one per run, so a lookup encodes only the site and the load.
#[derive(Debug)]
pub(crate) struct Sizer<'a> {
    memo: &'a SizingMemo,
    options: SizingOptions,
    bits: Arc<[u64]>,
}

impl Sizer<'_> {
    /// The sizing of `load` at `location`, searched on the first request
    /// for its key and shared by every later one.
    pub(crate) fn size(&self, location: &Location, load: DailyLoadProfile) -> PvOutcome {
        let key = SizingKey::new(location, &load, &self.bits);
        let memo = self.memo;
        let slot = {
            let mut slots = memo.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if slots.len() >= memo.capacity && !slots.contains_key(&key) {
                slots.pop_first();
            }
            Arc::clone(slots.entry(key).or_default())
        };
        *slot.get_or_init(|| {
            memo.searches.fetch_add(1, Ordering::Relaxed);
            size(location, load, &self.options)
        })
    }
}

/// The Table IV search for `load` at `location` with `options`.
fn size(location: &Location, load: DailyLoadProfile, options: &SizingOptions) -> PvOutcome {
    match sizing::size_for_zero_downtime(location.clone(), load, options) {
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
    use corridor_solar::{climate, PvArray};
    use corridor_units::WattHours;

    use super::*;

    fn paper() -> SizingOptions {
        SizingOptions::paper_default()
    }

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
        let sizer = memo.sizer(paper());
        let real = sizer.size(&berlin, load.clone());
        let fake = sizer.size(&impostor, load.clone());
        assert_eq!(memo.searches(), 2);
        assert_eq!(real, size(&berlin, load.clone(), &paper()));
        assert_eq!(fake, size(&impostor, load, &paper()));
        assert_ne!(real, fake);
    }

    #[test]
    fn signed_zero_loads_do_not_alias() {
        let location = climate::madrid();
        let zero = |power: f64| {
            DailyLoadProfile::repeater_profile(Watts::new(4.72), Watts::new(power), 23)
        };
        let memo = SizingMemo::with_capacity(8);
        let sizer = memo.sizer(paper());
        let positive = sizer.size(&location, zero(0.0));
        let negative = sizer.size(&location, zero(-0.0));
        assert_eq!(memo.searches(), 2);
        assert_eq!(positive, negative);
        sizer.size(&location, zero(0.0));
        assert_eq!(memo.searches(), 2);
    }

    #[test]
    fn each_option_set_gets_its_own_answer_from_one_memo() {
        let location = climate::madrid();
        let load = DailyLoadProfile::repeater_paper_default();
        // only the ladder's top rung: Madrid passes it, but it is not
        // the paper ladder's 540 Wp / 720 Wh answer
        let top = SizingOptions {
            pv_candidates: vec![PvArray::standard_modules(4)],
            battery_candidates: vec![WattHours::new(1440.0)],
            seeds: paper().seeds,
        };
        // the paper ladder under other seed years
        let reseeded = SizingOptions {
            seeds: vec![1, 2],
            ..paper()
        };
        let memo = SizingMemo::with_capacity(8);
        let answers: Vec<PvOutcome> = [paper(), top.clone(), reseeded.clone(), paper()]
            .into_iter()
            .map(|options| memo.sizer(options).size(&location, load.clone()))
            .collect();
        assert_eq!(memo.searches(), 3, "one search per option set");
        assert_eq!(answers[0], size(&location, load.clone(), &paper()));
        assert_eq!(answers[1], size(&location, load.clone(), &top));
        assert_eq!(answers[2], size(&location, load.clone(), &reseeded));
        assert_eq!(answers[3], answers[0]);
        assert_ne!(answers[0], answers[1]);
        assert!(matches!(
            answers[1],
            PvOutcome::Sized { pv_wp, battery_wh, .. } if pv_wp == 720.0 && battery_wh == 1440.0
        ));
    }

    #[test]
    fn option_encodings_differ_in_every_field() {
        let base = paper();
        let mut variants = vec![base.clone()];
        let mut with_pv = |pv: PvArray| {
            let mut options = base.clone();
            options.pv_candidates[0] = pv;
            variants.push(options);
        };
        let first = base.pv_candidates[0];
        with_pv(PvArray::new(
            first.module().with_temp_coefficient(-0.005),
            3,
        ));
        with_pv(first.with_system_efficiency(0.9));
        with_pv(PvArray::standard_modules(2));
        let mut shorter = base.clone();
        shorter.battery_candidates.pop();
        variants.push(shorter.clone());
        // the same values, one list boundary over: only the length
        // prefixes tell them apart
        let mut shifted = shorter;
        shifted
            .seeds
            .insert(0, base.battery_candidates[1].value().to_bits());
        variants.push(shifted);
        let mut bits: Vec<Arc<[u64]>> = variants.iter().map(options_bits).collect();
        bits.sort();
        bits.dedup();
        assert_eq!(bits.len(), variants.len());
    }

    #[test]
    fn a_full_memo_evicts_and_never_outgrows_its_capacity() {
        let location = climate::madrid();
        let load =
            |day_w: f64| DailyLoadProfile::repeater_profile(Watts::new(4.72), Watts::new(day_w), 6);
        let memo = SizingMemo::with_capacity(2);
        let sizer = memo.sizer(paper());
        for day_w in [5.0, 6.0, 7.0, 5.0] {
            assert_eq!(
                sizer.size(&location, load(day_w)),
                size(&location, load(day_w), &paper())
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
            memo.sizer(paper()).size(&location, load.clone()),
            size(&location, load.clone(), &paper())
        );
        assert_eq!(memo.searches(), 1);
        assert_eq!(memo.len(), 1);
    }
}
