//! Memoized coverage profiling: each layout is sampled once, no matter
//! how many search passes ask about it.
//!
//! The deployment searches (the Pareto optimizer in
//! `corridor_sim::optimize` and the network optimizer built on it) keep
//! asking the same question — *what is the worst SNR of `n` repeaters at this ISD?* —
//! from different directions: per scenario cell, per wake policy, per
//! binary-search probe. Sampling a coverage profile is the hot path of
//! that question (hundreds of [`SnrModel`](corridor_link::SnrModel)
//! evaluations per probe), and the answer depends only on the geometry
//! under the paper's RF budget, never on timetables or wake policies. A
//! [`CoverageCache`] therefore memoizes the minimum SNR per
//! `(n, isd, placement)` key, and counts lookups versus actual profile
//! evaluations so benches and tests can assert the saving.

// Order-safety audit (hash-order): the memo map below is only ever
// probed through `entry()` by exact key; nothing iterates it, so the
// hasher's bucket order cannot influence any result, count or report.
// corridor-lint: allow(hash-order, reason = "cache map is entry()-probed by key only, never iterated; order cannot escape")
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use corridor_units::{Db, Meters};

use crate::{CorridorLayout, LinkBudget, PlacementPolicy};

/// Discretized cache key: geometry in whole millimetres.
///
/// The searches walk metre-scale grids, so millimetre resolution keeps
/// distinct candidates distinct while making the key hashable (raw
/// `f64` is not `Eq`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoverageKey {
    n: usize,
    isd_mm: u64,
    placement: PlacementKey,
}

/// The placement policy's contribution to the cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PlacementKey {
    Fixed(u64),
    Custom(Vec<u64>),
}

fn mm(value: Meters) -> u64 {
    (value.value() * 1000.0).round().max(0.0) as u64
}

impl PlacementKey {
    fn of(policy: &PlacementPolicy) -> Self {
        match policy {
            PlacementPolicy::FixedSpacing(spacing) => PlacementKey::Fixed(mm(*spacing)),
            PlacementPolicy::Custom(positions) => {
                PlacementKey::Custom(positions.iter().map(|&p| mm(p)).collect())
            }
        }
    }
}

/// Memoizes minimum-SNR coverage profiles under the paper's
/// [`LinkBudget`].
///
/// Thread-safe: searches running on the worker pool share one cache.
/// The map lock is held only long enough to reserve a per-key slot
/// (`Arc<OnceLock>`); the profile computation itself runs outside it,
/// so distinct keys profile concurrently and hits never wait behind an
/// unrelated miss. Racing workers on the *same* key block on that key's
/// `OnceLock`, which initializes exactly once — keeping the
/// [`CoverageCache::profile_evaluations`] counter deterministic across
/// worker counts (the determinism the golden outputs pin).
///
/// # Examples
///
/// ```
/// use corridor_deploy::{CoverageCache, PlacementPolicy};
/// use corridor_units::Meters;
///
/// let cache = CoverageCache::with_sample_step(Meters::new(5.0));
/// let placement = PlacementPolicy::paper_default();
/// let first = cache.min_snr(1, Meters::new(1250.0), &placement);
/// let again = cache.min_snr(1, Meters::new(1250.0), &placement);
/// assert_eq!(first, again);
/// assert_eq!(cache.lookups(), 2);
/// assert_eq!(cache.profile_evaluations(), 1); // second call was a hit
/// ```
#[derive(Debug)]
pub struct CoverageCache {
    sample_step: Meters,
    entries: Mutex<HashMap<CoverageKey, Arc<OnceLock<Option<Db>>>>>,
    lookups: AtomicU64,
    profiles: AtomicU64,
}

impl CoverageCache {
    /// A cache sampling profiles every `sample_step`.
    ///
    /// # Panics
    ///
    /// Panics if `sample_step` is not strictly positive.
    pub fn with_sample_step(sample_step: Meters) -> Self {
        assert!(sample_step.value() > 0.0, "sample step must be positive");
        CoverageCache {
            sample_step,
            entries: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            profiles: AtomicU64::new(0),
        }
    }

    /// Minimum SNR along a segment of `isd` with `n` repeaters placed by
    /// `placement`, or `None` if the placement is infeasible (cluster
    /// wider than the segment). Cached per `(n, isd, placement)`.
    pub fn min_snr(&self, n: usize, isd: Meters, placement: &PlacementPolicy) -> Option<Db> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let key = CoverageKey {
            n,
            isd_mm: mm(isd),
            placement: PlacementKey::of(placement),
        };
        let slot = {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(entries.entry(key).or_default())
        };
        *slot.get_or_init(|| {
            self.profiles.fetch_add(1, Ordering::Relaxed);
            let layout = CorridorLayout::with_policy(isd, n, placement).ok()?;
            layout
                .coverage_profile(&LinkBudget::paper_default(), self.sample_step)
                .min_snr()
        })
    }

    /// Number of [`CoverageCache::min_snr`] calls so far — what an
    /// uncached, per-step search would have paid in profile samples.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of profiles actually sampled (cache misses).
    pub fn profile_evaluations(&self) -> u64 {
        self.profiles.load(Ordering::Relaxed)
    }

    /// The largest grid ISD (stepping by `isd_step` from `min_isd` up to
    /// and including `max_isd`) for which `n` repeaters keep the minimum
    /// SNR at or above `threshold`, or `None` if no grid point does.
    ///
    /// Binary search over the same monotone structure as
    /// [`IsdOptimizer::max_isd`](crate::IsdOptimizer::max_isd)
    /// (stretching a segment only worsens its worst-served point), with
    /// every probe memoized — repeated searches (other scenario cells,
    /// other wake policies, margin readbacks) hit the cache instead of
    /// re-sampling profiles.
    pub fn max_feasible_isd(
        &self,
        n: usize,
        placement: &PlacementPolicy,
        threshold: Db,
        min_isd: Meters,
        max_isd: Meters,
        isd_step: Meters,
    ) -> Option<Meters> {
        crate::search::max_feasible_on_grid(min_isd, max_isd, isd_step, |isd| {
            // min_snr distinguishes the two failure modes the skeleton
            // needs: None = placement infeasible, Some below the
            // threshold = criterion failed
            match self.min_snr(n, isd, placement) {
                None => crate::search::Probe::PlacementInfeasible,
                Some(snr) if snr >= threshold => crate::search::Probe::Satisfied,
                Some(_) => crate::search::Probe::CriterionFailed,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> CoverageCache {
        // 10 m sampling keeps debug-mode tests quick (boundary ISDs are
        // insensitive to 5 m vs 10 m at a 50 m grid)
        CoverageCache::with_sample_step(Meters::new(10.0))
    }

    #[test]
    fn repeated_lookups_profile_once() {
        let c = cache();
        let placement = PlacementPolicy::paper_default();
        for _ in 0..5 {
            let snr = c.min_snr(8, Meters::new(2400.0), &placement).unwrap();
            assert!(snr.value() > 29.0);
        }
        assert_eq!(c.lookups(), 5);
        assert_eq!(c.profile_evaluations(), 1);
    }

    #[test]
    fn matches_the_uncached_optimizer() {
        let c = cache();
        let opt = crate::IsdOptimizer::new(LinkBudget::paper_default())
            .with_sample_step(Meters::new(10.0));
        let placement = PlacementPolicy::paper_default();
        for n in 0..=3 {
            let cached = c.max_feasible_isd(
                n,
                &placement,
                Db::new(29.0),
                Meters::new(100.0),
                Meters::new(4000.0),
                Meters::new(50.0),
            );
            assert_eq!(cached, opt.max_isd(n), "n={n}");
        }
    }

    #[test]
    fn infeasible_placement_is_none_not_panic() {
        let c = cache();
        // 6 nodes at 200 m spacing cannot fit a 900 m segment
        assert_eq!(
            c.min_snr(
                6,
                Meters::new(900.0),
                &PlacementPolicy::FixedSpacing(Meters::new(200.0))
            ),
            None
        );
        // the infeasibility is cached too
        let profiles = c.profile_evaluations();
        let _ = c.min_snr(
            6,
            Meters::new(900.0),
            &PlacementPolicy::FixedSpacing(Meters::new(200.0)),
        );
        assert_eq!(c.profile_evaluations(), profiles);
    }

    #[test]
    fn impossible_threshold_returns_none() {
        let c = cache();
        assert_eq!(
            c.max_feasible_isd(
                1,
                &PlacementPolicy::paper_default(),
                Db::new(90.0),
                Meters::new(100.0),
                Meters::new(4000.0),
                Meters::new(50.0),
            ),
            None
        );
    }

    #[test]
    fn distinct_geometries_get_distinct_entries() {
        let c = cache();
        let placement = PlacementPolicy::paper_default();
        let _ = c.min_snr(1, Meters::new(1250.0), &placement);
        let _ = c.min_snr(1, Meters::new(1300.0), &placement);
        let _ = c.min_snr(2, Meters::new(1250.0), &placement);
        let _ = c.min_snr(
            1,
            Meters::new(1250.0),
            &PlacementPolicy::Custom(vec![Meters::new(600.0)]),
        );
        assert_eq!(c.profile_evaluations(), 4);
    }

    #[test]
    fn shared_across_threads() {
        let c = std::sync::Arc::new(cache());
        let placement = PlacementPolicy::paper_default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                let placement = placement.clone();
                scope.spawn(move || {
                    for _ in 0..3 {
                        let _ = c.min_snr(8, Meters::new(2400.0), &placement);
                    }
                });
            }
        });
        assert_eq!(c.lookups(), 12);
        // per-key OnceLock: exactly one profile even under contention
        assert_eq!(c.profile_evaluations(), 1);
    }
}
