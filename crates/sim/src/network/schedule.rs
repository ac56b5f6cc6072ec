//! Pollakis minimum-active-set sleep scheduling over the network graph.
//!
//! The per-corridor optimizer answers "which deployment per edge"; this
//! module answers the question it cannot ask: **which repeaters can
//! sleep entirely because a neighbor absorbs their demand?** The
//! formulation follows Pollakis et al. (arXiv 1503.08627): greedily
//! shrink the active set while every demand stays served and every
//! corridor's coverage margin stays at or above a configurable floor.
//! Two candidate families feed one greedy loop:
//!
//! * **Boundary repeaters.** Each deployed edge parks one repeater in
//!   the station throat at each of its endpoints. Where several edges
//!   meet, their boundary repeaters stand co-located with overlapping
//!   footprints — so one awake repeater can serve the combined throat
//!   demand while the others sleep, at zero margin cost. A sleeping
//!   boundary repeater saves its full daily energy (the pick's
//!   per-repeater Wh/day); the absorber pays a duty-cycle premium,
//!   re-priced analytically at own-plus-absorbed demand, and must stay
//!   within its demand capacity.
//! * **Interior repeaters** (margin trading, only when a floor below
//!   the pick's margin is configured). Every interior repeater of every
//!   deployed edge is a candidate: sleeping it spends coverage margin —
//!   priced through the same [`MarginModel`] and [`CoverageCache`] the
//!   deployment search used, with the survivors as a custom placement —
//!   and the [`MarginLedger`] refuses any spend that would cross the
//!   floor. The energy side is priced against the *simulated* network
//!   day ([`DayContext`]): the sleeper's saving is its actual traced
//!   energy, and the absorbing neighbor's premium is the energy of the
//!   hull section spanning both footprints (it must wake for every
//!   train either repeater would have served). No capacity check
//!   applies — the absorber serves the same trains, not new flows.
//!
//! The greedy loop always takes the highest net saving next, with a
//! deterministic total order over candidates (`SortKey`: station, then
//! repeater rank, then edge indices) breaking exact
//! ties — so the schedule is a pure function of the network, the picks
//! and the day, whatever the worker count or candidate evaluation
//! order. With the floor at the pick's own margin the interior family
//! is empty by construction and the schedule degenerates to the
//! boundary-only search, byte-for-byte.

use std::sync::Arc;

use corridor_core::margin::{MarginLedger, MarginModel};
use corridor_core::ScenarioError;
use corridor_deploy::{CoverageCache, PlacementPolicy};
use corridor_power::DutyCycle;
use corridor_traffic::TrackSection;
use corridor_units::{Hours, Meters};

use crate::optimize::FrontierPoint;

use super::day::DayContext;
use super::graph::CorridorNetwork;

/// One committed sleep decision of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepDecision {
    /// The station the sleeping repeater is anchored at: the shared
    /// station for a boundary sleep, the edge's `a`-end for an interior
    /// one.
    pub station: usize,
    /// The edge whose repeater sleeps.
    pub edge: usize,
    /// The edge whose repeater absorbs the demand (the same edge for an
    /// interior sleep).
    pub absorber_edge: usize,
    /// The slept interior repeater's index within the edge's segment
    /// (`None` for a boundary-throat repeater).
    pub repeater: Option<usize>,
    /// Daily energy of the slept repeater, Wh.
    pub slept_wh_day: f64,
    /// The absorber's premium for the extra demand, Wh/day.
    pub absorber_delta_wh_day: f64,
    /// Net network saving: slept energy minus absorption cost, Wh/day.
    pub net_wh_day: f64,
    /// The demand handed to the absorber, trains per hour.
    pub absorbed_demand_tph: f64,
    /// Coverage margin the sleep spent, dB (zero for boundary sleeps —
    /// the throat footprints overlap entirely).
    pub margin_cost_db: f64,
}

/// The margin-trading configuration of the scheduler: the floor, the
/// shared margin model, the per-edge coverage caches of the deployment
/// search and the simulated day the interior prices come from.
pub(crate) struct MarginTrading<'a> {
    pub(crate) floor_db: f64,
    pub(crate) model: MarginModel,
    pub(crate) caches: &'a [Arc<CoverageCache>],
    pub(crate) day: &'a DayContext,
}

/// A boundary repeater's scheduling state at one `(edge, station)` slot.
#[derive(Debug, Clone)]
struct Boundary {
    edge: usize,
    station: usize,
    /// Slept repeaters no longer exist for coverage or absorption.
    slept: bool,
    /// An absorber is pinned awake for the rest of the schedule.
    pinned: bool,
    /// Demand absorbed so far (on top of the edge's own), trains/h.
    absorbed_tph: f64,
}

/// An interior service repeater's scheduling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RepState {
    Free,
    Slept,
    Pinned,
}

/// One margin-trading edge: the fixed day-priced candidates plus the
/// mutable repeater states.
struct InteriorEdge {
    edge: usize,
    n: usize,
    isd: Meters,
    placement: PlacementPolicy,
    /// `prices[k]` is the fixed energy price of sleeping repeater `k`
    /// into `k - 1` (`None` outside the interior range).
    prices: Vec<Option<InteriorPrice>>,
    state: Vec<RepState>,
    slept: Vec<usize>,
}

/// The day-priced energy terms of one interior candidate — fixed for
/// the whole greedy search (the day does not change as sleeps commit).
#[derive(Debug, Clone, Copy)]
struct InteriorPrice {
    slept_wh: f64,
    delta_wh: f64,
    net_wh: f64,
}

/// Prices one boundary repeater of `edge` at `tph` demand: activity
/// hours from the analytic occupancy model at the pick's geometry, then
/// a zero-idle duty cycle over the repeater power model.
fn boundary_wh_day(
    net: &CorridorNetwork,
    edge: usize,
    tph: f64,
    isd: Meters,
) -> Result<f64, ScenarioError> {
    let params = net.edge_params_with_tph(edge, tph)?;
    let section = TrackSection::around(isd / 2.0, params.lp_spacing());
    let active = corridor_core::energy::active_hours(&params, section);
    Ok(DutyCycle::over_day(active, Hours::ZERO)
        .daily_energy(params.lp_node())
        .value())
}

/// Builds the margin-trading state of every eligible edge: deployed, at
/// least three repeaters (an interior exists), and holding margin
/// strictly above the floor — at `floor == margin` the family is empty,
/// which is exactly what makes the boundary-only schedule the
/// `margin_floor = current` special case.
fn interior_edges(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
    trading: &MarginTrading<'_>,
) -> Result<Vec<InteriorEdge>, ScenarioError> {
    let mut edges = Vec::new();
    for (e, pick) in picks.iter().enumerate() {
        let Some(pick) = pick else { continue };
        let n = pick.nodes;
        if n < 3 || trading.floor_db >= pick.margin_db {
            continue;
        }
        let params = net.edge_cell(e)?.params().clone();
        let day = trading.day;
        let report = &day.reports[e];
        let nodes = day.sim.edge_nodes(e);
        let mut prices = vec![None; n];
        for k in 1..n - 1 {
            // service repeater k is segment node 1 + k; its absorbing
            // neighbor k - 1 is node k
            let slept_hours = report.nodes()[1 + k].trace().powered().hours();
            let own_hours = report.nodes()[k].trace().powered().hours();
            let hull = TrackSection::new(nodes[k].section().start(), nodes[1 + k].section().end());
            let hull_hours = day.sim.section_powered_hours(e, hull, &day.itineraries);
            let energy = |hours: Hours| {
                DutyCycle::over_day(hours, Hours::ZERO)
                    .daily_energy(params.lp_node())
                    .value()
            };
            let slept_wh = energy(slept_hours);
            let delta_wh = energy(hull_hours) - energy(own_hours);
            prices[k] = Some(InteriorPrice {
                slept_wh,
                delta_wh,
                net_wh: slept_wh - delta_wh,
            });
        }
        edges.push(InteriorEdge {
            edge: e,
            n,
            isd: pick.isd,
            placement: params.placement().clone(),
            prices,
            state: vec![RepState::Free; n],
            slept: Vec::new(),
        });
    }
    Ok(edges)
}

/// What the greedy loop picked this round.
enum Choice {
    Boundary {
        si: usize,
        ai: usize,
        before: f64,
        after: f64,
    },
    Interior {
        ie: usize,
        k: usize,
        margin_after: f64,
    },
}

/// The deterministic tie-break key: station id, then repeater rank
/// (boundary throats rank 0, before interior repeater `k` at rank
/// `k + 1`), then the sleeper and absorber edges. Equal net savings are
/// broken by this key, so the committed plan is independent of candidate
/// evaluation order and worker count.
type SortKey = (usize, usize, usize, usize);

/// One round's best candidate: (net saving, tie-break key, commit).
type Candidate = (f64, SortKey, Choice);

/// Builds the minimum-active-set sleep schedule for a network whose
/// edges already have their per-corridor picks, returning the committed
/// plan (in greedy order) and each edge's residual coverage margin.
///
/// `picks[e]` is edge `e`'s selected frontier point (`None` for an
/// unsolvable edge, which neither sleeps nor absorbs); `capacity_tph`
/// caps the aggregate demand (own + absorbed) one boundary repeater may
/// serve. With `trading` set, interior repeaters join the candidate set
/// and spend margin down to (never below) the configured floor; without
/// it the search is the boundary-only schedule.
pub(crate) fn schedule_sleep(
    net: &CorridorNetwork,
    picks: &[Option<FrontierPoint>],
    capacity_tph: f64,
    trading: Option<&MarginTrading<'_>>,
) -> Result<(Vec<SleepDecision>, Vec<Option<f64>>), ScenarioError> {
    // materialize every boundary slot: deployed edges only, stations
    // where at least one *other* edge is incident (somebody must be
    // there to absorb)
    let mut slots: Vec<Boundary> = Vec::new();
    for (e, pick) in picks.iter().enumerate() {
        let Some(pick) = pick else { continue };
        if pick.nodes == 0 {
            continue;
        }
        let edge = net.edge(e);
        for station in [edge.a(), edge.b()] {
            if net.degree(station) >= 2 {
                slots.push(Boundary {
                    edge: e,
                    station,
                    slept: false,
                    pinned: false,
                    absorbed_tph: 0.0,
                });
            }
        }
    }

    // per-edge boundary budget: at most two throat repeaters (one per
    // end) and never more than the edge actually deploys
    let budget: Vec<usize> = picks
        .iter()
        .map(|p| p.as_ref().map_or(0, |p| p.nodes.min(2)))
        .collect();
    let mut slept_per_edge = vec![0usize; picks.len()];

    // the margin side: residual margins seeded from the picks, interior
    // candidates only when trading is configured
    let initial_margins: Vec<Option<f64>> = picks
        .iter()
        .map(|p| p.as_ref().map(|p| p.margin_db))
        .collect();
    let mut ledger = MarginLedger::new(
        trading.map_or(f64::NEG_INFINITY, |t| t.floor_db),
        initial_margins,
    );
    let mut interiors: Vec<InteriorEdge> = match trading {
        Some(t) => interior_edges(net, picks, t)?,
        None => Vec::new(),
    };

    let mut plan: Vec<SleepDecision> = Vec::new();
    loop {
        // evaluate every candidate still on the table; best is
        // (net saving, total-order key, what to commit)
        let mut best: Option<Candidate> = None;
        let mut offer = |net_wh: f64, key: SortKey, choice: Choice| {
            let better = match &best {
                None => true,
                Some((best_net, best_key, _)) => match net_wh.total_cmp(best_net) {
                    core::cmp::Ordering::Greater => true,
                    core::cmp::Ordering::Less => false,
                    core::cmp::Ordering::Equal => key < *best_key,
                },
            };
            if better {
                best = Some((net_wh, key, choice));
            }
        };

        for (si, sleeper) in slots.iter().enumerate() {
            if sleeper.slept || sleeper.pinned {
                continue;
            }
            if slept_per_edge[sleeper.edge] >= budget[sleeper.edge] {
                continue;
            }
            let sleeper_pick = picks[sleeper.edge]
                .as_ref()
                .ok_or(ScenarioError::Invariant(
                    "slot references an edge without a pick",
                ))?;
            let slept_wh = sleeper_pick.repeater_wh_day;
            let handed_tph = net.edge(sleeper.edge).demand_tph();
            for (ai, absorber) in slots.iter().enumerate() {
                if ai == si
                    || absorber.slept
                    || absorber.station != sleeper.station
                    || absorber.edge == sleeper.edge
                {
                    continue;
                }
                let own_tph = net.edge(absorber.edge).demand_tph();
                let before_tph = own_tph + absorber.absorbed_tph;
                let after_tph = before_tph + handed_tph;
                if after_tph > capacity_tph {
                    continue;
                }
                let absorber_pick =
                    picks[absorber.edge]
                        .as_ref()
                        .ok_or(ScenarioError::Invariant(
                            "slot references an edge without a pick",
                        ))?;
                let before = boundary_wh_day(net, absorber.edge, before_tph, absorber_pick.isd)?;
                let after = boundary_wh_day(net, absorber.edge, after_tph, absorber_pick.isd)?;
                let net_wh = slept_wh - (after - before);
                if net_wh <= 1e-9 {
                    continue;
                }
                offer(
                    net_wh,
                    (sleeper.station, 0, sleeper.edge, absorber.edge),
                    Choice::Boundary {
                        si,
                        ai,
                        before,
                        after,
                    },
                );
            }
        }

        if let Some(trading) = trading {
            for (ie, interior) in interiors.iter().enumerate() {
                let e = interior.edge;
                for k in 1..interior.n - 1 {
                    // the absorber is always the left neighbor: it must
                    // still be awake, and the sleeper still free
                    if interior.state[k] != RepState::Free
                        || interior.state[k - 1] == RepState::Slept
                    {
                        continue;
                    }
                    let Some(price) = interior.prices[k] else {
                        continue;
                    };
                    if price.net_wh <= 1e-9 {
                        continue;
                    }
                    let mut slept = interior.slept.clone();
                    slept.push(k);
                    let Some(margin_after) = trading.model.margin_without(
                        &trading.caches[e],
                        interior.n,
                        interior.isd,
                        &interior.placement,
                        &slept,
                    ) else {
                        continue;
                    };
                    if !ledger.affords(e, margin_after) {
                        continue;
                    }
                    offer(
                        price.net_wh,
                        (net.edge(e).a(), k + 1, e, e),
                        Choice::Interior {
                            ie,
                            k,
                            margin_after,
                        },
                    );
                }
            }
        }

        let Some((net_wh, _, choice)) = best else {
            break;
        };
        match choice {
            Choice::Boundary {
                si,
                ai,
                before,
                after,
            } => {
                let handed_tph = net.edge(slots[si].edge).demand_tph();
                let sleeper_pick =
                    picks[slots[si].edge]
                        .as_ref()
                        .ok_or(ScenarioError::Invariant(
                            "slot references an edge without a pick",
                        ))?;
                plan.push(SleepDecision {
                    station: slots[si].station,
                    edge: slots[si].edge,
                    absorber_edge: slots[ai].edge,
                    repeater: None,
                    slept_wh_day: sleeper_pick.repeater_wh_day,
                    absorber_delta_wh_day: after - before,
                    net_wh_day: net_wh,
                    absorbed_demand_tph: handed_tph,
                    margin_cost_db: 0.0,
                });
                slept_per_edge[slots[si].edge] += 1;
                slots[si].slept = true;
                slots[ai].pinned = true;
                slots[ai].absorbed_tph += handed_tph;
            }
            Choice::Interior {
                ie,
                k,
                margin_after,
            } => {
                let interior = &mut interiors[ie];
                let e = interior.edge;
                let price = interior.prices[k]
                    .ok_or(ScenarioError::Invariant("committed candidate has no price"))?;
                let margin_before = ledger.margin(e).ok_or(ScenarioError::Invariant(
                    "trading edge holds no margin entry",
                ))?;
                plan.push(SleepDecision {
                    station: net.edge(e).a(),
                    edge: e,
                    absorber_edge: e,
                    repeater: Some(k),
                    slept_wh_day: price.slept_wh,
                    absorber_delta_wh_day: price.delta_wh,
                    net_wh_day: net_wh,
                    absorbed_demand_tph: net.edge(e).demand_tph(),
                    margin_cost_db: margin_before - margin_after,
                });
                ledger.commit(e, margin_after);
                interior.state[k] = RepState::Slept;
                interior.state[k - 1] = RepState::Pinned;
                interior.slept.push(k);
            }
        }
    }
    // a floor *above* the picks' own margins is a valid configuration
    // (it gates every interior candidate and spends nothing), so the
    // invariant is per spend — enforced by `MarginLedger::commit` — not
    // a blanket floor check over the initial margins
    debug_assert!(
        plan.iter().all(|d| d.repeater.is_none()) || ledger.all_at_or_above_floor(),
        "committed margin spends crossed the floor"
    );
    Ok((plan, ledger.margins().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetworkOptimizer, SearchSpace};

    fn quick_space() -> SearchSpace {
        SearchSpace::new().sample_step(Meters::new(10.0))
    }

    #[test]
    fn star_junction_sleeps_boundary_repeaters() {
        let net = CorridorNetwork::star(&[4.0, 8.0, 12.0]);
        let report = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        let plan = report.plan();
        assert!(!plan.is_empty(), "junction must admit at least one sleep");
        for d in plan {
            assert!(d.net_wh_day > 0.0);
            assert!(d.slept_wh_day > d.absorber_delta_wh_day);
            assert_eq!(d.station, 0, "star junctions sleep only at the hub");
            assert_ne!(d.edge, d.absorber_edge);
            assert_eq!(d.repeater, None, "default schedules are boundary-only");
            assert_eq!(d.margin_cost_db, 0.0);
        }
        // no boundary repeater absorbs and sleeps at once: slept edges
        // never appear as absorbers at the same station
        for d in plan {
            assert!(!plan
                .iter()
                .any(|o| o.edge == d.absorber_edge && o.station == d.station));
        }
    }

    #[test]
    fn capacity_cap_blocks_absorption() {
        let net = CorridorNetwork::star(&[4.0, 8.0, 12.0]);
        let report = NetworkOptimizer::new()
            .workers(1)
            .capacity_tph(1.0) // nobody can absorb anything
            .run(&net, &quick_space())
            .unwrap();
        assert!(report.plan().is_empty());
        assert_eq!(report.network_wh_day(), report.corridor_wh_day());
    }

    #[test]
    fn isolated_corridor_has_no_sleep_candidates() {
        // a single edge has two degree-1 endpoints: no neighbor can
        // absorb, so the schedule is empty and the network total equals
        // the per-corridor total
        let net = CorridorNetwork::line(&[8.0]);
        let report = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        assert!(report.plan().is_empty());
        assert_eq!(report.network_wh_day(), report.corridor_wh_day());
    }

    #[test]
    fn schedule_is_deterministic() {
        let net = CorridorNetwork::by_name("wye3").unwrap();
        let a = NetworkOptimizer::new()
            .workers(1)
            .run(&net, &quick_space())
            .unwrap();
        let b = NetworkOptimizer::new()
            .workers(4)
            .run(&net, &quick_space())
            .unwrap();
        assert_eq!(a.plan(), b.plan());
        assert_eq!(a.schedule_csv(), b.schedule_csv());
    }
}
