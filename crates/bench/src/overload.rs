//! Overload sweep (DESIGN.md §15): the strategy panel under correlated
//! overload scenarios, with and without the deadline-aware overload
//! control layer.
//!
//! The grid crosses every fault scenario — the chaos sweep's eight plus
//! the two *correlated* scenarios ([`FaultScenario::correlated`]:
//! flash crowd, cascading squeeze) that deliberately stay out of the
//! chaos grid — with a four-row panel {BP, PBPL, PBPL(degraded),
//! PBPL(overload)} at the chaos point (M = 5 on 2 cores, B₀ = 25).
//! One extra point re-runs the flash crowd at fleet scale: the scaling
//! sweep's m100 geometry (100 pairs on 10 cores) on the planet
//! workload, where the supervisor's fleet-wide escalation actually has
//! a fleet to escalate over.
//!
//! `PBPL(overload)` is vanilla PBPL plus
//! [`OverloadConfig::standard`](pc_core::OverloadConfig::standard) —
//! overload control is an experiment knob orthogonal to the strategy,
//! and the label alone is the complete recipe (the runner applies the
//! knob from it; see `replay::label_overloaded`). Every cell is traced
//! internally and replayed through the extended oracle; the shed ledger
//! (`produced == consumed + shed`, every `ItemShed` inside a paired
//! overload window whose `OverloadCleared.shed` matches) must hold for
//! every cell, and shed must be exactly zero on the three rows that run
//! without overload control.

use crate::exp::{save_json, Protocol};
use crate::replay::{fault_plan, planet_workload_label, strategy_label};
use crate::sweep::{Cell, CellRun, GridPoint, Group, Report};
use pc_core::StrategyKind;
use pc_faults::{FaultPlan, FaultScenario};
use serde::Serialize;

pub use crate::scale::planet_workload;

/// Geometry of an overload cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPoint {
    /// The chaos point — the paper's five consumers on two cores,
    /// B₀ = 25, World-Cup workload.
    Chaos,
    /// The scaling sweep's m100 point — 100 pairs on 10 cores, B₀ = 25,
    /// planet fleet workload.
    PlanetM100,
}

impl OverloadPoint {
    /// The (pairs, cores, buffer) configuration.
    pub fn grid(self) -> GridPoint {
        match self {
            OverloadPoint::Chaos => crate::chaos::chaos_point(),
            OverloadPoint::PlanetM100 => GridPoint {
                pairs: 100,
                cores: 10,
                buffer: 25,
            },
        }
    }
}

/// One overload cell: a panel row under a scenario at a geometry.
#[derive(Debug, Clone)]
pub struct OverloadCellSpec {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Whether the cell runs under
    /// [`OverloadConfig::standard`](pc_core::OverloadConfig::standard).
    pub overload: bool,
    /// Fault scenario the plan expands from.
    pub scenario: FaultScenario,
    /// Geometry the cell runs at.
    pub point: OverloadPoint,
    /// Replicate index; the seed is `base_seed + replicate`.
    pub replicate: usize,
}

/// The four-row panel: plain batching, vanilla PBPL, PBPL with the
/// degradation watchdog, and PBPL under overload control.
pub fn overload_panel() -> Vec<(StrategyKind, bool)> {
    vec![
        (StrategyKind::Bp, false),
        (StrategyKind::pbpl_default(), false),
        (StrategyKind::pbpl_degraded(), false),
        (StrategyKind::pbpl_default(), true),
    ]
}

/// The scenario list: the two correlated scenarios first, then the
/// chaos sweep's full eight (baseline included — the control rows).
pub fn overload_scenarios() -> Vec<FaultScenario> {
    FaultScenario::correlated()
        .into_iter()
        .chain(FaultScenario::all())
        .collect()
}

/// Stable cell name used for exact-match filtering:
/// `{scenario}/{strategy}`, with the planet-scale point tagged
/// `{scenario}@m100` so the two flash-crowd geometries stay distinct.
pub fn overload_cell_name(cell: &OverloadCellSpec) -> String {
    let scenario = match cell.point {
        OverloadPoint::Chaos => cell.scenario.name().to_string(),
        OverloadPoint::PlanetM100 => format!("{}@m100", cell.scenario.name()),
    };
    format!(
        "{}/{}",
        scenario,
        strategy_label(&cell.strategy, cell.overload)
    )
}

/// Expands the grid in canonical order: the chaos point first
/// (scenario-major, then panel row, then replicate), then the planet
/// m100 flash-crowd block.
pub fn overload_cells(replicates: usize) -> Vec<OverloadCellSpec> {
    let mut cells = Vec::new();
    for scenario in overload_scenarios() {
        for (strategy, overload) in overload_panel() {
            for replicate in 0..replicates {
                cells.push(OverloadCellSpec {
                    strategy: strategy.clone(),
                    overload,
                    scenario,
                    point: OverloadPoint::Chaos,
                    replicate,
                });
            }
        }
    }
    for (strategy, overload) in overload_panel() {
        for replicate in 0..replicates {
            cells.push(OverloadCellSpec {
                strategy: strategy.clone(),
                overload,
                scenario: FaultScenario::FlashCrowd,
                point: OverloadPoint::PlanetM100,
                replicate,
            });
        }
    }
    cells
}

/// The sweep cell of `spec` under `protocol`: the chaos point on the
/// protocol's World-Cup workload, or the m100 block on the planet
/// fleet, named [`overload_cell_name`].
pub(crate) fn overload_cell(protocol: &Protocol, spec: &OverloadCellSpec) -> Cell {
    let (experiment, workload) = match spec.point {
        OverloadPoint::Chaos => (
            format!("overload_{}", spec.scenario.name()),
            protocol.workload_label(),
        ),
        OverloadPoint::PlanetM100 => (
            format!("overload_{}_m100", spec.scenario.name()),
            planet_workload_label(&planet_workload(protocol))
                .expect("the planet workload is a named configuration"),
        ),
    };
    let mut cell = Cell::new(
        protocol,
        experiment,
        workload,
        spec.strategy.clone(),
        spec.overload,
        spec.point.grid(),
        spec.replicate,
    );
    cell.point = overload_cell_name(spec);
    cell.recipe.scenario = spec.scenario.name().to_string();
    cell
}

/// The fault plan `spec` runs under: its recipe's scenario re-expanded
/// from `(scenario, seed)` and the cell's own geometry.
pub fn overload_plan(protocol: &Protocol, spec: &OverloadCellSpec) -> FaultPlan {
    fault_plan(&overload_cell(protocol, spec).recipe, &spec.strategy)
        .expect("overload scenarios are named")
}

/// Expands [`overload_cells`] into one group.
pub(crate) fn expand(protocol: &Protocol) -> Vec<Group> {
    vec![Group {
        name: "overload".to_string(),
        cells: overload_cells(protocol.replicates)
            .iter()
            .map(|spec| overload_cell(protocol, spec))
            .collect(),
    }]
}

/// One row of `results/overload.json`: cell identity, the determinism
/// currency (energy bits, digest), and the shed/deadline accounting.
#[derive(Serialize)]
struct OverloadCellReport {
    /// Exact-match filter name (`{scenario}/{strategy}`).
    cell: String,
    /// Panel row label (`PBPL(overload)` tags the overload knob).
    strategy: String,
    /// Scenario name (the pure name — `@m100` lives in `cell` only).
    scenario: String,
    pairs: u64,
    cores: u64,
    buffer: u64,
    seed: u64,
    /// Faults in the expanded plan.
    plan_faults: usize,
    /// Raw bits of the energy reading (exact-equality currency).
    energy_j_bits: u64,
    energy_j: f64,
    /// Items produced over the run (shed items included).
    items_produced: u64,
    items_consumed: u64,
    /// Arrivals rejected by the admission controller; always 0 on the
    /// non-overload rows, and `produced == consumed + shed` everywhere.
    items_shed: u64,
    /// Shed share of production, percent.
    shed_pct: f64,
    /// Overload windows entered across the fleet (admission trips plus
    /// supervisor escalations).
    overload_windows: u64,
    /// Consumed items that missed the overload deadline (counted only
    /// on overload rows — the deadline is undefined otherwise).
    deadline_misses: u64,
    wakeups: u64,
    scheduled_wakeups: u64,
    overflow_wakeups: u64,
    /// Events the cell's recorder captured.
    trace_events: u64,
    /// FNV-1a digest of the cell's event stream.
    trace_digest: u64,
}

#[derive(Default)]
struct OverloadReport {
    cells: Vec<OverloadCellReport>,
}

#[derive(Serialize)]
struct OverloadFile<'a> {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    cells: &'a [OverloadCellReport],
}

impl Report for OverloadReport {
    fn add(&mut self, _: &Protocol, group: &Group, runs: &[CellRun]) {
        println!(
            "{:<24} {:<16} {:>9} {:>8} {:>7} {:>8} {:>7} {:>8}",
            "scenario", "strategy", "items", "shed", "shed%", "windows", "misses", "wakeups"
        );
        for (cell, run) in group.cells.iter().zip(runs) {
            let (meta, metrics) = (&run.meta, &run.metrics);
            let shed_pct = if metrics.items_produced == 0 {
                0.0
            } else {
                metrics.items_shed as f64 / metrics.items_produced as f64 * 100.0
            };
            let row = OverloadCellReport {
                cell: cell.point.clone(),
                strategy: meta.strategy.clone(),
                scenario: meta.scenario.clone(),
                pairs: meta.pairs,
                cores: meta.cores,
                buffer: meta.buffer,
                seed: meta.seed,
                plan_faults: fault_plan(meta, &cell.strategy)
                    .expect("overload scenarios are named")
                    .len(),
                energy_j_bits: metrics.energy.energy_j.to_bits(),
                energy_j: metrics.energy.energy_j,
                items_produced: metrics.items_produced,
                items_consumed: metrics.items_consumed,
                items_shed: metrics.items_shed,
                shed_pct,
                overload_windows: metrics.pairs.iter().map(|p| p.overload_windows).sum(),
                deadline_misses: metrics.deadline_misses(),
                wakeups: metrics.energy.wakeups,
                scheduled_wakeups: metrics.scheduled_wakeups(),
                overflow_wakeups: metrics.overflow_wakeups(),
                trace_events: meta.events,
                trace_digest: meta.digest,
            };
            println!(
                "{:<24} {:<16} {:>9} {:>8} {:>6.2}% {:>8} {:>7} {:>8}",
                row.cell.split('/').next().unwrap_or_default(),
                row.strategy,
                row.items_consumed,
                row.items_shed,
                row.shed_pct,
                row.overload_windows,
                row.deadline_misses,
                row.wakeups
            );
            self.cells.push(row);
        }
    }

    fn save(&self, protocol: &Protocol) {
        save_json(
            "overload",
            &OverloadFile {
                schema_version: 1,
                duration_ms: protocol.duration.as_nanos() / 1_000_000,
                replicates: protocol.replicates,
                base_seed: protocol.base_seed,
                trace_mean_rate: protocol.trace.mean_rate,
                cells: &self.cells,
            },
        );
    }
}

/// An empty overload report.
pub(crate) fn report() -> Box<dyn Report> {
    Box::<OverloadReport>::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{execute, fleets};
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;
    use pc_trace_events::TraceEvent;

    fn tiny_protocol() -> Protocol {
        Protocol {
            // Long enough for a flash-crowd window (~30–55% of the
            // horizon) to build service lag past the 50 ms standard
            // deadline on a saturated core.
            duration: SimDuration::from_millis(400),
            replicates: 1,
            base_seed: 11,
            trace: WorldCupConfig::quick_test(),
            threads: 2,
        }
    }

    #[test]
    fn grid_is_ten_scenarios_by_four_rows_plus_the_m100_block() {
        let cells = overload_cells(1);
        assert_eq!(cells.len(), 10 * 4 + 4);
        assert_eq!(cells[0].scenario, FaultScenario::FlashCrowd);
        assert_eq!(cells[0].point, OverloadPoint::Chaos);
        assert!(cells[40..].iter().all(
            |c| c.point == OverloadPoint::PlanetM100 && c.scenario == FaultScenario::FlashCrowd
        ));
        // Cell names are unique per replicate — the exact-match filter
        // contract depends on it.
        let names: std::collections::BTreeSet<String> =
            cells.iter().map(overload_cell_name).collect();
        assert_eq!(names.len(), cells.len());
        assert!(names.contains("flash_crowd/PBPL(overload)"));
        assert!(names.contains("flash_crowd@m100/PBPL(overload)"));
        assert!(names.contains("baseline/BP"));
    }

    fn run(protocol: &Protocol, specs: &[OverloadCellSpec], threads: usize) -> Vec<CellRun> {
        let cells: Vec<Cell> = specs.iter().map(|s| overload_cell(protocol, s)).collect();
        let (runs, _) = execute(&cells, &fleets(&cells, threads), threads, 1, true);
        runs.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn m100_recipes_name_the_planet_workload_and_the_m100_point() {
        let p = tiny_protocol();
        let spec = overload_cells(1).pop().unwrap();
        let cell = overload_cell(&p, &spec);
        assert_eq!(cell.point, "flash_crowd@m100/PBPL(overload)");
        assert_eq!(cell.recipe.experiment, "overload_flash_crowd_m100");
        assert_eq!(cell.recipe.workload, "planet_scale");
        assert_eq!(cell.recipe.pairs, 100);
        assert_eq!(overload_plan(&p, &spec).len(), {
            let cell = overload_cell(&p, &spec);
            fault_plan(&cell.recipe, &cell.strategy).unwrap().len()
        });
    }

    #[test]
    fn flash_crowd_sheds_under_overload_control_only() {
        let p = tiny_protocol();
        let overloaded = OverloadCellSpec {
            strategy: StrategyKind::pbpl_default(),
            overload: true,
            scenario: FaultScenario::FlashCrowd,
            point: OverloadPoint::Chaos,
            replicate: 0,
        };
        let vanilla = OverloadCellSpec {
            overload: false,
            ..overloaded.clone()
        };
        let runs = run(&p, &[overloaded.clone(), overloaded, vanilla], 2);
        let (metrics, log) = (&runs[0].metrics, runs[0].log.as_ref().unwrap());
        assert!(metrics.items_shed > 0, "flash crowd must trip admission");
        assert_eq!(
            metrics.items_produced,
            metrics.items_consumed + metrics.items_shed
        );
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEvent::ItemShed { .. })));
        let report = crate::oracle::check(log);
        assert!(report.is_clean(), "{:?}", report.violations);
        // Seed-deterministic: the same cell re-run sheds the same count.
        assert_eq!(metrics.items_shed, runs[1].metrics.items_shed);
        assert_eq!(runs[0].meta.digest, runs[1].meta.digest);

        // The same cell without the knob sheds nothing.
        let base = &runs[2];
        assert_eq!(base.metrics.items_shed, 0);
        assert_eq!(base.metrics.items_produced, base.metrics.items_consumed);
        assert!(crate::oracle::check(base.log.as_ref().unwrap()).is_clean());
    }

    #[test]
    fn every_panel_row_runs_clean_under_the_correlated_scenarios() {
        let p = tiny_protocol();
        let specs: Vec<OverloadCellSpec> = FaultScenario::correlated()
            .into_iter()
            .flat_map(|scenario| {
                overload_panel()
                    .into_iter()
                    .map(move |(strategy, overload)| OverloadCellSpec {
                        strategy,
                        overload,
                        scenario,
                        point: OverloadPoint::Chaos,
                        replicate: 0,
                    })
            })
            .collect();
        for (spec, run) in specs.iter().zip(run(&p, &specs, 2)) {
            let metrics = &run.metrics;
            assert_eq!(
                metrics.items_produced,
                metrics.items_consumed + metrics.items_shed,
                "{}",
                overload_cell_name(spec)
            );
            assert!(metrics.scheduler.ledger_balanced());
            let report = crate::oracle::check(run.log.as_ref().unwrap());
            assert!(
                report.is_clean(),
                "{}: {:?}",
                overload_cell_name(spec),
                report.violations
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_overload_bits() {
        let p = tiny_protocol();
        let specs: Vec<OverloadCellSpec> = overload_cells(1)
            .into_iter()
            .filter(|c| c.point == OverloadPoint::Chaos && c.scenario == FaultScenario::FlashCrowd)
            .collect();
        assert_eq!(specs.len(), 4);
        for (s, q) in run(&p, &specs, 1).iter().zip(&run(&p, &specs, 4)) {
            assert_eq!(
                s.metrics.energy.energy_j.to_bits(),
                q.metrics.energy.energy_j.to_bits()
            );
            assert_eq!(s.metrics.items_shed, q.metrics.items_shed);
            assert_eq!(s.meta.digest, q.meta.digest);
        }
    }
}
