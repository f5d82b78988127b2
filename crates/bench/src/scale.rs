//! Large-M scaling sweep (DESIGN.md §11).
//!
//! The paper's evaluation stops at M = 5 pairs; this sweep drives the
//! sharded coordination layer (ShardedCoreManager + sharded GlobalPool)
//! with the planet-scale workload from `pc_trace::planet` at
//! M ∈ {10, 100, 1000} and checks that the deterministic results are a
//! pure function of `(seed, config)` — **never** of the worker-thread
//! count *or the shard count*. The CI `scale` job byte-compares
//! `results/scale.json` across `--threads {4, 1}` and across two shard
//! counts; sharding is a locking layout, not a semantics change, and
//! this file is where that contract is enforced.
//!
//! The scaling grid is ~90× the suite's item volume, so its table entry
//! defaults to a 10 s horizon and a single replicate. Timings (which
//! *do* depend on threads and shards) go to `results/BENCH_scale.json`
//! only.

use crate::exp::{evaluated_strategies, save_json, Protocol};
use crate::replay::{planet_workload_label, stretch_planet};
use crate::suite::{grid_rows, GridRow};
use crate::sweep::{Cell, CellRun, GridPoint, Group, Report};
use pc_trace::PlanetConfig;
use serde::Serialize;

/// The planet workload of the scaling sweep and of the overload sweep's
/// m100 block: `scale_default` with the horizon stretched to the
/// protocol duration, so the diurnal cycle always spans the whole run.
pub fn planet_workload(protocol: &Protocol) -> PlanetConfig {
    stretch_planet(PlanetConfig::scale_default(), protocol.duration)
}

/// One named grid point of the scaling sweep.
pub struct ScalePoint {
    /// Point name (`m10`, `m100`, `m1000`).
    pub name: &'static str,
    /// The (pairs, cores, buffer) configuration.
    pub point: GridPoint,
}

/// The scaling grid: cores grow with M (10 pairs per core, as in the
/// paper's 5-pairs-on-2-cores ratio), buffer fixed at the paper's
/// B₀ = 25.
pub fn scale_points() -> Vec<ScalePoint> {
    [("m10", 10, 2), ("m100", 100, 10), ("m1000", 1000, 100)]
        .into_iter()
        .map(|(name, pairs, cores)| ScalePoint {
            name,
            point: GridPoint {
                pairs,
                cores,
                buffer: 25,
            },
        })
        .collect()
}

/// Expands the four §VI strategies at every scale point into one group
/// per point (strategy-major, then replicate), named after the point.
pub(crate) fn expand(protocol: &Protocol) -> Vec<Group> {
    let workload = planet_workload_label(&planet_workload(protocol))
        .expect("the scale workload is a named configuration");
    scale_points()
        .into_iter()
        .map(|p| {
            let mut cells = Vec::new();
            for strategy in evaluated_strategies() {
                for replicate in 0..protocol.replicates {
                    let mut cell = Cell::new(
                        protocol,
                        format!("scale_{}", p.name),
                        workload,
                        strategy.clone(),
                        false,
                        p.point,
                        replicate,
                    );
                    cell.point = p.name.to_string();
                    cells.push(cell);
                }
            }
            Group {
                name: p.name.to_string(),
                cells,
            }
        })
        .collect()
}

#[derive(Default)]
struct ScaleReport {
    cells: Vec<GridRow>,
}

/// `results/scale.json`. Deliberately mirrors the suite's cell schema;
/// **no thread or shard field may ever appear here** — those live in
/// `BENCH_scale.json`.
#[derive(Serialize)]
struct ScaleFile<'a> {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    workload_mean_rate: f64,
    workload_rate_spread: f64,
    cells: &'a [GridRow],
}

impl Report for ScaleReport {
    fn add(&mut self, protocol: &Protocol, group: &Group, runs: &[CellRun]) {
        self.cells.extend(grid_rows(protocol, group, runs));
    }

    fn save(&self, protocol: &Protocol) {
        let workload = planet_workload(protocol);
        save_json(
            "scale",
            &ScaleFile {
                schema_version: 1,
                duration_ms: protocol.duration.as_nanos() / 1_000_000,
                replicates: protocol.replicates,
                base_seed: protocol.base_seed,
                workload_mean_rate: workload.mean_rate,
                workload_rate_spread: workload.rate_spread,
                cells: &self.cells,
            },
        );
    }
}

/// An empty scale report.
pub(crate) fn report() -> Box<dyn Report> {
    Box::<ScaleReport>::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{execute, fleets};
    use pc_core::RunMetrics;
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;

    fn tiny_protocol() -> Protocol {
        Protocol {
            duration: SimDuration::from_millis(60),
            replicates: 1,
            base_seed: 11,
            trace: WorldCupConfig::quick_test(),
            threads: 1,
        }
    }

    /// The four strategies on six pairs of the quick planet fleet.
    fn tiny_cells(protocol: &Protocol) -> Vec<Cell> {
        let point = GridPoint {
            pairs: 6,
            cores: 2,
            buffer: 25,
        };
        evaluated_strategies()
            .into_iter()
            .map(|strategy| {
                Cell::new(
                    protocol,
                    "scale_tiny".to_string(),
                    "planet_quick",
                    strategy,
                    false,
                    point,
                    0,
                )
            })
            .collect()
    }

    fn run(threads: usize, shards: usize) -> Vec<RunMetrics> {
        let protocol = tiny_protocol();
        let cells = tiny_cells(&protocol);
        let (runs, _) = execute(&cells, &fleets(&cells, threads), threads, shards, false);
        runs.into_iter().map(|r| r.unwrap().metrics).collect()
    }

    #[test]
    fn grid_is_three_points_of_four_strategies() {
        let mut protocol = tiny_protocol();
        protocol.replicates = 2;
        let groups = expand(&protocol);
        let names: Vec<&str> = groups.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["m10", "m100", "m1000"]);
        assert!(groups.iter().all(|g| g.cells.len() == 4 * 2));
        let cell = &groups[2].cells[0];
        assert_eq!((cell.point.as_str(), cell.recipe.pairs), ("m1000", 1000));
        assert_eq!(cell.recipe.workload, "planet_scale");
    }

    #[test]
    fn neither_threads_nor_shards_change_energy_bits() {
        let base = run(1, 1);
        for (threads, shards) in [(4, 1), (1, 4), (4, 3)] {
            let other = run(threads, shards);
            for (a, b) in base.iter().zip(&other) {
                assert_eq!(a.energy.energy_j.to_bits(), b.energy.energy_j.to_bits());
                assert_eq!(a.items_consumed, b.items_consumed);
                assert_eq!(a.energy.wakeups, b.energy.wakeups);
            }
        }
    }

    #[test]
    fn fleet_is_generated_once_per_point_and_replicate() {
        let protocol = tiny_protocol();
        let cells = tiny_cells(&protocol);
        let fleets = fleets(&cells, 2);
        assert_eq!(fleets.len(), 1, "4 strategies share one fleet");
        assert_eq!(fleets.values().next().unwrap().len(), 6);
        // World-Cup cells need no fleet.
        assert!(crate::sweep::fleets(&crate::suite::expand(&protocol)[0].cells, 2).is_empty());
    }

    #[test]
    fn shared_fleet_runs_like_a_regenerated_one() {
        let protocol = tiny_protocol();
        let cells = tiny_cells(&protocol);
        let shared = run(2, 1);
        let (fresh, _) = execute(&cells, &Default::default(), 2, 1, false);
        for (a, b) in shared.iter().zip(fresh) {
            let b = b.unwrap().metrics;
            assert_eq!(a.energy.energy_j.to_bits(), b.energy.energy_j.to_bits());
            assert_eq!(a.items_produced, b.items_produced);
        }
    }

    #[test]
    fn conservation_holds_at_scale_cells() {
        for m in run(4, 2) {
            assert_eq!(m.items_produced, m.items_consumed, "{}", m.strategy);
        }
    }
}
