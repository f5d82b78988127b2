//! The `suite` sweep: every paper figure/table experiment — the §III
//! single-pair study (Figs. 3/4 plus the §III-C period sweep), Figs. 9,
//! 10 and 11, and the overflow and buffer-usage tables — one dispatch
//! group per experiment, each named after its figure or table.
//!
//! `results/suite.json` holds per-cell metrics with the energy reading
//! as raw `f64` bits. **Byte-identical for any `--threads` value at the
//! same seed, and with or without `--trace`** — nothing timing- or
//! thread-dependent may ever be added to it; timings go to
//! `BENCH_suite.json`.

use crate::exp::{evaluated_strategies, print_header, print_latency_tail, print_row, save_json};
use crate::exp::{single_pc_strategies, Protocol, Row};
use crate::oracle::CellMeta;
use crate::sweep::{Cell, CellRun, GridPoint, Group, Report};
use pc_core::{PbplConfig, RunMetrics, StrategyKind};
use pc_sim::SimDuration;
use serde::Serialize;

/// Every experiment of the suite, in fixed order: its name, strategies
/// and grid points.
fn experiments(protocol: &Protocol) -> Vec<(&'static str, Vec<StrategyKind>, Vec<GridPoint>)> {
    let point = |pairs, buffer| GridPoint {
        pairs,
        cores: 2,
        buffer,
    };
    let evaluated = evaluated_strategies();
    let batchers = || vec![StrategyKind::Bp, StrategyKind::pbpl_default()];

    // Fig. 3/4's seven single-pair strategies, plus the §III-C jitter
    // sweep (PBP/SPBP with the period tightened toward the nanosleep
    // jitter scale).
    let mut single = single_pc_strategies(50, protocol.trace.mean_rate);
    for period_ms in [27u64, 9, 3] {
        let period = SimDuration::from_millis(period_ms);
        single.push(StrategyKind::Pbp { period });
        single.push(StrategyKind::Spbp { period });
    }
    let fixed = StrategyKind::Pbpl(PbplConfig {
        resizing: false,
        ..PbplConfig::default()
    });

    vec![
        (
            "fig03_04_single_pc",
            single,
            vec![GridPoint {
                pairs: 1,
                cores: 1,
                buffer: 50,
            }],
        ),
        (
            "fig09_five_consumers",
            evaluated.clone(),
            vec![point(5, 25)],
        ),
        (
            "fig10_consumer_sweep",
            evaluated,
            [2, 5, 10].map(|pairs| point(pairs, 25)).to_vec(),
        ),
        (
            "fig11_buffer_sweep",
            batchers(),
            [25, 50, 100].map(|buffer| point(5, buffer)).to_vec(),
        ),
        ("table_overflows", batchers(), vec![point(5, 50)]),
        (
            "table_buffer_usage",
            vec![StrategyKind::pbpl_default(), fixed],
            vec![point(5, 50)],
        ),
    ]
}

/// Expands every experiment point-major, then strategy, then
/// replicate, into one group named after it; the experiment name is
/// also every cell's point name.
pub(crate) fn expand(protocol: &Protocol) -> Vec<Group> {
    experiments(protocol)
        .into_iter()
        .map(|(name, strategies, points)| {
            let mut cells = Vec::new();
            for point in points {
                for strategy in &strategies {
                    for replicate in 0..protocol.replicates {
                        cells.push(Cell::new(
                            protocol,
                            name.to_string(),
                            protocol.workload_label(),
                            strategy.clone(),
                            false,
                            point,
                            replicate,
                        ));
                    }
                }
            }
            Group {
                name: name.to_string(),
                cells,
            }
        })
        .collect()
}

/// One cell row of `suite.json` and `scale.json`.
#[derive(Serialize)]
pub(crate) struct GridRow {
    strategy: String,
    pairs: u64,
    cores: u64,
    buffer: u64,
    seed: u64,
    /// Raw bits of the energy reading — the exact-equality currency of
    /// the determinism contract (never compare the float itself).
    energy_j_bits: u64,
    energy_j: f64,
    items_produced: u64,
    items_consumed: u64,
    wakeups: u64,
    scheduled_wakeups: u64,
    overflow_wakeups: u64,
    slot_fires: u64,
    mean_capacity: f64,
    mean_latency_us: f64,
}

impl GridRow {
    fn new(meta: &CellMeta, m: &RunMetrics) -> GridRow {
        GridRow {
            strategy: meta.strategy.clone(),
            pairs: meta.pairs,
            cores: meta.cores,
            buffer: meta.buffer,
            seed: meta.seed,
            energy_j_bits: m.energy.energy_j.to_bits(),
            energy_j: m.energy.energy_j,
            items_produced: m.items_produced,
            items_consumed: m.items_consumed,
            wakeups: m.energy.wakeups,
            scheduled_wakeups: m.scheduled_wakeups(),
            overflow_wakeups: m.overflow_wakeups(),
            slot_fires: m.slot_fires,
            mean_capacity: m.mean_capacity(),
            mean_latency_us: m.mean_latency().as_secs_f64() * 1e6,
        }
    }
}

/// Prints a grid group's summary table — one row per strategy and
/// point, its replicates summarised, then each row's latency tail — and
/// returns its cell rows.
pub(crate) fn grid_rows(protocol: &Protocol, group: &Group, runs: &[CellRun]) -> Vec<GridRow> {
    print_header(&group.name);
    let rows: Vec<Row> = runs
        .chunks(protocol.replicates)
        .map(|chunk| {
            let metrics: Vec<&RunMetrics> = chunk.iter().map(|run| &run.metrics).collect();
            let mut row = Row::from_runs(&metrics);
            let meta = &chunk[0].meta;
            row.name = format!("{} M={} B={}", meta.strategy, meta.pairs, meta.buffer);
            print_row(&row);
            row
        })
        .collect();
    rows.iter().for_each(print_latency_tail);
    runs.iter()
        .map(|run| GridRow::new(&run.meta, &run.metrics))
        .collect()
}

#[derive(Serialize)]
struct ExperimentReport {
    name: String,
    cells: Vec<GridRow>,
}

#[derive(Default)]
struct SuiteReport {
    experiments: Vec<ExperimentReport>,
}

#[derive(Serialize)]
struct SuiteFile<'a> {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    experiments: &'a [ExperimentReport],
}

impl Report for SuiteReport {
    fn add(&mut self, protocol: &Protocol, group: &Group, runs: &[CellRun]) {
        self.experiments.push(ExperimentReport {
            name: group.name.clone(),
            cells: grid_rows(protocol, group, runs),
        });
    }

    fn save(&self, protocol: &Protocol) {
        save_json(
            "suite",
            &SuiteFile {
                schema_version: 1,
                duration_ms: protocol.duration.as_nanos() / 1_000_000,
                replicates: protocol.replicates,
                base_seed: protocol.base_seed,
                trace_mean_rate: protocol.trace.mean_rate,
                experiments: &self.experiments,
            },
        );
    }
}

/// An empty suite report.
pub(crate) fn report() -> Box<dyn Report> {
    Box::<SuiteReport>::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_trace::WorldCupConfig;

    #[test]
    fn expansion_is_point_major_then_strategy_then_replicate() {
        let protocol = Protocol {
            duration: SimDuration::from_millis(40),
            replicates: 2,
            base_seed: 7,
            trace: WorldCupConfig::quick_test(),
            threads: 1,
        };
        let groups = expand(&protocol);
        let names: Vec<&str> = groups.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fig03_04_single_pc",
                "fig09_five_consumers",
                "fig10_consumer_sweep",
                "fig11_buffer_sweep",
                "table_overflows",
                "table_buffer_usage"
            ]
        );
        let fig10 = &groups[2];
        let key: Vec<(u64, &str, u64)> = fig10
            .cells
            .iter()
            .map(|c| (c.recipe.pairs, c.recipe.strategy.as_str(), c.recipe.seed))
            .collect();
        assert_eq!(key.len(), 3 * 4 * 2);
        assert_eq!(
            key[..6],
            [
                (2, "Mutex", 7),
                (2, "Mutex", 8),
                (2, "Sem", 7),
                (2, "Sem", 8),
                (2, "BP", 7),
                (2, "BP", 8)
            ]
        );
        assert_eq!(key[8], (5, "Mutex", 7));
        assert!(fig10.cells.iter().all(|c| c.point == "fig10_consumer_sweep"
            && c.recipe.experiment == c.point
            && c.recipe.workload == "worldcup_quick"));
        let fixed = &groups[5].cells[2].recipe;
        assert_eq!(fixed.strategy, "PBPL(fixed)");
    }
}
