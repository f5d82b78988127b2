//! Chaos sweep: every fault scenario crossed with a strategy panel,
//! recovery metrics re-derived from the event trace.
//!
//! A chaos cell is a normal sweep cell whose recipe names a fault
//! scenario; its [`FaultPlan`](pc_faults::FaultPlan) re-expands from
//! `(scenario, seed)` — bit-deterministic like everything else, so
//! `results/chaos.json` is byte-identical for any `--threads` value and
//! CI gates it exactly like `suite.json`. Every cell records its event
//! stream (the recovery metrics come from the trace, not the sim's own
//! counters) and is replayed through the extended oracle: item and pool
//! conservation must hold *through* every injected fault.

use crate::exp::{save_json, Protocol};
use crate::replay::fault_plan;
use crate::sweep::{Cell, CellRun, GridPoint, Group, Report};
use pc_core::StrategyKind;
use pc_faults::FaultScenario;
use pc_trace_events::{TraceEvent, TraceLog, Trigger};
use serde::Serialize;
use std::collections::BTreeMap;

/// Strategy panel of the chaos sweep: the two item-driven baselines,
/// plain batching, vanilla PBPL, and PBPL with the degradation watchdog.
pub fn chaos_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::pbpl_default(),
        StrategyKind::pbpl_degraded(),
    ]
}

/// The single grid point every chaos cell runs at (the paper's five
/// consumers on two cores, B₀ = 25 — Fig. 9's configuration).
pub fn chaos_point() -> GridPoint {
    GridPoint {
        pairs: 5,
        cores: 2,
        buffer: 25,
    }
}

/// Replicate `replicate` of `strategy` under `scenario` at the chaos
/// point, named `{scenario}/{strategy}`.
pub fn chaos_cell(
    protocol: &Protocol,
    strategy: StrategyKind,
    scenario: FaultScenario,
    replicate: usize,
) -> Cell {
    let mut cell = Cell::new(
        protocol,
        format!("chaos_{}", scenario.name()),
        protocol.workload_label(),
        strategy,
        false,
        chaos_point(),
        replicate,
    );
    cell.point = format!("{}/{}", scenario.name(), cell.recipe.strategy);
    cell.recipe.scenario = scenario.name().to_string();
    cell
}

/// Expands the chaos grid into one group, scenario-major, then
/// strategy, then replicate.
pub(crate) fn expand(protocol: &Protocol) -> Vec<Group> {
    let mut cells = Vec::new();
    for scenario in FaultScenario::all() {
        for strategy in chaos_strategies() {
            for replicate in 0..protocol.replicates {
                cells.push(chaos_cell(protocol, strategy.clone(), scenario, replicate));
            }
        }
    }
    vec![Group {
        name: "chaos".to_string(),
        cells,
    }]
}

/// Recovery metrics of one chaos cell, re-derived from its event trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecoveryMetrics {
    /// Faults injected over the run.
    pub faults_injected: u64,
    /// Faults whose window closed (always equals `faults_injected` on a
    /// clean trace — the sim recovers open windows before teardown).
    pub faults_recovered: u64,
    /// Invocations triggered by buffer overflow.
    pub overflow_wakes: u64,
    /// Overflow invocations that *continue* a run — each one immediately
    /// follows another overflow invocation of the same pair with nothing
    /// scheduled in between. This is the sustained-thrashing currency the
    /// degradation watchdog exists to reduce: isolated overflows are a
    /// prediction being caught out once, consecutive ones are the planner
    /// failing to adapt.
    pub consec_overflow_wakes: u64,
    /// Invocations triggered by a reserved slot or periodic timer.
    pub scheduled_wakes: u64,
    /// Longest run of consecutive overflow invocations of any single
    /// pair (the burst a rate shock forces before resizing catches up).
    pub max_overflow_burst: u64,
    /// Worst case, over all fault recoveries, of the sim-time gap from
    /// the `FaultRecovered` event to that run's next scheduled-trigger
    /// invocation — how long the system took to get back onto planned
    /// wakeups. Zero when no fault fired or nothing scheduled followed.
    pub max_recovery_lag_ns: u64,
}

/// Scans a trace for the chaos table's recovery metrics.
pub fn recovery_metrics(log: &TraceLog) -> RecoveryMetrics {
    let mut m = RecoveryMetrics {
        faults_injected: 0,
        faults_recovered: 0,
        overflow_wakes: 0,
        consec_overflow_wakes: 0,
        scheduled_wakes: 0,
        max_overflow_burst: 0,
        max_recovery_lag_ns: 0,
    };
    // pair -> current consecutive-overflow run length.
    let mut bursts: BTreeMap<u32, u64> = BTreeMap::new();
    // Open recovery gaps: time of each FaultRecovered not yet followed
    // by a scheduled invocation.
    let mut open_recoveries: Vec<u64> = Vec::new();
    for ev in &log.events {
        match &ev.kind {
            TraceEvent::FaultInjected { .. } => m.faults_injected += 1,
            TraceEvent::FaultRecovered { .. } => {
                m.faults_recovered += 1;
                open_recoveries.push(ev.t_ns);
            }
            TraceEvent::Invoke { pair, trigger, .. } => match trigger {
                Trigger::Overflow => {
                    m.overflow_wakes += 1;
                    let run = bursts.entry(*pair).or_insert(0);
                    *run += 1;
                    if *run > 1 {
                        m.consec_overflow_wakes += 1;
                    }
                    m.max_overflow_burst = m.max_overflow_burst.max(*run);
                }
                Trigger::Scheduled => {
                    m.scheduled_wakes += 1;
                    bursts.insert(*pair, 0);
                    for t in open_recoveries.drain(..) {
                        m.max_recovery_lag_ns =
                            m.max_recovery_lag_ns.max(ev.t_ns.saturating_sub(t));
                    }
                }
                Trigger::Item => {
                    bursts.insert(*pair, 0);
                }
            },
            _ => {}
        }
    }
    m
}

/// One row of `results/chaos.json`: cell identity, the determinism
/// currency (energy bits, digest), and the recovery metrics.
#[derive(Serialize)]
struct ChaosCellReport {
    /// Strategy label (`PBPL(degraded)` tags the watchdog variant).
    strategy: String,
    /// Scenario name (stable filter key).
    scenario: String,
    seed: u64,
    /// Faults in the expanded plan.
    plan_faults: usize,
    /// Raw bits of the energy reading (exact-equality currency).
    energy_j_bits: u64,
    energy_j: f64,
    items_produced: u64,
    items_consumed: u64,
    /// Consumer wakeups charged by the power model.
    wakeups: u64,
    /// Events the cell's recorder captured.
    trace_events: u64,
    /// FNV-1a digest of the cell's event stream.
    trace_digest: u64,
    recovery: RecoveryMetrics,
}

#[derive(Default)]
struct ChaosReport {
    cells: Vec<ChaosCellReport>,
}

#[derive(Serialize)]
struct ChaosFile<'a> {
    /// Bump on any change to this file's structure.
    schema_version: u32,
    duration_ms: u64,
    replicates: usize,
    base_seed: u64,
    trace_mean_rate: f64,
    pairs: usize,
    cores: usize,
    buffer: usize,
    cells: &'a [ChaosCellReport],
}

impl Report for ChaosReport {
    fn add(&mut self, _: &Protocol, group: &Group, runs: &[CellRun]) {
        println!(
            "{:<16} {:<16} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>12}",
            "scenario",
            "strategy",
            "items",
            "wakeups",
            "ovf",
            "consec",
            "sched",
            "burst",
            "rec_lag_us"
        );
        for (cell, run) in group.cells.iter().zip(runs) {
            let log = run.log.as_ref().expect("chaos cells are recorded");
            let (meta, metrics) = (&run.meta, &run.metrics);
            let row = ChaosCellReport {
                strategy: meta.strategy.clone(),
                scenario: meta.scenario.clone(),
                seed: meta.seed,
                plan_faults: fault_plan(meta, &cell.strategy)
                    .expect("chaos scenarios are named")
                    .len(),
                energy_j_bits: metrics.energy.energy_j.to_bits(),
                energy_j: metrics.energy.energy_j,
                items_produced: metrics.items_produced,
                items_consumed: metrics.items_consumed,
                wakeups: metrics.energy.wakeups,
                trace_events: meta.events,
                trace_digest: meta.digest,
                recovery: recovery_metrics(log),
            };
            println!(
                "{:<16} {:<16} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>12.1}",
                row.scenario,
                row.strategy,
                row.items_consumed,
                row.wakeups,
                row.recovery.overflow_wakes,
                row.recovery.consec_overflow_wakes,
                row.recovery.scheduled_wakes,
                row.recovery.max_overflow_burst,
                row.recovery.max_recovery_lag_ns as f64 / 1_000.0
            );
            self.cells.push(row);
        }
    }

    fn save(&self, protocol: &Protocol) {
        let point = chaos_point();
        save_json(
            "chaos",
            &ChaosFile {
                schema_version: 1,
                duration_ms: protocol.duration.as_nanos() / 1_000_000,
                replicates: protocol.replicates,
                base_seed: protocol.base_seed,
                trace_mean_rate: protocol.trace.mean_rate,
                pairs: point.pairs,
                cores: point.cores,
                buffer: point.buffer,
                cells: &self.cells,
            },
        );
    }
}

/// An empty chaos report.
pub(crate) fn report() -> Box<dyn Report> {
    Box::<ChaosReport>::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{execute, FleetMap};
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;

    fn tiny_protocol() -> Protocol {
        Protocol {
            duration: SimDuration::from_millis(60),
            replicates: 1,
            base_seed: 11,
            trace: WorldCupConfig::quick_test(),
            threads: 2,
        }
    }

    #[test]
    fn grid_is_scenarios_by_strategies_by_replicates() {
        let mut p = tiny_protocol();
        p.replicates = 2;
        let groups = expand(&p);
        assert_eq!(groups.len(), 1);
        let cells = &groups[0].cells;
        assert_eq!(cells.len(), 8 * 5 * 2);
        assert_eq!(cells[0].point, "baseline/Mutex");
        assert_eq!(cells[0].recipe.seed, 11);
        assert_eq!(cells[1].recipe.seed, 12);
        assert_eq!(cells[0].recipe.experiment, "chaos_baseline");
    }

    #[test]
    fn baseline_plan_is_empty_and_faulty_scenarios_are_not() {
        for cell in &expand(&tiny_protocol())[0].cells {
            let plan = fault_plan(&cell.recipe, &cell.strategy).unwrap();
            if cell.recipe.scenario == "baseline" {
                assert!(plan.is_empty());
            } else {
                assert!(!plan.is_empty(), "{} plan empty", cell.point);
            }
        }
    }

    fn run(cells: &[Cell], threads: usize) -> Vec<CellRun> {
        let (runs, _) = execute(cells, &FleetMap::new(), threads, 1, true);
        runs.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn chaos_cells_run_clean_through_the_oracle() {
        let p = tiny_protocol();
        // One representative faulty scenario per strategy class keeps
        // the test fast; the chaos sweep covers the full cross.
        let cells: Vec<Cell> = [
            (StrategyKind::Mutex, FaultScenario::RateShock),
            (StrategyKind::Bp, FaultScenario::ConsumerSlowdown),
            (StrategyKind::pbpl_default(), FaultScenario::DroppedWakeup),
            (StrategyKind::pbpl_degraded(), FaultScenario::PoolSqueeze),
            (StrategyKind::pbpl_degraded(), FaultScenario::Chaos),
        ]
        .into_iter()
        .map(|(strategy, scenario)| chaos_cell(&p, strategy, scenario, 0))
        .collect();
        for (cell, run) in cells.iter().zip(run(&cells, 2)) {
            let metrics = &run.metrics;
            assert_eq!(metrics.items_produced, metrics.items_consumed);
            let log = run.log.unwrap();
            let report = crate::oracle::check(&log);
            assert!(report.is_clean(), "{}: {:?}", cell.point, report.violations);
            let rec = recovery_metrics(&log);
            assert_eq!(rec.faults_injected, rec.faults_recovered);
            assert!(rec.faults_injected > 0, "{}", cell.point);
        }
    }

    #[test]
    fn thread_count_does_not_change_chaos_bits() {
        let p = tiny_protocol();
        let cells: Vec<Cell> = expand(&p)[0]
            .cells
            .iter()
            .filter(|c| c.strategy == StrategyKind::Bp || c.recipe.strategy == "PBPL(degraded)")
            .cloned()
            .collect();
        assert_eq!(cells.len(), 16);
        for (s, q) in run(&cells, 1).iter().zip(&run(&cells, 4)) {
            assert_eq!(
                s.metrics.energy.energy_j.to_bits(),
                q.metrics.energy.energy_j.to_bits()
            );
            assert_eq!(s.meta.digest, q.meta.digest);
        }
    }

    #[test]
    fn recovery_metrics_count_bursts_and_lag() {
        use pc_trace_events::{Event, TRACE_SCHEMA_VERSION};
        let kinds = vec![
            TraceEvent::FaultInjected {
                id: 0,
                kind: "rate_shock".into(),
                pair: 0,
                core: u32::MAX,
                param: 3000,
                pool_available: u64::MAX,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Overflow,
                batch: 25,
                capacity: 25,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Overflow,
                batch: 25,
                capacity: 25,
            },
            TraceEvent::FaultRecovered {
                id: 0,
                kind: "rate_shock".into(),
                pair: 0,
                core: u32::MAX,
                param: 3000,
                pool_available: u64::MAX,
            },
            TraceEvent::Invoke {
                pair: 0,
                trigger: Trigger::Scheduled,
                batch: 10,
                capacity: 25,
            },
        ];
        let log = TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| Event {
                    seq: i as u64,
                    t_ns: i as u64 * 100,
                    kind,
                })
                .collect(),
            dropped: 0,
        };
        let m = recovery_metrics(&log);
        assert_eq!(m.faults_injected, 1);
        assert_eq!(m.faults_recovered, 1);
        assert_eq!(m.overflow_wakes, 2);
        assert_eq!(m.consec_overflow_wakes, 1);
        assert_eq!(m.scheduled_wakes, 1);
        assert_eq!(m.max_overflow_burst, 2);
        // Recovery at t=300, next scheduled invoke at t=400.
        assert_eq!(m.max_recovery_lag_ns, 100);
    }
}
