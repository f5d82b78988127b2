//! The sweep harness: recipe → runner → table.
//!
//! Every experiment in this crate is a *sweep*, and every sweep is one
//! entry of [`SWEEPS`]. An entry ([`SweepDef`]) expands the protocol
//! into dispatch [`Group`]s of [`Cell`]s; each cell carries an exact
//! point name (what `--filter` matches) and a prototype [`CellMeta`]
//! recipe — the same header a trace export carries. [`execute`] runs a
//! group's recipes through [`run_recipe`], the function `replay` also
//! re-executes exports with, so recording and replaying a cell are one
//! code path. The entry's [`Report`] turns the finished cells into its
//! stdout table and its `results/<sweep>.json`; the `sweep` binary
//! supplies the rest once for every sweep (arguments, trace export,
//! oracle loop, `BENCH_<sweep>.json` sidecar).
//!
//! The cells of a group are mutually independent simulations, so they
//! run on any number of worker threads — but the *output must not
//! depend on the thread count*. The engine guarantees that by
//! construction:
//!
//! * each entry expands its grid in a fixed, documented order (for the
//!   grid sweeps point-major, then strategy, then replicate);
//! * [`parallel_map`] hands cells to workers through an atomic cursor
//!   but stores every result in the slot of its *input* index, so the
//!   collected vector is identical whatever the completion order;
//! * each cell is a pure function of its recipe — the simulation
//!   itself is bit-deterministic per seed (see CLAUDE.md).
//!
//! The CI determinism gates run every sweep with `--threads 4` and
//! `--threads 1` and byte-compare the JSON output; any wall-clock or
//! thread-count leakage into results is a build failure, not a footnote.

use crate::exp::Protocol;
use crate::oracle::{strategy_period_ns, CellMeta};
use crate::replay::{planet_fleet, run_recipe, strategy_label};
use pc_core::{RunMetrics, StrategyKind};
use pc_trace::Trace;
use pc_trace_events::{TraceLog, DEFAULT_RECORDER_CAPACITY};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One (pairs, cores, buffer) grid point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GridPoint {
    /// Producer-consumer pairs (the paper's M).
    pub pairs: usize,
    /// Cores available to the consumers.
    pub cores: usize,
    /// Per-consumer buffer capacity (the paper's B).
    pub buffer: usize,
}

/// One independent unit of simulation work: a single replicate of a
/// single strategy at a single point.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Exact point name: what `--filter` matches and `--list` prints.
    /// Every replicate of a point shares it.
    pub point: String,
    /// The strategy under test. The recipe carries it as a label;
    /// `replay` rebuilds this exact value from that label, which
    /// `replay::tests::strategy_labels_roundtrip` checks for every cell
    /// of every sweep.
    pub strategy: StrategyKind,
    /// Prototype recipe: `events`, `dropped` and `digest` stay zero
    /// until the cell has run.
    pub recipe: CellMeta,
}

impl Cell {
    /// Replicate `replicate` of `strategy` at `point` under `protocol`,
    /// on the named `workload`, recorded as part of `experiment`. The
    /// point name defaults to the experiment name and the recipe names
    /// no fault scenario; a sweep sets either field when it needs to.
    pub fn new(
        protocol: &Protocol,
        experiment: String,
        workload: &str,
        strategy: StrategyKind,
        overload: bool,
        point: GridPoint,
        replicate: usize,
    ) -> Cell {
        let recipe = CellMeta {
            experiment: experiment.clone(),
            strategy: strategy_label(&strategy, overload),
            pairs: point.pairs as u64,
            cores: point.cores as u64,
            buffer: point.buffer as u64,
            seed: protocol.base_seed + replicate as u64,
            duration_ns: protocol.duration.as_nanos(),
            workload: workload.to_string(),
            scenario: String::new(),
            period_ns: strategy_period_ns(&strategy),
            events: 0,
            dropped: 0,
            digest: 0,
        };
        Cell {
            point: experiment,
            strategy,
            recipe,
        }
    }
}

/// Cells dispatched together, in the sweep's canonical order: one
/// suite experiment, one scale point, or a whole single-group sweep.
/// Fleet generation and dispatch are timed per group.
#[derive(Debug)]
pub struct Group {
    /// Group name (the sidecar's per-group timing key).
    pub name: String,
    /// The group's cells.
    pub cells: Vec<Cell>,
}

/// One finished cell.
#[derive(Debug)]
pub struct CellRun {
    /// The recipe, its `events`/`dropped`/`digest` completed from the
    /// recording when the cell was recorded.
    pub meta: CellMeta,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// The recording, when one was asked for.
    pub log: Option<TraceLog>,
}

/// A sweep's result rows: fed one finished group at a time, it prints
/// the group's stdout table and keeps the rows for the results file.
pub trait Report {
    /// Adds one finished group; `runs[i]` is `group.cells[i]`'s run.
    fn add(&mut self, protocol: &Protocol, group: &Group, runs: &[CellRun]);
    /// Writes `results/<sweep>.json`.
    fn save(&self, protocol: &Protocol);
}

/// One sweep: a table entry of [`SWEEPS`].
pub struct SweepDef {
    /// The name the `sweep` binary takes; also the stem of its results,
    /// trace export and sidecar files.
    pub name: &'static str,
    /// One line for `--help`.
    pub about: &'static str,
    /// Default horizon, milliseconds (`PC_DURATION_MS` overrides).
    pub duration_ms: u64,
    /// Default replicates (`PC_REPLICATES` overrides).
    pub replicates: usize,
    /// Whether every cell is recorded and oracle-checked even without
    /// `--trace` (the sweep's rows come from the trace).
    pub always_traced: bool,
    /// Whether the sweep takes `--shards` / `PC_SHARDS`.
    pub sharded: bool,
    /// Key the sidecar lists per-group timings under, or `None` for a
    /// single-group sweep whose group timing sits at the top level.
    pub timings_key: Option<&'static str>,
    /// Expands the protocol into dispatch groups.
    pub expand: fn(&Protocol) -> Vec<Group>,
    /// A fresh, empty report.
    pub report: fn() -> Box<dyn Report>,
}

/// Every sweep, in `--help` order. A new sweep or scenario costs one
/// entry here (plus its expansion and report).
pub static SWEEPS: [SweepDef; 4] = [
    SweepDef {
        name: "suite",
        about: "every paper figure/table experiment (point = experiment name)",
        duration_ms: 50_000,
        replicates: 3,
        always_traced: false,
        sharded: false,
        timings_key: Some("experiments"),
        expand: crate::suite::expand,
        report: crate::suite::report,
    },
    SweepDef {
        name: "chaos",
        about: "every fault scenario x strategy panel (point = scenario/strategy)",
        duration_ms: 50_000,
        replicates: 3,
        always_traced: true,
        sharded: false,
        timings_key: None,
        expand: crate::chaos::expand,
        report: crate::chaos::report,
    },
    SweepDef {
        name: "scale",
        about: "planet fleet at M in {10, 100, 1000} (point = m10 | m100 | m1000)",
        duration_ms: 10_000,
        replicates: 1,
        always_traced: false,
        sharded: true,
        timings_key: Some("points"),
        expand: crate::scale::expand,
        report: crate::scale::report,
    },
    SweepDef {
        name: "overload",
        about: "overload panel x scenarios, plus the planet m100 flash crowd \
                (point = scenario/strategy, scenario@m100/strategy)",
        duration_ms: 50_000,
        replicates: 3,
        always_traced: true,
        sharded: false,
        timings_key: None,
        expand: crate::overload::expand,
        report: crate::overload::report,
    },
];

/// The sweep called `name`.
pub fn sweep_by_name(name: &str) -> Option<&'static SweepDef> {
    SWEEPS.iter().find(|def| def.name == name)
}

/// Worker-thread count: `PC_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn threads_from_env() -> usize {
    std::env::var("PC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning results in *input* order regardless of completion order.
///
/// Workers claim items through an atomic cursor (dynamic load balance —
/// sim cells vary widely in cost) and write each result into the slot
/// of the item that produced it. With `threads <= 1` the loop runs on
/// the calling thread; either way the output is identical as long as
/// `f` is pure.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let costs = vec![0u64; items.len()];
    parallel_map_costed(items, threads, &costs, f).0
}

/// Host-dependent telemetry from one [`parallel_map_costed`] dispatch.
/// Strictly `BENCH_*.json` sidecar material — wall-clock lives here and
/// must never reach a deterministic results file.
#[derive(Debug, Clone, Serialize)]
pub struct DispatchStats {
    /// Worker threads actually used (after clamping to the item count).
    pub threads: usize,
    /// Per-worker busy time (summed cell runtimes), milliseconds.
    pub worker_busy_ms: Vec<u64>,
    /// Per-item wall time in *input* order, milliseconds.
    pub cell_wall_ms: Vec<u64>,
}

impl DispatchStats {
    /// Share of the dispatch interval the workers spent busy:
    /// Σ busy / (threads × wall). 1.0 means no worker ever idled; a low
    /// value on a multi-thread run means stragglers serialised the tail.
    pub fn utilization(&self, wall_ms: u64) -> f64 {
        if wall_ms == 0 || self.threads == 0 {
            return 0.0;
        }
        let busy: u64 = self.worker_busy_ms.iter().sum();
        busy as f64 / (wall_ms as f64 * self.threads as f64)
    }
}

/// [`parallel_map`] with cost-aware dispatch: items are claimed in
/// descending `costs[i]` order (LPT — longest processing time first), so
/// an expensive cell starts immediately instead of being picked up last
/// and straggling the whole dispatch. Ties keep input order; results are
/// still written to input-index slots, so the output vector — and every
/// deterministic artifact downstream of it — is byte-identical to the
/// unweighted dispatch for any thread count. Cost estimates only shape
/// the *claim order* (and therefore wall-clock), never results.
pub fn parallel_map_costed<T, R, F>(
    items: &[T],
    threads: usize,
    costs: &[u64],
    f: F,
) -> (Vec<R>, DispatchStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert_eq!(items.len(), costs.len(), "one cost estimate per item");
    let threads = threads.clamp(1, items.len().max(1));
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));

    if threads == 1 {
        let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let mut cell_wall_ms = vec![0u64; items.len()];
        let mut busy_ns = 0u64;
        for &i in &order {
            let t0 = Instant::now();
            results[i] = Some(f(&items[i]));
            let elapsed = t0.elapsed();
            busy_ns += elapsed.as_nanos() as u64;
            cell_wall_ms[i] = elapsed.as_millis() as u64;
        }
        let stats = DispatchStats {
            threads: 1,
            worker_busy_ms: vec![busy_ns / 1_000_000],
            cell_wall_ms,
        };
        return (
            results
                .into_iter()
                .map(|r| r.expect("serial loop filled every slot"))
                .collect(),
            stats,
        );
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, u64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let mut worker_busy_ms = vec![0u64; threads];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut busy_ns = 0u64;
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= order.len() {
                            break busy_ns;
                        }
                        let i = order[k];
                        let t0 = Instant::now();
                        let result = f(&items[i]);
                        let elapsed = t0.elapsed();
                        busy_ns += elapsed.as_nanos() as u64;
                        *slots[i].lock().expect("result slot poisoned") =
                            Some((result, elapsed.as_millis() as u64));
                    }
                })
            })
            .collect();
        for (w, handle) in workers.into_iter().enumerate() {
            worker_busy_ms[w] = handle.join().expect("worker panicked") / 1_000_000;
        }
    });
    let mut cell_wall_ms = vec![0u64; items.len()];
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let (result, wall) = slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot");
            cell_wall_ms[i] = wall;
            result
        })
        .collect();
    (
        results,
        DispatchStats {
            threads,
            worker_busy_ms,
            cell_wall_ms,
        },
    )
}

/// Per-cell recorder bound for traced runs: `PC_TRACE_CAP` if set to a
/// positive integer, else [`DEFAULT_RECORDER_CAPACITY`].
pub fn trace_capacity_from_env() -> usize {
    std::env::var("PC_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(DEFAULT_RECORDER_CAPACITY)
}

/// Shared pre-generated planet fleets, keyed by what a fleet is a
/// function of: workload name, pairs, seed and horizon.
pub type FleetMap = BTreeMap<(String, u64, u64, u64), Arc<Vec<Trace>>>;

fn fleet_key(recipe: &CellMeta) -> (String, u64, u64, u64) {
    (
        recipe.workload.clone(),
        recipe.pairs,
        recipe.seed,
        recipe.duration_ns,
    )
}

/// Pre-generates, in parallel, the planet fleet of every planet recipe
/// among `cells` — once per distinct fleet, so cells that differ only
/// in strategy share it. World-Cup recipes need none (their builder
/// generates its own traces).
///
/// Call this *outside* any timed region: fleet generation is workload
/// synthesis, not simulation, and letting it leak into a group's wall
/// clock misattributes it to whichever cell runs first (the sidecar's
/// `fleet_gen_ms` records the real cost).
pub fn fleets(cells: &[Cell], threads: usize) -> FleetMap {
    let mut firsts: BTreeMap<(String, u64, u64, u64), &CellMeta> = BTreeMap::new();
    for cell in cells {
        firsts
            .entry(fleet_key(&cell.recipe))
            .or_insert(&cell.recipe);
    }
    let wanted: Vec<_> = firsts.into_iter().collect();
    let generated = parallel_map(&wanted, threads, |(_, recipe)| planet_fleet(recipe));
    wanted
        .into_iter()
        .zip(generated)
        .filter_map(|((key, _), fleet)| Some((key, Arc::new(fleet?))))
        .collect()
}

/// Runs `cells` on `threads` workers through [`run_recipe`] and returns
/// each finished cell in cell order, whatever the thread count. A
/// planet recipe runs on its fleet from `fleets` when there is one;
/// `shards` is the inert coordination-shard count; with `record`, each
/// cell records into its own bounded recorder and comes back with its
/// header completed from the recording.
///
/// Dispatch is cost-aware (LPT): horizon × M ranks an m1000 cell far
/// above an m10 cell, so the largest cells are claimed first instead of
/// straggling. The [`DispatchStats`] are sidecar-only.
pub fn execute(
    cells: &[Cell],
    fleets: &FleetMap,
    threads: usize,
    shards: usize,
    record: bool,
) -> (Vec<Result<CellRun, String>>, DispatchStats) {
    let costs: Vec<u64> = cells
        .iter()
        .map(|cell| cell.recipe.duration_ns.saturating_mul(cell.recipe.pairs))
        .collect();
    parallel_map_costed(cells, threads, &costs, |cell| {
        let fleet = fleets.get(&fleet_key(&cell.recipe)).cloned();
        let (metrics, log) = run_recipe(&cell.recipe, cell.strategy.clone(), fleet, shards, record)
            .map_err(|e| format!("{}: {e}", cell.recipe.label()))?;
        let mut meta = cell.recipe.clone();
        if let Some(log) = &log {
            meta.events = log.events.len() as u64;
            meta.dropped = log.dropped;
            meta.digest = log.digest();
        }
        Ok(CellRun { meta, metrics, log })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_sim::SimDuration;
    use pc_trace::WorldCupConfig;

    fn tiny_protocol(threads: usize) -> Protocol {
        Protocol {
            duration: SimDuration::from_millis(40),
            replicates: 2,
            base_seed: 7,
            trace: WorldCupConfig::quick_test(),
            threads,
        }
    }

    fn tiny_cells(protocol: &Protocol) -> Vec<Cell> {
        let point = GridPoint {
            pairs: 2,
            cores: 2,
            buffer: 25,
        };
        let mut cells = Vec::new();
        for strategy in [StrategyKind::Mutex, StrategyKind::pbpl_default()] {
            for replicate in 0..protocol.replicates {
                cells.push(Cell::new(
                    protocol,
                    "tiny".to_string(),
                    "worldcup_quick",
                    strategy.clone(),
                    false,
                    point,
                    replicate,
                ));
            }
        }
        cells
    }

    fn run(protocol: &Protocol, record: bool) -> Vec<CellRun> {
        let cells = tiny_cells(protocol);
        let (runs, _) = execute(&cells, &FleetMap::new(), protocol.threads, 1, record);
        runs.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn every_sweep_is_reachable_by_name() {
        for def in &SWEEPS {
            assert!(std::ptr::eq(sweep_by_name(def.name).unwrap(), def));
        }
        assert!(sweep_by_name("nope").is_none());
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Degenerate shapes.
        assert!(parallel_map(&Vec::<usize>::new(), 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[41usize], 16, |&x| x + 1), vec![42]);
    }

    #[test]
    fn thread_count_does_not_change_energy_bits() {
        let serial = run(&tiny_protocol(1), false);
        let parallel = run(&tiny_protocol(4), false);
        assert_eq!(serial.len(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(
                a.metrics.energy.energy_j.to_bits(),
                b.metrics.energy.energy_j.to_bits()
            );
            assert_eq!(a.metrics.items_consumed, b.metrics.items_consumed);
            assert_eq!(a.metrics.slot_fires, b.metrics.slot_fires);
        }
    }

    #[test]
    fn recording_completes_the_header_and_changes_no_metric() {
        let plain = run(&tiny_protocol(2), false);
        let recorded = run(&tiny_protocol(2), true);
        for (a, b) in plain.iter().zip(&recorded) {
            assert!(a.log.is_none() && a.meta.digest == 0);
            let log = b.log.as_ref().unwrap();
            assert_eq!(b.meta.events, log.events.len() as u64);
            assert_eq!(b.meta.digest, log.digest());
            assert_eq!(
                a.metrics.energy.energy_j.to_bits(),
                b.metrics.energy.energy_j.to_bits()
            );
        }
    }

    #[test]
    fn protocol_run_goes_through_the_engine_unchanged() {
        // Protocol::run is a one-point, one-strategy sweep; its results
        // must match running the cell directly.
        let p = tiny_protocol(2);
        let runs = p.run(StrategyKind::Bp, 2, 2, 25);
        assert_eq!(runs.len(), 2);
        let cell = Cell::new(
            &p,
            String::new(),
            "worldcup_quick",
            StrategyKind::Bp,
            false,
            GridPoint {
                pairs: 2,
                cores: 2,
                buffer: 25,
            },
            1,
        );
        let (direct, _) = run_recipe(&cell.recipe, cell.strategy, None, 1, false).unwrap();
        assert_eq!(
            runs[1].energy.energy_j.to_bits(),
            direct.energy.energy_j.to_bits()
        );
    }
}
