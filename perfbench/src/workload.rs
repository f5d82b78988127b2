//! The three workloads and one pass over each: set-up, then every cell
//! run, checked and (where the workload verifies) recorded, digested,
//! oracle-checked, exported and replayed. Each layer is timed from
//! outside, around the call into its public function.

use crate::alloc;
use crate::spans::Clock;
use pc_bench::exp::{evaluated_strategies, Protocol};
use pc_bench::oracle::{self, CellMeta, TraceLine};
use pc_bench::overload::{
    overload_cell_name, overload_cells, overload_plan, planet_workload, OverloadCellSpec,
    OverloadPoint,
};
use pc_bench::replay;
use pc_core::{Experiment, OverloadConfig, RunMetrics, StrategyKind};
use pc_faults::FaultPlan;
use pc_sim::{SimDuration, SimTime};
use pc_trace::{PlanetConfig, Trace, WorldCupConfig};
use pc_trace_events::{Recorder, TraceLog, DEFAULT_RECORDER_CAPACITY};
use std::hint::black_box;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The planet fleet at M = 1000 on 100 cores, four strategies,
    /// recording off: the simulator alone.
    FleetM1000,
    /// The planet fleet at M = 100 on 10 cores, four strategies, each
    /// cell recorded and put through the whole trust pipeline.
    VerifyM100,
    /// The overload sweep's PBPL rows at one seed, recorded, digested
    /// and oracle-checked as the sweep does.
    Overload,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "fleet_m1000" => Some(Workload::FleetM1000),
            "verify_m100" => Some(Workload::VerifyM100),
            "overload" => Some(Workload::Overload),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetM1000 => "fleet_m1000",
            Workload::VerifyM100 => "verify_m100",
            Workload::Overload => "overload",
        }
    }

    /// Shorter than the scale sweep's 10 s for the fleet workloads, so
    /// that one run holds several passes on a noisy host; the planet
    /// workload stretches its diurnal cycle over any horizon. The
    /// overload sweep's own 50 s, at which its `flash_crowd@m100` cell
    /// outgrows the recorder bound.
    fn horizon(self) -> SimDuration {
        match self {
            Workload::FleetM1000 => SimDuration::from_secs(5),
            Workload::VerifyM100 => SimDuration::from_millis(2500),
            Workload::Overload => SimDuration::from_secs(50),
        }
    }

    fn records(self) -> bool {
        self != Workload::FleetM1000
    }
}

/// One cell: a strategy on a geometry, one operation of the benchmark.
pub struct Cell {
    pub label: String,
    strategy: StrategyKind,
    overload: bool,
    pub pairs: usize,
    pub cores: usize,
    pub buffer: usize,
    shards: usize,
    /// Runs on the planet fleet; otherwise on the World-Cup workload the
    /// builder generates inside `run`.
    on_fleet: bool,
    /// The overload sweep's spec, whose fault plan the cell runs under.
    spec: Option<OverloadCellSpec>,
}

impl Cell {
    fn is_pbpl(&self) -> bool {
        matches!(self.strategy, StrategyKind::Pbpl(_))
    }
}

/// The workload's cells and the parameters they share.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub horizon: SimDuration,
    pub cells: Vec<Cell>,
    /// Pairs of the planet fleet the set-up generates, if any.
    fleet_pairs: Option<usize>,
    protocol: Protocol,
    planet: PlanetConfig,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let horizon = workload.horizon();
        let protocol = Protocol {
            duration: horizon,
            replicates: 1,
            base_seed: seed,
            trace: WorldCupConfig::paper_default(),
            threads: 1,
        };
        let mut planet = PlanetConfig::scale_default();
        planet.base.horizon = SimTime::ZERO + horizon;
        let (cells, fleet_pairs) = match workload {
            Workload::FleetM1000 => (scale_cells(1000, 100), Some(1000)),
            Workload::VerifyM100 => (scale_cells(100, 10), Some(100)),
            Workload::Overload => {
                // The PBPL and PBPL(overload) rows of every M = 5
                // scenario, plus the fleet-scale flash-crowd cell.
                let cells: Vec<Cell> = overload_cells(1)
                    .into_iter()
                    .filter(|c| {
                        c.strategy == StrategyKind::pbpl_default()
                            && (c.point == OverloadPoint::Chaos || c.overload)
                    })
                    .map(|spec| {
                        let grid = spec.point.grid();
                        Cell {
                            label: overload_cell_name(&spec),
                            strategy: spec.strategy.clone(),
                            overload: spec.overload,
                            pairs: grid.pairs,
                            cores: grid.cores,
                            buffer: grid.buffer,
                            shards: 1,
                            on_fleet: spec.point == OverloadPoint::PlanetM100,
                            spec: Some(spec),
                        }
                    })
                    .collect();
                // The overload sweep's own fleet config for its m100 cell.
                planet = planet_workload(&protocol);
                (cells, Some(100))
            }
        };
        Plan {
            workload,
            seed,
            horizon,
            cells,
            fleet_pairs,
            protocol,
            planet,
        }
    }

    /// Display names of the strategies the cells run, in first-seen
    /// order.
    pub fn strategies(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for cell in &self.cells {
            let name = if cell.overload {
                format!("{}(overload)", cell.strategy.name())
            } else {
                cell.strategy.name().to_string()
            };
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    }
}

/// The scale sweep's cells at one point: the four §VI strategies on the
/// fleet, B₀ = 25, with the scale sweep's default eight shards.
fn scale_cells(pairs: usize, cores: usize) -> Vec<Cell> {
    evaluated_strategies()
        .into_iter()
        .map(|strategy| Cell {
            label: format!("m{pairs}/{}", strategy.name()),
            strategy,
            overload: false,
            pairs,
            cores,
            buffer: 25,
            shards: 8,
            on_fleet: true,
            spec: None,
        })
        .collect()
}

/// What the set-up hands to the cells.
struct Inputs {
    fleet: Option<Arc<Vec<Trace>>>,
    /// Per cell; empty for fault-free cells.
    plans: Vec<FaultPlan>,
}

/// Everything one pass measured. Times are seconds.
#[derive(Default)]
pub struct Pass {
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    /// One line per failed cell: its label and every check it failed.
    pub failures: Vec<String>,
    /// Cells whose outputs a check showed to be wrong, as opposed to
    /// cells that could not be verified.
    pub wrong: u64,
    pub items_produced: u64,
    pub model: Model,
    pub layers: Layers,
    /// Per cell: seconds of the recorded `run`, for the record probe.
    recorded_run_s: Vec<Option<f64>>,
}

/// Modelled (simulated) results over the PBPL cells. They depend on
/// the seed alone, never on the host.
#[derive(Default)]
pub struct Model {
    pbpl_cells: u64,
    power_mw_sum: f64,
    wakeups_per_s_sum: f64,
    /// (latency ns, items the sample stands for) of the PBPL cells
    /// without overload control, and of those with it.
    latency: Vec<(u64, f64)>,
    overload_latency: Vec<(u64, f64)>,
    overload_produced: u64,
    overload_missed: u64,
}

impl Model {
    fn add(&mut self, cell: &Cell, m: &RunMetrics) {
        if !cell.is_pbpl() {
            return;
        }
        self.pbpl_cells += 1;
        self.power_mw_sum += m.extra_power_mw();
        self.wakeups_per_s_sum += m.wakeups_per_sec();
        let latency = if cell.overload {
            self.overload_produced += m.items_produced;
            self.overload_missed += m.items_shed + m.deadline_misses();
            &mut self.overload_latency
        } else {
            &mut self.latency
        };
        // Each pair keeps a strided reservoir of its latencies; a kept
        // sample stands for consumed / kept items of its pair.
        for pair in &m.pairs {
            let kept = pair.latency_sample_ns.len();
            if kept > 0 {
                let weight = pair.items_consumed as f64 / kept as f64;
                latency.extend(pair.latency_sample_ns.iter().map(|&ns| (ns, weight)));
            }
        }
    }

    pub fn power_mw(&self) -> f64 {
        self.power_mw_sum / self.pbpl_cells as f64
    }

    pub fn wakeups_per_s(&self) -> f64 {
        self.wakeups_per_s_sum / self.pbpl_cells as f64
    }

    /// The latency samples of the workload's headline cells: the
    /// PBPL(overload) cells where there are any, else the PBPL cells.
    /// Over every PBPL cell of `overload`, the p99 lands on the edge of
    /// the seconds-long tail of `flash_crowd/PBPL` and jumps between
    /// 53 and 135 ms from seed to seed.
    fn headline_latency(&self) -> &[(u64, f64)] {
        if self.overload_latency.is_empty() {
            &self.latency
        } else {
            &self.overload_latency
        }
    }

    /// p99 of the headline item latencies, in ms, with every sample
    /// weighted by the items it stands for.
    pub fn latency_p99_ms(&self) -> f64 {
        let mut samples = self.headline_latency().to_vec();
        samples.sort_by_key(|&(ns, _)| ns);
        let total: f64 = samples.iter().map(|&(_, w)| w).sum();
        let mut seen = 0.0;
        for &(ns, w) in &samples {
            seen += w;
            if seen >= 0.99 * total {
                return ns as f64 * 1e-6;
            }
        }
        samples.last().map_or(0.0, |&(ns, _)| ns as f64 * 1e-6)
    }

    pub fn latency_samples(&self) -> usize {
        self.headline_latency().len()
    }

    pub fn latency_items(&self) -> f64 {
        self.headline_latency().iter().map(|&(_, w)| w).sum()
    }

    /// Shed items plus deadline misses over items produced, across the
    /// PBPL(overload) cells; 0 where the workload has none.
    pub fn miss_frac(&self) -> f64 {
        ratio(self.overload_missed as f64, self.overload_produced as f64)
    }
}

/// Per-layer totals of one pass.
#[derive(Default)]
pub struct Layers {
    trace_gen_s: f64,
    trace_arrivals: u64,
    faults_plan_s: f64,
    faults_planned: u64,
    run_s: f64,
    cell_s_max: f64,
    run_allocs: u64,
    wheel_scheduled: u64,
    wheel_cancelled: u64,
    wheel_popped: u64,
    wheel_cascades: u64,
    arrivals_popped: u64,
    pending_at_teardown: u64,
    slot_fires: u64,
    scheduled_wakeups: u64,
    overflow_wakeups: u64,
    items_shed: u64,
    deadline_misses: u64,
    overload_windows: u64,
    power_wakeups: u64,
    usage_ms_per_s_sum: f64,
    mean_capacity_sum: f64,
    cells: u64,
    record_s: f64,
    recorded: u64,
    dropped: u64,
    digest_s: f64,
    check_s: f64,
    violations: u64,
    to_json_s: f64,
    export_bytes: u64,
    exported_events: u64,
    to_json_allocs: u64,
    parse_s: f64,
    rerun_s: f64,
    compare_s: f64,
    divergences: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Layers {
    fn add_run(&mut self, m: &RunMetrics, run_s: f64, allocs: u64) {
        let q = &m.scheduler;
        self.run_s += run_s;
        self.cell_s_max = self.cell_s_max.max(run_s);
        self.run_allocs += allocs;
        self.wheel_scheduled += q.scheduled;
        self.wheel_cancelled += q.cancelled;
        self.wheel_popped += q.popped;
        self.wheel_cascades += q.cascades;
        self.arrivals_popped += q.arrivals_popped;
        self.pending_at_teardown += q.pending_at_teardown;
        self.slot_fires += m.slot_fires;
        self.scheduled_wakeups += m.scheduled_wakeups();
        self.overflow_wakeups += m.overflow_wakeups();
        self.items_shed += m.items_shed;
        self.deadline_misses += m.deadline_misses();
        self.overload_windows += m.pairs.iter().map(|p| p.overload_windows).sum::<u64>();
        self.power_wakeups += m.energy.wakeups;
        self.usage_ms_per_s_sum += m.usage_ms_per_sec();
        self.mean_capacity_sum += m.mean_capacity();
        self.cells += 1;
    }

    /// Every per-layer metric but `bench.span_overhead_frac`, by name.
    /// A ratio whose denominator is empty (the layer did no work on
    /// this workload) reads 0.
    pub fn metrics(&self, items_produced: u64, model: &Model) -> Vec<(&'static str, f64)> {
        let events = (self.wheel_popped + self.arrivals_popped) as f64;
        let cells = self.cells as f64;
        vec![
            ("trace.gen_s", self.trace_gen_s),
            ("trace.arrivals", self.trace_arrivals as f64),
            ("faults.plan_s", self.faults_plan_s),
            ("faults.planned", self.faults_planned as f64),
            ("system.run_s", self.run_s),
            ("system.cell_s_max", self.cell_s_max),
            ("system.ns_per_event", ratio(self.run_s * 1e9, events)),
            (
                "system.allocs_per_item",
                ratio(self.run_allocs as f64, items_produced as f64),
            ),
            ("sim.wheel_scheduled", self.wheel_scheduled as f64),
            ("sim.wheel_cancelled", self.wheel_cancelled as f64),
            ("sim.wheel_popped", self.wheel_popped as f64),
            ("sim.wheel_cascades", self.wheel_cascades as f64),
            ("sim.arrivals_popped", self.arrivals_popped as f64),
            ("sim.pending_at_teardown", self.pending_at_teardown as f64),
            ("core.slot_fires", self.slot_fires as f64),
            ("core.scheduled_wakeups", self.scheduled_wakeups as f64),
            ("core.overflow_wakeups", self.overflow_wakeups as f64),
            ("core.items_shed", self.items_shed as f64),
            ("core.deadline_misses", self.deadline_misses as f64),
            ("core.overload_windows", self.overload_windows as f64),
            ("power.wakeups", self.power_wakeups as f64),
            (
                "power.usage_ms_per_s",
                ratio(self.usage_ms_per_s_sum, cells),
            ),
            ("queues.mean_capacity", ratio(self.mean_capacity_sum, cells)),
            ("trace_events.record_s", self.record_s),
            ("trace_events.recorded", self.recorded as f64),
            ("trace_events.dropped", self.dropped as f64),
            ("trace_events.digest_s", self.digest_s),
            (
                "trace_events.digest_ns_per_event",
                ratio(self.digest_s * 1e9, self.recorded as f64),
            ),
            ("oracle.check_s", self.check_s),
            (
                "oracle.ns_per_event",
                ratio(self.check_s * 1e9, self.recorded as f64),
            ),
            ("oracle.violations", self.violations as f64),
            ("oracle.to_json_s", self.to_json_s),
            ("oracle.export_bytes", self.export_bytes as f64),
            (
                "oracle.to_json_allocs_per_event",
                ratio(self.to_json_allocs as f64, self.exported_events as f64),
            ),
            ("replay.parse_s", self.parse_s),
            ("replay.rerun_s", self.rerun_s),
            ("replay.compare_s", self.compare_s),
            ("replay.divergences", self.divergences as f64),
            ("model_miss_frac", model.miss_frac()),
        ]
    }
}

fn setup(plan: &Plan, clock: &mut Clock, layers: &mut Layers) -> Inputs {
    let (inputs, _) = clock.time("bench.setup", None, |clock| {
        let fleet = plan.fleet_pairs.map(|pairs| {
            let (fleet, s) =
                clock.time("trace.gen", None, |_| plan.planet.traces(plan.seed, pairs));
            layers.trace_gen_s += s;
            layers.trace_arrivals += fleet.iter().map(|t| t.len() as u64).sum::<u64>();
            Arc::new(fleet)
        });
        let plans = plan
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| match &cell.spec {
                Some(spec) => {
                    let (faults, s) = clock.time("faults.plan", Some(i), |_| {
                        overload_plan(&plan.protocol, spec)
                    });
                    layers.faults_plan_s += s;
                    layers.faults_planned += faults.len() as u64;
                    faults
                }
                None => FaultPlan::empty(),
            })
            .collect();
        Inputs { fleet, plans }
    });
    inputs
}

fn run_cell(
    plan: &Plan,
    cell: &Cell,
    inputs: &Inputs,
    faults: FaultPlan,
    recorder: Option<&Arc<Recorder>>,
) -> RunMetrics {
    let mut builder = Experiment::builder()
        .pairs(cell.pairs)
        .cores(cell.cores)
        .duration(plan.horizon)
        .strategy(cell.strategy.clone())
        .seed(plan.seed)
        .buffer_capacity(cell.buffer)
        .shards(cell.shards)
        .faults(faults);
    builder = if cell.on_fleet {
        let fleet = inputs.fleet.as_ref().expect("fleet cells get a fleet");
        builder.shared_traces(Arc::clone(fleet))
    } else {
        builder.trace(plan.protocol.trace.clone())
    };
    if cell.overload {
        builder = builder.overload(OverloadConfig::standard());
    }
    if let Some(recorder) = recorder {
        builder = builder.record_events(recorder.handle());
    }
    builder.run()
}

/// Runs one pass of the plan. `setup_reps` set-ups are timed for
/// `setup_s`; all but the last happen before the wall clock starts.
/// `export` is the temporary JSONL file of a verifying workload.
pub fn run_pass(
    plan: &Plan,
    clock: &mut Clock,
    setup_reps: usize,
    export: &Path,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for _ in 1..setup_reps {
        let mut scratch = Layers::default();
        let (inputs, s) = clock.time("bench.setup_probe", None, |clock| {
            setup(plan, clock, &mut scratch)
        });
        drop(black_box(inputs));
        pass.setup_s.push(s);
    }
    let root = match plan.workload {
        Workload::FleetM1000 => "bench.fleet_m1000",
        Workload::VerifyM100 => "bench.verify_m100",
        Workload::Overload => "bench.overload",
    };
    let (result, wall_s) = clock.time(root, None, |clock| {
        run_cells(plan, clock, &mut pass, export)
    });
    result?;
    pass.wall_s = wall_s;
    Ok(pass)
}

fn run_cells(plan: &Plan, clock: &mut Clock, pass: &mut Pass, export: &Path) -> Result<(), String> {
    let started = std::time::Instant::now();
    let inputs = setup(plan, clock, &mut pass.layers);
    pass.setup_s.push(started.elapsed().as_secs_f64());

    let verify = plan.workload == Workload::VerifyM100;
    let mut out = if verify {
        let file = std::fs::File::create(export)
            .map_err(|e| format!("cannot create {}: {e}", export.display()))?;
        Some(std::io::BufWriter::new(file))
    } else {
        None
    };
    let workload_label = replay::planet_workload_label(&plan.planet)
        .ok_or("the planet config matches no replayable workload")?;

    let mut problems: Vec<Vec<String>> = Vec::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        let mut problem = Vec::new();
        let faults = inputs.plans[i].clone();
        let wrong = clock.time("bench.cell", Some(i), |clock| -> Result<bool, String> {
            let recorder = plan
                .workload
                .records()
                .then(|| Recorder::bounded(DEFAULT_RECORDER_CAPACITY));
            let ((m, allocs), run_s) = clock.time("system.run", Some(i), |_| {
                alloc::counted(|| run_cell(plan, cell, &inputs, faults, recorder.as_ref()))
            });
            pass.layers.add_run(&m, run_s, allocs);
            pass.items_produced += m.items_produced;
            pass.model.add(cell, &m);
            let mut wrong = false;
            if !m.all_items_consumed() {
                problem.push(format!(
                    "produced {} != consumed {} + shed {}",
                    m.items_produced, m.items_consumed, m.items_shed
                ));
                wrong = true;
            }
            if !m.scheduler.ledger_balanced() {
                problem.push(format!(
                    "scheduler ledger out of balance: {:?}",
                    m.scheduler
                ));
                wrong = true;
            }
            let Some(recorder) = recorder else {
                pass.recorded_run_s.push(None);
                return Ok(wrong);
            };
            pass.recorded_run_s.push(Some(run_s));
            let (log, _) = clock.time("trace_events.take", Some(i), |_| recorder.take());
            let (digest, s) = clock.time("trace_events.digest", Some(i), |_| log.digest());
            pass.layers.digest_s += s;
            pass.layers.recorded += log.events.len() as u64;
            pass.layers.dropped += log.dropped;
            let (report, s) = clock.time("oracle.check", Some(i), |_| oracle::check(&log));
            pass.layers.check_s += s;
            pass.layers.violations += report.violations.len() as u64;
            if log.dropped > 0 {
                // A truncated stream cannot be verified; the oracle's
                // findings on it say nothing about the run itself.
                problem.push(format!(
                    "recorder dropped {} events, oracle unverifiable ({} violations)",
                    log.dropped,
                    report.violations.len()
                ));
            } else if !report.is_clean() {
                problem.push(format!(
                    "oracle: {} violations, first: {}",
                    report.violations.len(),
                    report.violations[0]
                ));
                wrong = true;
            }
            if let Some(out) = out.as_mut() {
                let meta = CellMeta {
                    experiment: format!("scale_m{}", cell.pairs),
                    strategy: cell.strategy.name().to_string(),
                    pairs: cell.pairs as u64,
                    cores: cell.cores as u64,
                    buffer: cell.buffer as u64,
                    seed: plan.seed,
                    duration_ns: plan.horizon.as_nanos(),
                    workload: workload_label.to_string(),
                    scenario: String::new(),
                    period_ns: oracle::strategy_period_ns(&cell.strategy),
                    events: log.events.len() as u64,
                    dropped: log.dropped,
                    digest,
                };
                let ((written, allocs), s) = clock.time("oracle.to_json", Some(i), |_| {
                    alloc::counted(|| write_cell(out, meta, &log))
                });
                pass.layers.to_json_s += s;
                pass.layers.to_json_allocs += allocs;
                pass.layers.export_bytes +=
                    written.map_err(|e| format!("cannot write {}: {e}", export.display()))?;
                pass.layers.exported_events += log.events.len() as u64;
            } else {
                black_box(digest);
            }
            Ok(wrong)
        });
        pass.wrong += u64::from(wrong.0?);
        problems.push(problem);
    }

    if let Some(out) = out {
        out.into_inner()
            .map_err(|e| format!("cannot write {}: {e}", export.display()))?;
        replay_export(plan, clock, pass, export, &mut problems)?;
    }

    pass.attempted = plan.cells.len() as u64;
    for (cell, problem) in plan.cells.iter().zip(problems) {
        if !problem.is_empty() {
            pass.failures
                .push(format!("{}: {}", cell.label, problem.join("; ")));
        }
    }
    Ok(())
}

/// Writes one cell of the JSONL export; returns the bytes written.
fn write_cell(out: &mut impl Write, meta: CellMeta, log: &TraceLog) -> std::io::Result<u64> {
    let mut bytes = 0u64;
    let mut line = |text: String| -> std::io::Result<()> {
        out.write_all(text.as_bytes())?;
        out.write_all(b"\n")?;
        bytes += text.len() as u64 + 1;
        Ok(())
    };
    line(oracle::line_to_json(&TraceLine::Cell(meta)))?;
    for ev in &log.events {
        line(oracle::line_to_json(&TraceLine::Ev(ev.clone())))?;
    }
    Ok(bytes)
}

/// Parses the export back and re-executes every cell from its header,
/// comparing event by event. `problems` is indexed like the cells.
fn replay_export(
    plan: &Plan,
    clock: &mut Clock,
    pass: &mut Pass,
    export: &Path,
    problems: &mut [Vec<String>],
) -> Result<(), String> {
    let file = std::fs::File::open(export)
        .map_err(|e| format!("cannot open {}: {e}", export.display()))?;
    let (parsed, s) = clock.time("replay.parse", None, |_| {
        replay::parse_export(std::io::BufReader::new(file))
    });
    pass.layers.parse_s += s;
    let parsed = parsed.map_err(|e| format!("{}: {e}", export.display()))?;
    if parsed.len() != plan.cells.len() {
        return Err(format!(
            "export holds {} cells, expected {}",
            parsed.len(),
            plan.cells.len()
        ));
    }
    for (i, cell) in parsed.iter().enumerate() {
        let (regenerated, s) =
            clock.time("replay.rerun", Some(i), |_| replay::rerun_cell(&cell.meta));
        pass.layers.rerun_s += s;
        let diverged = match regenerated {
            Ok(log) => {
                let (divergence, s) = clock.time("replay.compare", Some(i), |_| {
                    replay::first_divergence(&cell.events, &log.events)
                });
                pass.layers.compare_s += s;
                divergence.map(|d| format!("replay diverged at seq {}", d.seq()))
            }
            Err(e) => Some(format!("unreplayable: {e}")),
        };
        if let Some(problem) = diverged {
            pass.layers.divergences += 1;
            pass.wrong += 1;
            problems[i].push(problem);
        }
    }
    Ok(())
}

/// Re-runs every recorded cell without a recorder (span runs only) and
/// charges the difference to `trace_events.record_s`.
pub fn probe_record_cost(plan: &Plan, pass: &mut Pass) {
    let mut layers = Layers::default();
    let mut clock = Clock::new(false);
    let inputs = setup(plan, &mut clock, &mut layers);
    for (i, cell) in plan.cells.iter().enumerate() {
        let Some(recorded_s) = pass.recorded_run_s[i] else {
            continue;
        };
        let faults = inputs.plans[i].clone();
        let (m, s) = clock.time("system.run", Some(i), |_| {
            run_cell(plan, cell, &inputs, faults, None)
        });
        black_box(m);
        pass.layers.record_s += recorded_s - s;
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::File::open("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    for line in std::io::BufReader::new(status).lines() {
        let line = line.map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
            return Ok(kib / 1024.0);
        }
    }
    Err("no VmHWM in /proc/self/status".to_string())
}
