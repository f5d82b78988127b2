//! `sweep` — runs one sweep of the `pc_bench::sweep` table.
//!
//! ```text
//! cargo run --release -p pc-bench --bin sweep -- NAME [--filter POINT]...
//!     [--threads N] [--shards N] [--trace] [--list]
//! ```
//!
//! `NAME` is `suite`, `chaos`, `scale` or `overload`. The run writes,
//! under `results/`:
//!
//! * `NAME.json` — deterministic per-cell results. **Byte-identical for
//!   any `--threads` value (and, for `scale`, any `--shards` value) at
//!   the same seed, with or without `--trace`** — the CI determinism
//!   gates byte-compare those runs. Nothing timing-, thread- or
//!   shard-dependent may ever reach it.
//! * `BENCH_NAME.json` — the sidecar: wall-clock per group and per
//!   cell, worker utilization, the deterministic scheduler counters,
//!   and the host it ran on (thread count, available parallelism,
//!   build profile, filters).
//! * with `--trace`, `NAME_trace.jsonl` — each cell's `CellMeta` header
//!   and events, in canonical cell order (thread-count independent).
//!   Each header is the cell's replay recipe: `replay` re-executes it,
//!   `trace_report` re-verifies it offline.
//!
//! Every recorded cell is checked by the replay oracle. `chaos` and
//! `overload` record every cell (their rows come from the trace);
//! `suite` and `scale` record under `--trace` only. An oracle
//! violation, or a cell without overload control that shed items,
//! fails the run with exit code 1 once the files are written; usage
//! errors exit 2.
//!
//! `--filter` keeps the cells whose exact point name equals POINT
//! (repeatable, OR; every replicate of a point runs). `--list` prints
//! the points. A filter that names no point is an error.
//!
//! `PC_DURATION_MS` and `PC_REPLICATES` override the sweep's defaults
//! (50 s × 3 replicates; `scale` 10 s × 1); `PC_SEED`, `PC_THREADS` and
//! `PC_TRACE_CAP` apply as everywhere else, and `PC_SHARDS` (default 8)
//! to `scale`. `--threads` and `--shards` override the env.

use pc_bench::exp::{save_json, Protocol};
use pc_bench::oracle;
use pc_bench::replay::label_overloaded;
use pc_bench::sweep::{execute, fleets, sweep_by_name, CellRun, SweepDef, SWEEPS};
use serde::{Serialize, Writer};
use std::io::{self, Write};
use std::time::Instant;

struct Options {
    sweep: &'static SweepDef,
    filters: Vec<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    trace: bool,
    list: bool,
}

fn parse_args() -> Options {
    let mut sweep = None;
    let mut filters = Vec::new();
    let (mut threads, mut shards) = (None, None);
    let (mut trace, mut list) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--filter" => filters.push(value("--filter")),
            "--threads" => threads = Some(positive(&value("--threads"), "--threads")),
            "--shards" => shards = Some(positive(&value("--shards"), "--shards")),
            "--trace" => trace = true,
            "--list" => list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => die(&format!("unknown argument: {flag}")),
            name if sweep.is_none() => {
                sweep = Some(
                    sweep_by_name(name).unwrap_or_else(|| die(&format!("unknown sweep: {name}"))),
                )
            }
            extra => die(&format!("unexpected argument: {extra}")),
        }
    }
    let sweep = sweep.unwrap_or_else(|| die("name a sweep"));
    if shards.is_some() && !sweep.sharded {
        die(&format!(
            "--shards does not apply to the {} sweep",
            sweep.name
        ));
    }
    Options {
        sweep,
        filters,
        threads,
        shards,
        trace,
        list,
    }
}

fn print_help() {
    println!(
        "usage: sweep NAME [--filter POINT]... [--threads N] [--shards N] [--trace] [--list]\n\
         \n\
         Runs one sweep and writes results/NAME.json (deterministic) and\n\
         results/BENCH_NAME.json (timings). --filter keeps the cells whose\n\
         exact point name equals POINT (repeatable, OR; --list prints the\n\
         points). --trace exports results/NAME_trace.jsonl; every recorded\n\
         cell is replayed through the oracle and violations fail the run.\n\
         --shards applies to scale only.\n\
         Env: PC_DURATION_MS, PC_REPLICATES, PC_SEED, PC_THREADS,\n\
         PC_TRACE_CAP, PC_SHARDS (scale).\n\
         \n\
         Sweeps:"
    );
    for def in &SWEEPS {
        println!("  {:<9} {}", def.name, def.about);
    }
}

fn positive(value: &str, flag: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("sweep: {msg} (try --help)");
    std::process::exit(2);
}

/// Coordination shards for `scale`: `PC_SHARDS` if set to a positive
/// integer, else 8.
fn shards_from_env() -> usize {
    std::env::var("PC_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(8)
}

fn elapsed_ms(since: Instant) -> u64 {
    since.elapsed().as_millis() as u64
}

/// One cell's sidecar row: host wall time plus the *deterministic*
/// scheduler operation counters from the run (a pure function of
/// `(seed, config)`; only `wall_ms` is host-dependent).
#[derive(Serialize)]
struct CellTiming {
    /// `CellMeta::label` of the cell.
    cell: String,
    wall_ms: u64,
    /// Event-scheduler operation counters (DESIGN.md §13).
    scheduler: pc_sim::QueueStats,
}

/// One dispatch group's sidecar timing.
struct GroupTiming {
    name: String,
    cells: usize,
    /// Dispatch wall time only; the group's shared fleets are generated
    /// before it starts and stamped as `fleet_gen_ms`.
    wall_ms: u64,
    fleet_gen_ms: u64,
    /// Worker busy share of the dispatch (Σ busy / (threads × wall)).
    utilization: f64,
    worker_busy_ms: Vec<u64>,
    cell_timings: Vec<CellTiming>,
}

fn entry<W: io::Write, T: Serialize + ?Sized>(
    out: &mut Writer<W>,
    key: &str,
    value: &T,
) -> io::Result<()> {
    out.key(key)?;
    value.serialize(out)
}

impl GroupTiming {
    fn write_fields<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        entry(out, "name", &self.name)?;
        entry(out, "cells", &self.cells)?;
        entry(out, "wall_ms", &self.wall_ms)?;
        entry(out, "fleet_gen_ms", &self.fleet_gen_ms)?;
        entry(out, "utilization", &self.utilization)?;
        entry(out, "worker_busy_ms", &self.worker_busy_ms)?;
        entry(out, "cell_timings", &self.cell_timings)
    }
}

impl Serialize for GroupTiming {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.begin_object()?;
        self.write_fields(out)?;
        out.end_object()
    }
}

/// `BENCH_<sweep>.json`, the one sidecar every sweep writes.
///
/// Schema history: v2 added `filters` and the per-group utilization,
/// worker busy times and per-cell scheduler counters; v3 the arrival
/// counters and `pending_at_teardown` (DESIGN.md §14) and scale's
/// `fleet_gen_ms`; v4 `items_shed` (DESIGN.md §15). v5 is one writer
/// for every sweep: it stamps `available_parallelism` and
/// `build_profile`, gives every group `wall_ms` and `fleet_gen_ms`,
/// labels cells by `CellMeta::label`, and `total_wall_ms` covers the
/// whole sweep (fleets, dispatch, oracle and export). Multi-group
/// sweeps list their groups under the sweep's key (`experiments`,
/// `points`); single-group sweeps keep their group's fields at the top
/// level.
struct Sidecar<'a> {
    sweep: &'static SweepDef,
    threads: usize,
    shards: usize,
    filters: &'a [String],
    total_wall_ms: u64,
    groups: &'a [GroupTiming],
}

impl Serialize for Sidecar<'_> {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        out.begin_object()?;
        entry(out, "schema_version", &5u32)?;
        entry(out, "threads", &self.threads)?;
        if self.sweep.sharded {
            entry(out, "shards", &self.shards)?;
        }
        entry(out, "available_parallelism", &cores)?;
        entry(out, "build_profile", profile)?;
        // Active `--filter` values (empty = full sweep), so a checked-in
        // sidecar can never masquerade as a full run.
        entry(out, "filters", self.filters)?;
        entry(out, "total_wall_ms", &self.total_wall_ms)?;
        match self.sweep.timings_key {
            Some(key) => entry(out, key, self.groups)?,
            None => {
                for group in self.groups {
                    group.write_fields(out)?;
                }
            }
        }
        out.end_object()
    }
}

fn main() {
    let options = parse_args();
    let def = options.sweep;
    let mut protocol = Protocol::from_env_or(def.duration_ms, def.replicates);
    if let Some(threads) = options.threads {
        protocol.threads = threads;
    }
    let shards = if def.sharded {
        options.shards.unwrap_or_else(shards_from_env)
    } else {
        1
    };

    let mut groups = (def.expand)(&protocol);
    if !options.filters.is_empty() {
        for filter in &options.filters {
            if !groups
                .iter()
                .flat_map(|g| &g.cells)
                .any(|c| c.point == *filter)
            {
                die(&format!(
                    "no {} point is named {filter:?} (see --list)",
                    def.name
                ));
            }
        }
        for group in &mut groups {
            group.cells.retain(|c| options.filters.contains(&c.point));
        }
        groups.retain(|g| !g.cells.is_empty());
    }
    if options.list {
        let mut points: Vec<(&str, usize)> = Vec::new();
        for cell in groups.iter().flat_map(|g| &g.cells) {
            match points.iter_mut().find(|(point, _)| *point == cell.point) {
                Some((_, cells)) => *cells += 1,
                None => points.push((&cell.point, 1)),
            }
        }
        for (point, cells) in points {
            println!("{point:<32} {cells:>3} cells");
        }
        return;
    }

    let cells: usize = groups.iter().map(|g| g.cells.len()).sum();
    println!(
        "{}: {cells} cell(s) in {} group(s), {} ms horizon, {} replicate(s), seed {}, {} thread(s), {shards} shard(s)",
        def.name,
        groups.len(),
        protocol.duration.as_nanos() / 1_000_000,
        protocol.replicates,
        protocol.base_seed,
        protocol.threads,
    );

    // The JSONL export is opened up front, so an unwritable results dir
    // fails before the sweep runs, and written in canonical cell order.
    let mut export = options.trace.then(|| {
        std::fs::create_dir_all("results")
            .unwrap_or_else(|e| die(&format!("cannot create results dir: {e}")));
        let path = std::path::Path::new("results").join(format!("{}_trace.jsonl", def.name));
        let file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        (path, io::BufWriter::new(file))
    });
    let record = def.always_traced || options.trace;

    let started = Instant::now();
    let mut report = (def.report)();
    let mut failures: Vec<String> = Vec::new();
    let mut recorded_events = 0u64;
    let mut timings = Vec::new();
    for group in &groups {
        let gen_started = Instant::now();
        let fleets = fleets(&group.cells, protocol.threads);
        let fleet_gen_ms = elapsed_ms(gen_started);
        let dispatch_started = Instant::now();
        let (runs, dispatch) = execute(&group.cells, &fleets, protocol.threads, shards, record);
        let wall_ms = elapsed_ms(dispatch_started);
        drop(fleets);
        let runs: Vec<CellRun> = runs
            .into_iter()
            .map(|run| {
                run.unwrap_or_else(|e| {
                    eprintln!("sweep: {e}");
                    std::process::exit(1)
                })
            })
            .collect();

        for run in &runs {
            let label = run.meta.label();
            if let Some(log) = &run.log {
                if let Some((path, out)) = export.as_mut() {
                    oracle::write_cell(out, &run.meta, &log.events)
                        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
                }
                recorded_events += run.meta.events;
                let violations = oracle::check(log).violations;
                failures.extend(violations.into_iter().map(|v| format!("{label}: {v}")));
            }
            // Overload control is opt-in per cell: shedding without it
            // would mean the knob leaked across cells.
            if !label_overloaded(&run.meta.strategy) && run.metrics.items_shed != 0 {
                failures.push(format!(
                    "{label}: shed {} items with overload control disabled",
                    run.metrics.items_shed
                ));
            }
        }
        report.add(&protocol, group, &runs);
        timings.push(GroupTiming {
            name: group.name.clone(),
            cells: runs.len(),
            wall_ms,
            fleet_gen_ms,
            utilization: dispatch.utilization(wall_ms),
            worker_busy_ms: dispatch.worker_busy_ms,
            cell_timings: runs
                .iter()
                .zip(dispatch.cell_wall_ms)
                .map(|(run, wall_ms)| CellTiming {
                    cell: run.meta.label(),
                    wall_ms,
                    scheduler: run.metrics.scheduler,
                })
                .collect(),
        });
    }
    let total_wall_ms = elapsed_ms(started);

    report.save(&protocol);
    save_json(
        &format!("BENCH_{}", def.name),
        &Sidecar {
            sweep: def,
            threads: protocol.threads,
            shards,
            filters: &options.filters,
            total_wall_ms,
            groups: &timings,
        },
    );
    if let Some((path, mut out)) = export {
        out.flush()
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("[saved {}] ({recorded_events} events)", path.display());
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("{}: ORACLE VIOLATION: {failure}", def.name);
        }
        eprintln!("{}: found {} violation(s)", def.name, failures.len());
        std::process::exit(1);
    }
    if record {
        println!(
            "{}: replay oracle clean over {recorded_events} events",
            def.name
        );
    }
    println!("{}: done in {total_wall_ms} ms", def.name);
}
