//! One pass of a benchmark workload, in one process on one thread.
//!
//! ```text
//! perfbench --workload <fleet_m1000|verify_m100|overload> --seed <n>
//!           --mode <plain|spans> --setup-reps <k> --export <file.jsonl>
//!           [--spans-out <file.json>]
//! ```
//!
//! Prints one JSON object: the run stamp, cells attempted and failed,
//! the pass's end-to-end readings and its per-layer totals. A `spans`
//! pass also keeps every timed call as a span, writes them to
//! `--spans-out` at exit, and reports self time per layer. `run.py`
//! builds this binary, runs passes and aggregates them.

mod alloc;
mod spans;
mod workload;

use spans::Clock;
use std::path::PathBuf;
use workload::{Plan, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    spans: bool,
    setup_reps: usize,
    export: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut spans = None;
    let mut setup_reps = 1usize;
    let mut export = None;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--mode" => {
                spans = Some(match value.as_str() {
                    "plain" => false,
                    "spans" => true,
                    other => return Err(format!("unknown mode {other:?}")),
                })
            }
            "--setup-reps" => {
                setup_reps = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or(format!("--setup-reps {value}: need a positive integer"))?
            }
            "--export" => export = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        spans: spans.ok_or("--mode is required")?,
        setup_reps,
        export: export.ok_or("--export is required")?,
        spans_out,
    })
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON; a non-finite one is a bug in a metric.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric is not finite: {x}");
    format!("{x}")
}

fn json_obj<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_list(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn stamp(plan: &Plan) -> String {
    let mut geometry: Vec<(usize, usize, usize, usize)> = Vec::new();
    for cell in &plan.cells {
        match geometry
            .iter_mut()
            .find(|g| (g.0, g.1, g.2) == (cell.pairs, cell.cores, cell.buffer))
        {
            Some(g) => g.3 += 1,
            None => geometry.push((cell.pairs, cell.cores, cell.buffer, 1)),
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json_obj([
        ("seed", plan.seed.to_string()),
        ("host_cores", host_cores.to_string()),
        ("worker_threads", "1".to_string()),
        ("profile", json_str("release")),
        ("workload", json_str(plan.workload.name())),
        (
            "geometry",
            json_list(geometry.iter().map(|&(m, cores, b, n)| {
                json_obj([
                    ("pairs", m.to_string()),
                    ("cores", cores.to_string()),
                    ("buffer", b.to_string()),
                    ("cells", n.to_string()),
                ])
            })),
        ),
        ("horizon_s", json_num(plan.horizon.as_secs_f64())),
        (
            "strategies",
            json_list(plan.strategies().iter().map(|s| json_str(s))),
        ),
        ("cells", plan.cells.len().to_string()),
    ])
}

fn write_spans(path: &PathBuf, plan: &Plan, clock: &Clock, self_times: &str) -> Result<(), String> {
    let spans = json_list(clock.spans().iter().map(|s| {
        json_obj([
            ("name", json_str(s.name)),
            ("start_ns", s.start_ns.to_string()),
            ("end_ns", s.end_ns.to_string()),
            (
                "parent",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ),
            ("cell", s.cell.map_or("null".to_string(), |c| c.to_string())),
        ])
    }));
    let cells = json_list(plan.cells.iter().map(|c| json_str(&c.label)));
    let body = json_obj([
        ("stamp", stamp(plan)),
        ("cells", cells),
        ("self_time_s", self_times.to_string()),
        ("spans", spans),
    ]);
    std::fs::write(path, body + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    if cfg!(debug_assertions) {
        die("refusing to measure a debug build; build with --release");
    }
    // The recorder bound is part of the workload: replay reads this
    // variable, and a larger bound would hide the dropped-event cell.
    if std::env::var_os("PC_TRACE_CAP").is_some() {
        die("PC_TRACE_CAP is set; unset it, the benchmark runs at the default recorder bound");
    }
    let args = parse_args().unwrap_or_else(|e| die(&e));
    let plan = Plan::new(args.workload, args.seed);
    let mut clock = Clock::new(args.spans);
    let result = workload::run_pass(&plan, &mut clock, args.setup_reps, &args.export);
    // The export is temporary whatever happened to the pass.
    let _ = std::fs::remove_file(&args.export);
    let mut pass = result.unwrap_or_else(|e| die(&e));
    let peak_rss_mib = workload::peak_rss_mib().unwrap_or_else(|e| die(&e));

    let self_times = json_obj(
        clock
            .self_times()
            .into_iter()
            .map(|(layer, s)| (layer, json_num(s))),
    );
    if args.spans {
        if let Some(path) = &args.spans_out {
            write_spans(path, &plan, &clock, &self_times).unwrap_or_else(|e| die(&e));
        }
        workload::probe_record_cost(&plan, &mut pass);
    }

    let layers = pass.layers.metrics(pass.items_produced, &pass.model);
    let line = json_obj([
        ("stamp", stamp(&plan)),
        ("attempted", pass.attempted.to_string()),
        ("failed", pass.failures.len().to_string()),
        ("wrong", pass.wrong.to_string()),
        (
            "failures",
            json_list(pass.failures.iter().map(|f| json_str(f))),
        ),
        ("wall_s", json_num(pass.wall_s)),
        (
            "setup_s",
            json_list(pass.setup_s.iter().map(|&s| json_num(s))),
        ),
        ("items_produced", pass.items_produced.to_string()),
        ("peak_rss_mib", json_num(peak_rss_mib)),
        ("model_power_mw", json_num(pass.model.power_mw())),
        ("model_wakeups_per_s", json_num(pass.model.wakeups_per_s())),
        (
            "model_latency_p99_ms",
            json_num(pass.model.latency_p99_ms()),
        ),
        (
            "model_latency_samples",
            pass.model.latency_samples().to_string(),
        ),
        ("model_latency_items", json_num(pass.model.latency_items())),
        (
            "layers",
            json_obj(layers.into_iter().map(|(k, v)| (k, json_num(v)))),
        ),
        ("self_time_s", self_times),
    ]);
    println!("{line}");
}
