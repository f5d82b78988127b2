//! Trace-codec microbench: the per-event encodings every verified run
//! pays for, and the decoding replay pays for, on a recorded overload
//! cell (the overload golden fixture's flash-crowd PBPL(overload) cell,
//! re-run from its header).
//!
//! * `digest` — `TraceLog::digest`: each event's canonical JSON streamed
//!   straight into FNV-1a.
//! * `line_to_json` — `oracle::line_to_json` over every export line, the
//!   JSONL export path (one `String` per line).
//! * `line_from_json` — `oracle::line_from_json` over the same lines'
//!   text, the parse step of `replay` and `trace_report`.
//!
//! All report events per second; divide the median by the event count
//! for the per-event cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pc_bench::oracle::{line_from_json, line_to_json, TraceLine};
use pc_bench::replay::{fixture_defs, rerun_cell};

fn bench_trace_codec(c: &mut Criterion) {
    let (_, meta) = fixture_defs()
        .into_iter()
        .find(|(name, _)| *name == "overload_cell.jsonl")
        .expect("the overload fixture is registered");
    let log = rerun_cell(&meta).expect("the overload fixture re-runs");
    let lines: Vec<TraceLine> = log.events.iter().cloned().map(TraceLine::Ev).collect();
    let texts: Vec<String> = lines.iter().map(line_to_json).collect();

    let mut group = c.benchmark_group("trace_codec");
    group
        .sample_size(20)
        .throughput(Throughput::Elements(log.events.len() as u64));
    group.bench_function("digest", |b| b.iter(|| log.digest()));
    group.bench_function("line_to_json", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(line_to_json(line));
            }
        })
    });
    group.bench_function("line_from_json", |b| {
        b.iter(|| {
            for text in &texts {
                black_box(line_from_json(text).expect("exported lines parse"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_trace_codec);
criterion_main!(benches);
