//! Allocation gate for the trace codec: a host-independent cost counter
//! CI can gate on where it cannot gate on wall time.
//!
//! * `digest` streams each event's canonical bytes into the hash, so its
//!   allocation count must not grow with the number of events.
//! * `line_to_json` builds one `String` per line and must stay within
//!   two allocations per line.
//!
//! The counting allocator below counts per thread, so tests running in
//! parallel in this binary do not see each other's allocations.

use pc_bench::oracle::{self, CellMeta, TraceLine};
use pcpower::core::{Experiment, StrategyKind};
use pcpower::sim::SimDuration;
use pcpower::trace::WorldCupConfig;
use pcpower::trace_events::{Recorder, TraceLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// thread-local statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller's guarantees for `layout` and `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocation calls it made on
/// this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// A recorded `worldcup_quick` PBPL cell of the given horizon.
fn recorded_cell(duration_ms: u64) -> TraceLog {
    let recorder = Recorder::new();
    let m = Experiment::builder()
        .pairs(4)
        .cores(2)
        .duration(SimDuration::from_millis(duration_ms))
        .strategy(StrategyKind::pbpl_default())
        .trace(WorldCupConfig::quick_test())
        .seed(3)
        .record_events(recorder.handle())
        .run();
    assert!(m.all_items_consumed());
    let log = recorder.take();
    assert_eq!(log.dropped, 0);
    log
}

#[test]
fn digest_allocations_do_not_grow_with_the_event_count() {
    let short = recorded_cell(100);
    let long = recorded_cell(400);
    assert!(
        long.events.len() >= 3 * short.events.len(),
        "horizons too close: {} vs {} events",
        short.events.len(),
        long.events.len()
    );
    let (_, short_allocs) = counted(|| short.digest());
    let (_, long_allocs) = counted(|| long.digest());
    assert_eq!(
        short_allocs,
        long_allocs,
        "digest allocates per event ({} events: {short_allocs}, {} events: {long_allocs})",
        short.events.len(),
        long.events.len()
    );
}

#[test]
fn line_to_json_makes_at_most_two_allocations_per_line() {
    let log = recorded_cell(200);
    let meta = CellMeta {
        experiment: "codec_allocs".into(),
        strategy: "PBPL".into(),
        pairs: 4,
        cores: 2,
        buffer: 25,
        seed: 3,
        duration_ns: 200_000_000,
        workload: "worldcup_quick".into(),
        scenario: String::new(),
        period_ns: 0,
        events: log.events.len() as u64,
        dropped: log.dropped,
        digest: log.digest(),
    };
    let lines: Vec<TraceLine> = std::iter::once(TraceLine::Cell(meta))
        .chain(log.events.iter().cloned().map(TraceLine::Ev))
        .collect();
    let (bytes, allocs) = counted(|| {
        lines
            .iter()
            .map(|line| oracle::line_to_json(line).len())
            .sum::<usize>()
    });
    assert!(bytes > 0);
    assert!(
        allocs <= 2 * lines.len() as u64,
        "{allocs} allocations for {} lines",
        lines.len()
    );
}
