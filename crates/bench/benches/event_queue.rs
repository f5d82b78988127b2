//! Event-scheduler microbench: the hierarchical timer wheel
//! (`pc_sim::EventQueue`, DESIGN.md §13) against the binary-heap +
//! tombstone design it replaced, at 10⁴–10⁶ pending timers.
//!
//! Two workloads per backlog size, both modelled on what `Sim::run`
//! actually does:
//!
//! * `churn` — steady state: with N timers pending, repeatedly pop the
//!   earliest and schedule a replacement a pseudo-random offset ahead
//!   (a Produce pops, schedules the next arrival). O(log N) per op on
//!   the heap, O(1) amortised on the wheel — this is where a planet
//!   fleet's backlog lives.
//! * `cancel_heavy` — schedule N, cancel half in FIFO order, drain the
//!   rest: the slot-reservation pattern (PBPL latch cancels) that drove
//!   the heap's tombstone compaction.
//!
//! A third scenario times the *arrival* path specifically (DESIGN.md
//! §14): M pre-sorted per-source streams merged to exhaustion on the
//! wheel, with each popped arrival immediately replaced by its source's
//! next — the exact access pattern of `System::schedule_next_produce`,
//! at M ∈ {10, 100, 1000} matching the scale sweep's fleet sizes.
//!
//! The heap model mirrors `crates/sim/tests/wheel_model.rs` — the
//! retired implementation reduced to its semantics.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pc_sim::{EventQueue, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Tombstone floor of the retired heap design (see wheel_model.rs).
const COMPACT_FLOOR: usize = 64;

/// The pre-wheel queue: BinaryHeap + tombstones + periodic compaction.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    tombstones: HashSet<u64>,
    next_seq: u64,
    live: usize,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            tombstones: HashSet::new(),
            next_seq: 0,
            live: 0,
        }
    }

    fn schedule(&mut self, at: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq)));
        self.live += 1;
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.tombstones.insert(seq);
        self.live -= 1;
        if self.tombstones.len() >= COMPACT_FLOOR && self.tombstones.len() * 2 > self.heap.len() {
            let tombstones = std::mem::take(&mut self.tombstones);
            self.heap = self
                .heap
                .drain()
                .filter(|Reverse((_, s))| !tombstones.contains(s))
                .collect();
        }
    }

    fn pop(&mut self) -> Option<u64> {
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            if self.tombstones.remove(&seq) {
                continue;
            }
            self.live -= 1;
            return Some(at);
        }
        None
    }
}

/// Deterministic splitmix64 step for arrival offsets — no external RNG,
/// same stream for both backends.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Churned pops+schedules per iteration.
const CHURN_OPS: u64 = 10_000;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(10);
    for &pending in &[10_000usize, 100_000, 1_000_000] {
        group.throughput(Throughput::Elements(CHURN_OPS));
        group.bench_with_input(
            BenchmarkId::new("wheel_churn", pending),
            &pending,
            |b, &n| {
                // Build the backlog once; each iteration churns on top of it.
                let mut q = EventQueue::new();
                let mut rng = 42u64;
                for i in 0..n {
                    q.schedule(SimTime::from_nanos(mix(&mut rng) % 1_000_000_000), i);
                }
                b.iter(|| {
                    for i in 0..CHURN_OPS {
                        let (t, _) = q.pop().expect("backlog never empties");
                        let dt = mix(&mut rng) % 1_000_000;
                        q.schedule(SimTime::from_nanos(t.as_nanos() + dt), i as usize);
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("heap_churn", pending),
            &pending,
            |b, &n| {
                let mut q = HeapQueue::new();
                let mut rng = 42u64;
                for _ in 0..n {
                    q.schedule(mix(&mut rng) % 1_000_000_000);
                }
                b.iter(|| {
                    for _ in 0..CHURN_OPS {
                        let t = q.pop().expect("backlog never empties");
                        let dt = mix(&mut rng) % 1_000_000;
                        q.schedule(t + dt);
                    }
                });
            },
        );

        group.throughput(Throughput::Elements(pending as u64));
        group.bench_with_input(
            BenchmarkId::new("wheel_cancel_heavy", pending),
            &pending,
            |b, &n| {
                b.iter(|| {
                    let mut q = EventQueue::new();
                    let mut rng = 7u64;
                    let mut ids = Vec::with_capacity(n);
                    for i in 0..n {
                        ids.push(q.schedule(SimTime::from_nanos(mix(&mut rng) % 1_000_000_000), i));
                    }
                    for id in ids.into_iter().step_by(2) {
                        q.cancel(id);
                    }
                    while q.pop().is_some() {}
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("heap_cancel_heavy", pending),
            &pending,
            |b, &n| {
                b.iter(|| {
                    let mut q = HeapQueue::new();
                    let mut rng = 7u64;
                    let mut ids = Vec::with_capacity(n);
                    for _ in 0..n {
                        ids.push(q.schedule(mix(&mut rng) % 1_000_000_000));
                    }
                    for id in ids.into_iter().step_by(2) {
                        q.cancel(id);
                    }
                    while q.pop().is_some() {}
                });
            },
        );
    }
    group.finish();
}

/// Arrivals consumed per source in the merge scenario; total items per
/// iteration are `M × ARRIVALS_PER_SOURCE`.
const ARRIVALS_PER_SOURCE: u64 = 100;

fn bench_arrival_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_merge");
    group.sample_size(10);
    for &sources in &[10usize, 100, 1000] {
        let total = sources as u64 * ARRIVALS_PER_SOURCE;
        group.throughput(Throughput::Elements(total));
        // Per-source cursors over deterministic sorted streams: popping
        // an arrival arms that source's next, like the sim's produce
        // path does.
        group.bench_with_input(
            BenchmarkId::new("wheel_merge", sources),
            &sources,
            |b, &m| {
                b.iter(|| {
                    let mut q = EventQueue::new();
                    let mut rng = 42u64;
                    let mut cursor = vec![0u64; m];
                    let mut remaining = vec![ARRIVALS_PER_SOURCE; m];
                    for (s, c) in cursor.iter_mut().enumerate() {
                        *c = mix(&mut rng) % 4096;
                        q.schedule(SimTime::from_nanos(*c), s);
                    }
                    let mut popped = 0u64;
                    while let Some((_, s)) = q.pop() {
                        popped += 1;
                        remaining[s] -= 1;
                        if remaining[s] > 0 {
                            cursor[s] += 1 + mix(&mut rng) % 4096;
                            q.schedule(SimTime::from_nanos(cursor[s]), s);
                        }
                    }
                    assert_eq!(popped, total);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue, bench_arrival_merge);
criterion_main!(benches);
