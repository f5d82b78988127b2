//! Workload arrivals on the timer wheel (`Engine::schedule_arrival` +
//! `next_merged_before`, DESIGN.md §14).
//!
//! Arrivals are ordinary wheel events wrapped in `Popped::Arrival`; the
//! engine keeps them apart from dynamic timers only in its ledger. Two
//! checks pin that:
//!
//! * a proptest drives the production engine and a reference engine
//!   that schedules every arrival as a plain `schedule_at` event — the
//!   design the engine now has inside — over arbitrary interleavings of
//!   per-source sorted arrival streams, timers landing on the same
//!   instants (exact `(time, seq)` ties), cancellations and early
//!   deadlines. Pop stream (times, payloads, pending counts) and trace
//!   digest must agree, the `Popped` mapping must match the reference payloads, and
//!   the production `QueueStats` must split the reference's wheel-only
//!   totals into arrival and timer halves that still balance;
//! * a pinned test replays a few fixed scripts and asserts an FNV digest
//!   of each `(time, kind, id)` pop stream and the final `QueueStats`,
//!   so a change to the kernel's pop order cannot pass unnoticed.

use pc_sim::{Engine, EventId, Popped, QueueStats, SimTime};
use pc_trace_events::{Recorder, TraceEvent};
use proptest::prelude::*;
use std::sync::Arc;

/// One pop, in the reference engine's vocabulary: the reference carries
/// these through the wheel, the production engine hands out the
/// matching `Popped` variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefEv {
    Arrival(u32),
    Timer(u32),
}

/// One interleaving script: per-source arrival streams plus a timer
/// action decided at every pop.
#[derive(Debug, Clone)]
struct Script {
    /// `gaps[s]` are source `s`'s inter-arrival gaps (ns, may be 0 —
    /// repeated timestamps within one source are legal).
    gaps: Vec<Vec<u64>>,
    /// Per-pop timer action, consumed round-robin: `None` = no timer,
    /// `Some((offset, cancel))` schedules a timer `offset` ns after the
    /// current clock and immediately cancels it if `cancel` — cancelled
    /// timers leave dead husks the peek must drain past.
    timers: Vec<Option<(u64, bool)>>,
    /// Arrivals and timers are armed only strictly before this time.
    horizon: u64,
    /// Pops stop after this time (≤ `horizon`); whatever is still armed
    /// is pending at teardown.
    deadline: u64,
}

/// The scheduling surface both engines are driven through.
trait Driver {
    fn arm_arrival(&mut self, at: SimTime, source: u32);
    fn arm_timer(&mut self, at: SimTime, k: u32) -> EventId;
    fn cancel_timer(&mut self, id: EventId) -> bool;
    fn pop(&mut self, deadline: SimTime) -> Option<(SimTime, RefEv)>;
    fn pending(&self) -> usize;
    fn stats(&self) -> QueueStats;
}

/// The production route: arrivals through `schedule_arrival`, pops
/// through `next_merged_before`.
impl Driver for Engine<u32> {
    fn arm_arrival(&mut self, at: SimTime, source: u32) {
        self.schedule_arrival(at, source);
    }
    fn arm_timer(&mut self, at: SimTime, k: u32) -> EventId {
        self.schedule_at(at, k)
    }
    fn cancel_timer(&mut self, id: EventId) -> bool {
        self.cancel(id)
    }
    fn pop(&mut self, deadline: SimTime) -> Option<(SimTime, RefEv)> {
        self.next_merged_before(deadline).map(|(t, p)| {
            let ev = match p {
                Popped::Arrival(s) => RefEv::Arrival(s),
                Popped::Timer(k) => RefEv::Timer(k),
            };
            (t, ev)
        })
    }
    fn pending(&self) -> usize {
        Engine::pending(self)
    }
    fn stats(&self) -> QueueStats {
        self.queue_stats()
    }
}

/// The reference route: every arrival a plain wheel event.
impl Driver for Engine<RefEv> {
    fn arm_arrival(&mut self, at: SimTime, source: u32) {
        self.schedule_at(at, RefEv::Arrival(source));
    }
    fn arm_timer(&mut self, at: SimTime, k: u32) -> EventId {
        self.schedule_at(at, RefEv::Timer(k))
    }
    fn cancel_timer(&mut self, id: EventId) -> bool {
        self.cancel(id)
    }
    fn pop(&mut self, deadline: SimTime) -> Option<(SimTime, RefEv)> {
        self.next_before(deadline)
    }
    fn pending(&self) -> usize {
        Engine::pending(self)
    }
    fn stats(&self) -> QueueStats {
        self.queue_stats()
    }
}

/// Everything observable about one scripted run.
#[derive(Debug)]
struct Run {
    /// `(time_ns, pop, pending after the pop's follow-up scheduling)`.
    pops: Vec<(u64, RefEv, usize)>,
    /// Timers scheduled (cancelled or not).
    timers: u32,
    trace_digest: u64,
    stats: QueueStats,
}

/// Plays `script` on `eng`, arming each source's next arrival right
/// after its previous one pops, as `System::produce` does.
fn drive<D: Driver>(eng: &mut D, rec: &Arc<Recorder>, script: &Script) -> Run {
    let horizon = script.horizon;
    let deadline = SimTime::from_nanos(script.deadline);
    let sources = script.gaps.len();
    let mut next_idx = vec![0usize; sources];
    for s in 0..sources {
        if let Some(&at) = script.gaps[s].first() {
            if at < horizon {
                eng.arm_arrival(SimTime::from_nanos(at), s as u32);
            }
        }
    }
    let mut pops = Vec::new();
    let mut timer_cursor = 0usize;
    let mut timers = 0u32;
    while let Some((t, ev)) = eng.pop(deadline) {
        let now = t.as_nanos();
        match ev {
            RefEv::Arrival(s) => {
                rec.handle().record(|| TraceEvent::Produce { pair: s });
                let s = s as usize;
                next_idx[s] += 1;
                if let Some(&gap) = script.gaps[s].get(next_idx[s]) {
                    if now + gap < horizon {
                        eng.arm_arrival(SimTime::from_nanos(now + gap), s as u32);
                    }
                }
            }
            RefEv::Timer(k) => rec.handle().record(|| TraceEvent::Wakeup { pair: k }),
        }
        if let Some(&Some((offset, cancel))) = script.timers.get(timer_cursor) {
            if now + offset < horizon {
                let id = eng.arm_timer(SimTime::from_nanos(now + offset), timers);
                timers += 1;
                if cancel {
                    assert!(eng.cancel_timer(id), "fresh timer must cancel");
                }
            }
        }
        timer_cursor = (timer_cursor + 1) % script.timers.len().max(1);
        pops.push((now, ev, eng.pending()));
    }
    let log = rec.take();
    assert_eq!(log.dropped, 0);
    Run {
        pops,
        timers,
        trace_digest: log.digest(),
        stats: eng.stats(),
    }
}

/// Plays `script` on a fresh engine: `run::<u32>` is the production
/// route, `run::<RefEv>` the reference.
fn run<E>(script: &Script) -> Run
where
    Engine<E>: Driver,
{
    let rec = Recorder::bounded(1 << 16);
    let mut eng = Engine::<E>::new(7);
    eng.set_trace(rec.handle());
    drive(&mut eng, &rec, script)
}

fn script_strategy() -> impl Strategy<Value = Script> {
    // Gaps on a coarse grid so sources collide on exact nanoseconds
    // (and timers below land on the same grid): FIFO-by-seq tie order
    // between arrivals and timers is the point of the test.
    let gaps = prop::collection::vec(
        prop::collection::vec((0u64..12).prop_map(|k| k * 256), 1..40),
        1..12,
    );
    let timers = prop::collection::vec(
        prop_oneof![
            Just(None),
            Just(None),
            ((0u64..12).prop_map(|k| k * 256), any::<bool>()).prop_map(Some),
        ],
        1..64,
    );
    let horizon = 1u64 << 14;
    // Half the cases pop to the horizon, half stop early and leave
    // arrivals and timers pending at teardown.
    let deadline = prop_oneof![Just(horizon), 0..horizon];
    (gaps, timers, deadline).prop_map(move |(gaps, timers, deadline)| Script {
        gaps,
        timers,
        horizon,
        deadline,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn arrivals_pop_like_plain_wheel_events(script in script_strategy()) {
        let prod = run::<u32>(&script);
        let refr = run::<RefEv>(&script);
        if let Some(i) = (0..prod.pops.len().max(refr.pops.len()))
            .find(|&i| prod.pops.get(i) != refr.pops.get(i))
        {
            prop_assert!(
                false,
                "pop {} diverged: {:?} vs {:?}",
                i,
                prod.pops.get(i),
                refr.pops.get(i)
            );
        }
        prop_assert_eq!(prod.trace_digest, refr.trace_digest, "trace digests diverged");

        let (ps, rs) = (prod.stats, refr.stats);
        prop_assert!(ps.ledger_balanced(), "production ledger out of balance: {:?}", ps);
        prop_assert!(rs.ledger_balanced(), "reference ledger out of balance: {:?}", rs);
        // The split: the production wheel-side fields count timers only,
        // the arrival fields count arrivals only, and together they are
        // the reference's wheel-only totals.
        prop_assert_eq!(ps.scheduled, u64::from(prod.timers));
        prop_assert_eq!(ps.scheduled + ps.arrivals_scheduled, rs.scheduled);
        prop_assert_eq!(ps.popped + ps.arrivals_popped, rs.popped);
        let arrival_pops = prod
            .pops
            .iter()
            .filter(|(_, ev, _)| matches!(ev, RefEv::Arrival(_)))
            .count() as u64;
        prop_assert_eq!(ps.arrivals_popped, arrival_pops);
        prop_assert_eq!(rs.arrivals_scheduled, 0);
        prop_assert_eq!(rs.arrivals_popped, 0);
        prop_assert_eq!(ps.cancelled, rs.cancelled);
        prop_assert_eq!(ps.pending_at_teardown, rs.pending_at_teardown);
        // Same wheel contents, so the same wheel work.
        prop_assert_eq!(ps.cascades, rs.cascades);
        prop_assert_eq!(ps.compactions, 0);
    }
}

/// FNV-1a (64-bit) over each pop's `(time_ns, kind, id)`, little-endian,
/// kind 0 = arrival, 1 = timer.
fn pop_stream_digest(pops: &[(u64, RefEv, usize)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(t, ev, _) in pops {
        let (kind, id) = match ev {
            RefEv::Arrival(s) => (0u8, s),
            RefEv::Timer(k) => (1u8, k),
        };
        let bytes = t
            .to_le_bytes()
            .into_iter()
            .chain([kind])
            .chain(id.to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// Fixed scripts with the FNV digest of their `(time, kind, id)` pop
/// stream and their final `QueueStats`, captured on the retired
/// arrival-calendar kernel. Only `levels`' `cascades` differs from that
/// capture (10 there): arrivals now share the wheel's buckets.
fn pinned_scripts() -> Vec<(&'static str, Script, u64, QueueStats)> {
    vec![
        (
            // Sources and timers collide on exact nanoseconds: FIFO by
            // schedule order across arrivals and timers.
            "ties",
            Script {
                gaps: vec![
                    vec![0, 256, 0, 512, 256, 0, 768],
                    vec![256, 0, 256, 0, 0, 512],
                    vec![512, 512, 0, 256],
                ],
                timers: vec![Some((0, false)), None, Some((256, false)), Some((0, false))],
                horizon: 1 << 14,
                deadline: 1 << 14,
            },
            0x29d7_8e1d_467f_b2ac,
            QueueStats {
                scheduled: 49,
                popped: 49,
                arrivals_scheduled: 17,
                arrivals_popped: 17,
                ..QueueStats::default()
            },
        ),
        (
            // Cancelled timers leave husks in bucket and staging alike.
            "cancels",
            Script {
                gaps: vec![
                    vec![100, 300, 300, 300, 300, 300, 300],
                    vec![0, 1024, 1024, 1024],
                ],
                timers: vec![Some((0, true)), Some((256, false)), Some((512, true)), None],
                horizon: 1 << 14,
                deadline: 1 << 14,
            },
            0xdd27_4e34_ad8f_13fa,
            QueueStats {
                scheduled: 12,
                cancelled: 8,
                popped: 4,
                arrivals_scheduled: 11,
                arrivals_popped: 11,
                ..QueueStats::default()
            },
        ),
        (
            // The deadline cuts the run short: arrivals and timers are
            // still pending at teardown.
            "early_deadline",
            Script {
                gaps: vec![vec![1000; 12], vec![1500; 9], vec![700; 16]],
                timers: vec![Some((300, false)), Some((2000, false)), None],
                horizon: 1 << 14,
                deadline: 5_000,
            },
            0x1541_a076_193e_9a10,
            QueueStats {
                scheduled: 18,
                popped: 12,
                arrivals_scheduled: 18,
                arrivals_popped: 15,
                pending_at_teardown: 9,
                ..QueueStats::default()
            },
        ),
        (
            // Millisecond gaps span several wheel levels, so arrivals
            // and timers cascade.
            "levels",
            Script {
                gaps: vec![
                    vec![1_000_000, 3_000_000, 70_000_000, 0, 200_000_000],
                    vec![65_536, 4_194_304, 0, 4_194_304, 90_000_000],
                ],
                timers: vec![Some((5_000_000, false)), Some((300_000_000, true)), None],
                horizon: 1 << 30,
                deadline: 1 << 30,
            },
            0xa4a7_c89b_d259_2e24,
            QueueStats {
                scheduled: 10,
                cancelled: 5,
                popped: 5,
                cascades: 21,
                arrivals_scheduled: 10,
                arrivals_popped: 10,
                ..QueueStats::default()
            },
        ),
    ]
}

#[test]
fn pinned_pop_streams() {
    for (name, script, digest, stats) in pinned_scripts() {
        let got = run::<u32>(&script);
        assert_eq!(
            pop_stream_digest(&got.pops),
            digest,
            "{name}: pop stream changed"
        );
        assert_eq!(got.stats, stats, "{name}: final QueueStats changed");
        assert!(got.stats.ledger_balanced(), "{name}: ledger out of balance");
    }
}

/// Deterministic spot check of a deadline landing between two pending
/// events: the earlier pops, the later stays pending, and a miss leaves
/// the clock untouched.
#[test]
fn deadline_between_pending_events_pops_nothing() {
    let mut eng: Engine<u32> = Engine::new(1);
    eng.schedule_arrival(SimTime::from_nanos(5_000), 0);
    eng.schedule_at(SimTime::from_nanos(2_000), 9);
    // The timer (2 µs) pops; the arrival (5 µs) is past the deadline.
    let (t, ev) = eng.next_merged_before(SimTime::from_nanos(3_000)).unwrap();
    assert_eq!((t.as_nanos(), ev), (2_000, Popped::Timer(9)));
    assert_eq!(eng.next_merged_before(SimTime::from_nanos(3_000)), None);
    assert_eq!(
        eng.now(),
        SimTime::from_nanos(2_000),
        "clock must not move on a miss"
    );
    assert_eq!(eng.pending(), 1);
    let stats = eng.queue_stats();
    assert_eq!(stats.arrivals_scheduled, 1);
    assert_eq!(stats.arrivals_popped, 0);
    assert_eq!(stats.pending_at_teardown, 1);
    assert!(stats.ledger_balanced());
}
