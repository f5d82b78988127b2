//! The simulation driver: an event queue plus a monotonic clock.
//!
//! The engine deliberately does *not* own the system state. The idiomatic
//! driver loop is:
//!
//! ```
//! use pc_sim::{Engine, SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut eng = Engine::<Ev>::new(42);
//! eng.schedule_after(SimDuration::from_micros(10), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((t, ev)) = eng.next_before(SimTime::from_secs(1)) {
//!     match ev {
//!         Ev::Tick(n) if n < 4 => {
//!             ticks += 1;
//!             eng.schedule_after(SimDuration::from_micros(10), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => { ticks += 1; }
//!     }
//!     let _ = t;
//! }
//! assert_eq!(ticks, 5);
//! ```
//!
//! Keeping state outside the engine sidesteps the usual borrow tangle of
//! callback-based designs and makes system models plain, testable structs.

use crate::event::{EventId, EventQueue, QueueStats};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use pc_trace_events::TraceHandle;

/// One event handed out by [`Engine::next_merged_before`]: either a
/// workload arrival (identified by its source index — the payload is
/// the caller's cursor state) or a dynamic timer event. Both ride the
/// same timer wheel; the variant only tells the ledger apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// The next pre-filed arrival of `source` (see
    /// [`Engine::schedule_arrival`]).
    Arrival(u32),
    /// A timer event (timers, drains, slot wakes, fault edges).
    Timer(E),
}

/// Event queue + clock + deterministic RNG. See the module docs for the
/// driver-loop idiom.
pub struct Engine<E> {
    /// Every pending event, arrivals included (DESIGN.md §14).
    queue: EventQueue<Popped<E>>,
    arrivals_scheduled: u64,
    arrivals_popped: u64,
    now: SimTime,
    rng: SimRng,
    trace: TraceHandle,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with a seeded RNG.
    pub fn new(seed: u64) -> Self {
        Engine {
            queue: EventQueue::new(),
            arrivals_scheduled: 0,
            arrivals_popped: 0,
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches an event-trace handle; every clock advance is forwarded to
    /// the recorder so emission sites stamp events with sim time.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's deterministic random number generator.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `ev` at the absolute time `at`. Scheduling in the past is
    /// a logic error and panics in debug builds; in release builds the
    /// event fires "now" (the queue clamps nothing, but the pop loop
    /// processes it immediately, preserving run-to-completion semantics).
    pub fn schedule_at(&mut self, at: SimTime, ev: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, Popped::Timer(ev))
    }

    /// Schedules `ev` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, ev: E) -> EventId {
        let at = self.now.saturating_add(after);
        self.queue.schedule(at, Popped::Timer(ev))
    }

    /// Cancels a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Files the next arrival of `source` at absolute time `at`. It is
    /// an ordinary wheel event, ordered by `(time, seq)` with timers,
    /// and surfaces as [`Popped::Arrival`]; only the ledger
    /// ([`Engine::queue_stats`]) counts it apart. Arrivals are facts of
    /// the workload, so no handle is returned: they cannot be cancelled.
    pub fn schedule_arrival(&mut self, at: SimTime, source: u32) {
        debug_assert!(
            at >= self.now,
            "arrival scheduled into the past: {at} < {}",
            self.now
        );
        self.arrivals_scheduled += 1;
        self.queue.schedule(at, Popped::Arrival(source));
    }

    /// Pops the next event if it fires at or before `deadline`, advancing
    /// the clock to its timestamp. For drivers that file no arrivals:
    /// popping one here panics.
    pub fn next_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.next_merged_before(deadline)? {
            (t, Popped::Timer(ev)) => Some((t, ev)),
            (_, Popped::Arrival(_)) => panic!("next_before popped an arrival"),
        }
    }

    /// Pops the next event — arrival or timer — if it fires at or before
    /// `deadline`, advancing the clock to its timestamp. Deadline misses
    /// pop nothing and leave the clock untouched.
    pub fn next_merged_before(&mut self, deadline: SimTime) -> Option<(SimTime, Popped<E>)> {
        let (t, ev) = self.queue.pop_until(deadline)?;
        debug_assert!(t >= self.now, "time went backwards");
        if let Popped::Arrival(_) = ev {
            self.arrivals_popped += 1;
        }
        self.now = t;
        self.trace.set_now(t.as_nanos());
        Some((t, ev))
    }

    /// Pops the next event unconditionally, advancing the clock. Like
    /// [`Engine::next_before`], for drivers that file no arrivals.
    #[allow(clippy::should_implement_trait)] // not an Iterator: &mut self with side effects on the clock
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.next_before(SimTime::MAX)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events, arrivals included.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Deterministic scheduler operation counters (see
    /// [`QueueStats`]) accumulated since the engine was created. The
    /// wheel's `scheduled`/`popped` are reported net of arrivals, which
    /// get their own `arrivals_*` fields; `pending_at_teardown` covers
    /// both. The snapshot always satisfies
    /// [`QueueStats::ledger_balanced`].
    pub fn queue_stats(&self) -> QueueStats {
        let mut stats = self.queue.stats();
        stats.scheduled -= self.arrivals_scheduled;
        stats.popped -= self.arrivals_popped;
        stats.arrivals_scheduled = self.arrivals_scheduled;
        stats.arrivals_popped = self.arrivals_popped;
        stats
    }

    /// Advances the clock to `t` without processing events. Intended for
    /// finalising accounting at the end of a run; `t` must not precede any
    /// pending event (checked in debug builds).
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
        self.trace.set_now(t.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_follows_events() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_micros(7), "a");
        eng.schedule_at(SimTime::from_micros(3), "b");
        assert_eq!(eng.now(), SimTime::ZERO);
        let (t, ev) = eng.next().unwrap();
        assert_eq!((t, ev), (SimTime::from_micros(3), "b"));
        assert_eq!(eng.now(), SimTime::from_micros(3));
        eng.next().unwrap();
        assert_eq!(eng.now(), SimTime::from_micros(7));
    }

    #[test]
    fn next_before_stops_at_deadline() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_secs(2), ());
        assert!(eng.next_before(SimTime::from_secs(1)).is_none());
        // Deadline misses must not advance the clock.
        assert_eq!(eng.now(), SimTime::ZERO);
        assert!(eng.next_before(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut eng = Engine::new(1);
        eng.schedule_at(SimTime::from_micros(10), 0u8);
        eng.next().unwrap();
        eng.schedule_after(SimDuration::from_micros(5), 1u8);
        let (t, ev) = eng.next().unwrap();
        assert_eq!(ev, 1);
        assert_eq!(t, SimTime::from_micros(15));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Engine::new(1);
        let id = eng.schedule_at(SimTime::from_micros(1), "doomed");
        eng.schedule_at(SimTime::from_micros(2), "kept");
        assert!(eng.cancel(id));
        assert_eq!(eng.next().map(|(_, e)| e), Some("kept"));
    }

    #[test]
    fn merged_pop_orders_arrivals_and_timers_by_schedule_on_ties() {
        let mut eng = Engine::new(1);
        eng.schedule_arrival(SimTime::from_nanos(5), 0);
        eng.schedule_at(SimTime::from_nanos(5), "timer@5");
        eng.schedule_arrival(SimTime::from_nanos(3), 1);
        eng.schedule_at(SimTime::from_nanos(1), "timer@1");
        let deadline = SimTime::from_secs(1);
        let mut got = Vec::new();
        while let Some((t, ev)) = eng.next_merged_before(deadline) {
            got.push((t.as_nanos(), ev));
        }
        assert_eq!(
            got,
            vec![
                (1, Popped::Timer("timer@1")),
                (3, Popped::Arrival(1)),
                // Same nanosecond: the arrival was scheduled first, so
                // it wins the wheel's FIFO tie.
                (5, Popped::Arrival(0)),
                (5, Popped::Timer("timer@5")),
            ]
        );
        let stats = eng.queue_stats();
        assert_eq!(stats.arrivals_scheduled, 2);
        assert_eq!(stats.arrivals_popped, 2);
        assert_eq!(stats.scheduled, 2);
        assert_eq!(stats.popped, 2);
        assert_eq!(stats.pending_at_teardown, 0);
        assert!(stats.ledger_balanced());
    }

    #[test]
    fn merged_deadline_miss_pops_nothing() {
        let mut eng = Engine::<()>::new(1);
        eng.schedule_arrival(SimTime::from_secs(2), 0);
        assert!(eng.next_merged_before(SimTime::from_secs(1)).is_none());
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.pending(), 1);
        let stats = eng.queue_stats();
        assert_eq!(stats.pending_at_teardown, 1);
        assert!(stats.ledger_balanced());
        assert!(eng.next_merged_before(SimTime::from_secs(2)).is_some());
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = Engine::<()>::new(99);
        let mut b = Engine::<()>::new(99);
        for _ in 0..100 {
            assert_eq!(a.rng().next_u64(), b.rng().next_u64());
        }
    }
}
