//! The multiple producer-consumer system simulator and the
//! [`Experiment`] builder — the machinery behind every figure and table
//! reproduction.
//!
//! The simulation follows the paper's system model (§IV-A) exactly:
//! a multicore with idle/active cores, M producer-consumer pairs with one
//! consumer per producer, producers that are *external* (they never wake
//! consumer cores themselves), consumers pinned to cores with no
//! background processes, and a finite run. Each §III strategy plus PBPL
//! is expressed as event-handler behaviour over the `pc-sim` engine; the
//! finished core timelines then flow through `pc-power` for energy and
//! PowerTop-style metrics.

use crate::config::{OverloadConfig, PbplConfig, StrategyKind};
use crate::cost::{select_slot, CostModel};
use crate::manager::ShardedCoreManager;
use crate::metrics::{PairMetrics, RunMetrics};
use crate::model::PairId;
use crate::predict::RatePredictor;
use crate::resize::{
    overrun_target, plan_resize, predicted_fill as predicted_fill_items, ResizePlan,
};
use crate::slot::{SlotIndex, SlotTrack};
use crate::strategy::{
    batch_work, item_driven_work, MUTEX_SYNC_FACTOR, SEM_SYNC_FACTOR, YIELD_DVFS_FACTOR,
    YIELD_IDLE_PER_TICK, YIELD_TICK,
};
use pc_faults::{Fault, FaultKind, FaultPlan};
use pc_power::{account_cores, GovernorKind, Meter, PowerModel};
use pc_queues::elastic::Overflow;
use pc_queues::{ElasticBuffer, GlobalPool};
use pc_sim::event::EventId;
use pc_sim::{Core, CoreId, Engine, Popped, SimDuration, SimTime, TimerModel};
use pc_trace::{Trace, WorldCupConfig};
use pc_trace_events::{TraceEvent, TraceHandle, Trigger as TraceTrigger};
use std::sync::Arc;

/// Simulation timer events. Workload arrivals are not `Ev`s: they are
/// filed with [`Engine::schedule_arrival`] on the same timer wheel
/// (DESIGN.md §14) and surface as [`Popped::Arrival`] in the main loop,
/// keyed by pair index.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// An item-driven consumer finishes its current drain window.
    DrainDone { pair: usize },
    /// A PBP/SPBP periodic timer fires for `pair`.
    TimerFire { pair: usize },
    /// A PBPL core manager's armed slot fires on `core`.
    SlotWake { core: usize, slot: SlotIndex },
    /// Fault `f` of the active plan becomes effective.
    FaultStart { f: usize },
    /// Fault `f`'s window closes; its effects are rolled back.
    FaultEnd { f: usize },
    /// The fleet supervisor's periodic check fires (overload control
    /// only, DESIGN.md §15). Never scheduled when overload control is
    /// disabled, so default runs see no extra wheel traffic.
    SupervisorTick,
}

/// What triggered a consumer invocation (for the §VI-C wakeup split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    Scheduled,
    Overflow,
}

impl From<Trigger> for TraceTrigger {
    fn from(t: Trigger) -> TraceTrigger {
        match t {
            Trigger::Scheduled => TraceTrigger::Scheduled,
            Trigger::Overflow => TraceTrigger::Overflow,
        }
    }
}

/// Per-pair production timestamps. `Owned` when the run had to
/// materialise them (generated workloads, truncation, workload faults);
/// `Shared` is a zero-copy view into a fleet shared across sweep cells
/// (`pair` indexes the fleet), with the run horizon enforced at the
/// consumption site instead of by physical truncation.
enum PairTimes {
    Owned(Vec<SimTime>),
    Shared(Arc<Vec<Trace>>, usize),
}

impl PairTimes {
    #[inline]
    fn get(&self, idx: usize) -> Option<SimTime> {
        match self {
            PairTimes::Owned(v) => v.get(idx).copied(),
            PairTimes::Shared(fleet, pair) => fleet[*pair].get(idx),
        }
    }
}

struct PairState {
    // Hot fields first: the per-item produce path touches `times`,
    // `next_idx`, `buffer`/`backlog`, `busy_until` and `core` on every
    // arrival — grouping them keeps that working set on the pair's
    // leading cache lines; the cold predictor/watchdog tail below is
    // only touched on invocations (orders of magnitude rarer).
    times: PairTimes,
    next_idx: usize,
    core: usize,
    /// Consumer-side busy horizon (item-driven strategies).
    busy_until: SimTime,
    drain_pending: bool,
    /// Item-driven backlog (Mutex/Sem). Capacity is advisory only: the
    /// real producer would block, which is invisible to consumer-side
    /// power (§IV assumes producers are external processes).
    backlog: Vec<SimTime>,
    /// Bounded batch buffer (BP/PBP/SPBP/PBPL).
    buffer: Option<ElasticBuffer<SimTime>>,
    metrics: PairMetrics,
    predictor: Option<Box<dyn RatePredictor>>,
    last_invocation: SimTime,
    /// SPBP's absolute next nominal fire instant.
    periodic_anchor: SimTime,
    /// This consumer's maximum acceptable response latency (§IV-A);
    /// bounds how far ahead it may reserve.
    max_latency: SimDuration,
    /// Degradation watchdog (PBPL, `degrade.enabled` only): consecutive
    /// overflow wakes since the last scheduled one.
    consec_overflow: u32,
    /// Consecutive scheduled wakes while degraded (exit counter).
    consec_scheduled: u32,
    /// Whether the prediction-error watchdog has tripped.
    degraded: bool,
    /// Bounded-retry pool admission: an unsatisfied grow target and how
    /// many more plans may retry it before accepting current capacity.
    pending_grow: Option<(usize, u32)>,
}

/// Runtime state of the active fault plan. Present only when the plan is
/// non-empty, so zero-fault runs take the exact branches (and RNG draws)
/// of a build without fault injection.
struct FaultRuntime {
    faults: Vec<Fault>,
    /// Whether each fault is currently effective.
    active: Vec<bool>,
    /// Per-pair consumer service-time multiplier, fixed-point ×1000.
    work_x1000: Vec<u64>,
    /// Per-core additional timer-fire delay, nanoseconds.
    timer_delay_ns: Vec<u64>,
    /// Per-core count of active dropped-wakeup faults.
    drop_wake: Vec<u32>,
    /// Per-core wakeups swallowed while dropped (reported on recovery).
    swallowed: Vec<u64>,
    /// Per-fault, per-shard pool units actually squeezed away
    /// (`pool_squeeze` / `pool_squeeze_shard`): a provenance vector per
    /// fault, so recovery repays exactly the shards it drained.
    squeezed: Vec<Vec<usize>>,
}

/// Per-pair admission-controller state (DESIGN.md §15). All integer
/// arithmetic at integer sim-time: the decision sequence is a pure
/// function of the arrival stream, never of wall-clock or float
/// accumulation.
struct AdmissionState {
    /// Consecutive over-deadline arrivals (trip counter).
    consec_over: u32,
    /// Consecutive under-threshold arrivals (clear counter).
    consec_under: u32,
    /// Whether the pair is currently shedding.
    in_overload: bool,
    /// Whether the open window was forced by the fleet supervisor
    /// (escalation) rather than tripped by this pair's own estimator.
    escalated: bool,
    /// Items shed in the open window; reported by `OverloadCleared` so
    /// the oracle can cross-check it against the `ItemShed` count.
    shed_in_window: u64,
}

impl AdmissionState {
    fn new() -> Self {
        AdmissionState {
            consec_over: 0,
            consec_under: 0,
            in_overload: false,
            escalated: false,
            shed_in_window: 0,
        }
    }
}

/// Runtime state of the overload-control layer (DESIGN.md §15). Present
/// only when [`OverloadConfig::enabled`] — disabled runs take the exact
/// branches of a build without overload control, which is what keeps
/// `suite.json`/`chaos.json`/`scale.json` byte-identical (the same
/// `Option` inertness pattern as [`FaultRuntime`]).
struct OverloadRuntime {
    cfg: OverloadConfig,
    admission: Vec<AdmissionState>,
    /// Fleet-wide escalation latch: while set, per-pair windows cannot
    /// clear (arrivals keep shedding) until the supervisor de-escalates.
    fleet_shed: bool,
    /// `items_consumed` per pair at the previous supervisor tick.
    last_consumed: Vec<u64>,
    /// Consecutive ticks without consume progress while items buffered.
    stuck_ticks: Vec<u32>,
}

struct Sim {
    strategy: StrategyKind,
    power: PowerModel,
    governor: GovernorKind,
    cost: CostModel,
    timer: TimerModel,
    end: SimTime,
    engine: Engine<Ev>,
    cores: Vec<Core>,
    core_busy_until: Vec<SimTime>,
    managers: Vec<ShardedCoreManager>,
    slot_timer: Vec<Option<(EventId, SlotIndex)>>,
    pairs: Vec<PairState>,
    /// Pair indices hosted on each core (fixed assignment), so hot paths
    /// never re-derive it.
    pairs_by_core: Vec<Vec<usize>>,
    base_capacity: usize,
    scratch: Vec<SimTime>,
    /// Kept alive so buffers can borrow/return against it; also used by
    /// conservation assertions in tests.
    _pool: Option<Arc<GlobalPool>>,
    /// Active fault plan, `None` on zero-fault runs.
    faults: Option<FaultRuntime>,
    /// Overload-control layer, `None` unless explicitly enabled.
    overload: Option<OverloadRuntime>,
    /// Event-trace handle (disabled unless the builder attached one).
    trace: TraceHandle,
}

impl Sim {
    fn pbpl_config(&self) -> Option<&PbplConfig> {
        match &self.strategy {
            StrategyKind::Pbpl(cfg) => Some(cfg),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Applies the pair's active service-time inflation (integer ×1000
    /// fixed point; exact identity at the nominal 1000).
    fn inflate_work(&self, i: usize, work: SimDuration) -> SimDuration {
        match &self.faults {
            Some(fr) if fr.work_x1000[i] != 1000 => SimDuration::from_nanos(
                ((work.as_nanos() as u128 * fr.work_x1000[i] as u128) / 1000) as u64,
            ),
            _ => work,
        }
    }

    /// Extra timer-fire delay currently injected on `core`.
    fn fault_timer_delay(&self, core: usize) -> SimDuration {
        match &self.faults {
            Some(fr) => SimDuration::from_nanos(fr.timer_delay_ns[core]),
            None => SimDuration::ZERO,
        }
    }

    /// Whether scheduled wakeups on `core` are currently being swallowed.
    fn wake_dropped(&self, core: usize) -> bool {
        matches!(&self.faults, Some(fr) if fr.drop_wake[core] > 0)
    }

    /// Counts one swallowed wakeup on `core` (reported on recovery).
    fn count_swallowed(&mut self, core: usize) {
        if let Some(fr) = self.faults.as_mut() {
            fr.swallowed[core] += 1;
        }
    }

    /// Pool units available, or `u64::MAX` when the strategy has no pool
    /// (the oracle skips pool accounting on that sentinel).
    fn pool_available_u64(&self) -> u64 {
        self._pool
            .as_ref()
            .map_or(u64::MAX, |p| p.available() as u64)
    }

    /// A fault window opens: make its effect live and trace the
    /// injection. Targets outside the run's pair/core range are ignored
    /// (arbitrary plans in property tests), but still traced.
    fn fault_start(&mut self, f: usize) {
        let fault = self
            .faults
            .as_ref()
            .expect("fault event without a plan")
            .faults[f];
        let mut param = fault.kind.param();
        match fault.kind {
            FaultKind::RateShock { .. } | FaultKind::ProducerStall { .. } => {
                // Workload faults were applied to the trace at build time;
                // the events only mark the window for observers.
            }
            FaultKind::ConsumerSlowdown { pair, factor_x1000 } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(x) = fr.work_x1000.get_mut(pair as usize) {
                    *x = factor_x1000.max(1000) as u64;
                }
            }
            FaultKind::TimerDrift { core, delay_ns } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(d) = fr.timer_delay_ns.get_mut(core as usize) {
                    *d = d.saturating_add(delay_ns);
                }
            }
            FaultKind::DroppedWakeup { core } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(c) = fr.drop_wake.get_mut(core as usize) {
                    *c += 1;
                }
            }
            FaultKind::PoolSqueeze { units } => {
                // Best-effort: grab what the pool has, up to the request.
                // Consumers degrade to their current capacity meanwhile.
                // Tracked acquisition walks every shard from 0, so the
                // grant equals what a single-counter pool would give.
                let pool = self._pool.clone();
                let fr = self.faults.as_mut().expect("checked above");
                let granted = match pool.as_ref() {
                    Some(p) => p.acquire_at(0, units as usize, &mut fr.squeezed[f]),
                    None => 0,
                };
                param = granted as u64;
            }
            FaultKind::PoolSqueezeShard { shard, units } => {
                // Shard-targeted squeeze: drains only the named sub-pool
                // (modulo the shard count), so the per-shard ledger — not
                // just the global one — absorbs the hit.
                let pool = self._pool.clone();
                let fr = self.faults.as_mut().expect("checked above");
                let granted = match pool.as_ref() {
                    Some(p) => p.acquire_shard(
                        shard as usize % p.shards(),
                        units as usize,
                        &mut fr.squeezed[f],
                    ),
                    None => 0,
                };
                param = granted as u64;
            }
        }
        self.faults.as_mut().expect("checked above").active[f] = true;
        let pool_available = self.pool_available_u64();
        self.trace.record(|| TraceEvent::FaultInjected {
            id: fault.id,
            kind: fault.kind.name().to_string(),
            pair: fault.kind.pair(),
            core: fault.kind.core(),
            param,
            pool_available,
        });
    }

    /// A fault window closes: roll its effect back, trace the recovery,
    /// and — for dropped wakeups — re-plan the core's timer from the
    /// reservation book, which stayed consistent throughout.
    fn fault_end(&mut self, f: usize) {
        let now = self.engine.now();
        let fault = self
            .faults
            .as_ref()
            .expect("fault event without a plan")
            .faults[f];
        let mut param = fault.kind.param();
        let mut rearm_core = None;
        match fault.kind {
            FaultKind::RateShock { .. } | FaultKind::ProducerStall { .. } => {}
            FaultKind::ConsumerSlowdown { pair, .. } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(x) = fr.work_x1000.get_mut(pair as usize) {
                    *x = 1000;
                }
            }
            FaultKind::TimerDrift { core, delay_ns } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(d) = fr.timer_delay_ns.get_mut(core as usize) {
                    *d = d.saturating_sub(delay_ns);
                }
            }
            FaultKind::DroppedWakeup { core } => {
                let fr = self.faults.as_mut().expect("checked above");
                if let Some(c) = fr.drop_wake.get_mut(core as usize) {
                    *c = c.saturating_sub(1);
                    param = fr.swallowed[core as usize];
                    if *c == 0 {
                        fr.swallowed[core as usize] = 0;
                        rearm_core = Some(core as usize);
                    }
                }
            }
            FaultKind::PoolSqueeze { .. } | FaultKind::PoolSqueezeShard { .. } => {
                let pool = self._pool.clone();
                let fr = self.faults.as_mut().expect("checked above");
                let held = &mut fr.squeezed[f];
                let granted: usize = held.iter().sum();
                param = granted as u64;
                if granted > 0 {
                    pool.as_ref()
                        .expect("squeeze granted implies a pool")
                        .restore_at(0, granted, held);
                }
            }
        }
        self.faults.as_mut().expect("checked above").active[f] = false;
        let pool_available = self.pool_available_u64();
        self.trace.record(|| TraceEvent::FaultRecovered {
            id: fault.id,
            kind: fault.kind.name().to_string(),
            pair: fault.kind.pair(),
            core: fault.kind.core(),
            param,
            pool_available,
        });
        if let Some(core) = rearm_core {
            // Dropped-wakeup recovery: the timer re-arms at the earliest
            // reservation; past slots fire immediately (now + 1ns) and
            // dispatch in order, so no reservation is ever stranded.
            self.ensure_scheduled(core, now);
        }
    }

    /// Claims the pair's core for `work` starting no earlier than `now`;
    /// returns the span actually occupied.
    fn occupy_core(&mut self, core: usize, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
        let start = now.max(self.core_busy_until[core]);
        let end = start.saturating_add(work);
        self.cores[core].add_active_span(start, end);
        self.core_busy_until[core] = end;
        (start, end)
    }

    fn schedule_next_produce(&mut self, i: usize) {
        let pair = &self.pairs[i];
        if let Some(t) = pair.times.get(pair.next_idx) {
            // Owned times are truncated to the horizon at build time; the
            // guard makes shared (untruncated) fleet views behave
            // identically.
            if t < self.end {
                // One pending arrival per pair: the cursor head, on the
                // wheel like any timer (DESIGN.md §14).
                self.engine.schedule_arrival(t, i as u32);
            }
        }
    }

    // ------------------------------------------------------------------
    // Item-driven strategies (Mutex, Sem)
    // ------------------------------------------------------------------

    fn sync_factor(&self) -> f64 {
        match self.strategy {
            StrategyKind::Sem => SEM_SYNC_FACTOR,
            _ => MUTEX_SYNC_FACTOR,
        }
    }

    /// Occupies the pair's core for `work`, then records the latencies of
    /// everything staged in `scratch` plus the drain sample. Returns the
    /// span end. Shared tail of every drain path.
    fn finish_drain(
        &mut self,
        i: usize,
        now: SimTime,
        work: SimDuration,
        capacity: usize,
    ) -> SimTime {
        let core = self.pairs[i].core;
        let (_start, end) = self.occupy_core(core, now, work);
        // Deadline misses are an overload-layer observable only; keep
        // the counting branch out of default runs entirely.
        if let Some(ol) = &self.overload {
            let d = ol.cfg.deadline;
            let misses = self
                .scratch
                .iter()
                .filter(|&&p| end.saturating_since(p) > d)
                .count() as u64;
            self.pairs[i].metrics.deadline_misses += misses;
        }
        let pair = &mut self.pairs[i];
        for k in 0..self.scratch.len() {
            pair.metrics.record_latency(self.scratch[k], end);
        }
        pair.metrics
            .record_drain(self.scratch.len() as u64, capacity);
        end
    }

    fn item_drain(&mut self, i: usize, now: SimTime) {
        let factor = self.sync_factor();
        let n = self.pairs[i].backlog.len() as u64;
        self.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger: TraceTrigger::Item,
            batch: n,
            capacity: self.base_capacity as u64,
        });
        let pair = &mut self.pairs[i];
        self.scratch.clear();
        self.scratch.append(&mut pair.backlog);
        // The sleep-entry tail is part of the wake session: the thread
        // re-checks the queue before truly blocking, so arrivals in this
        // window extend the session instead of causing a fresh wakeup.
        let work = self
            .inflate_work(i, item_driven_work(&self.power, n, factor))
            .saturating_add(self.power.sleep_entry);
        let end = self.finish_drain(i, now, work, self.base_capacity);
        let pair = &mut self.pairs[i];
        pair.busy_until = end;
        if !pair.drain_pending {
            pair.drain_pending = true;
            self.engine.schedule_at(end, Ev::DrainDone { pair: i });
        }
    }

    fn item_produce(&mut self, i: usize, t: SimTime) {
        // The engine clock just advanced to this arrival's timestamp, so
        // `t` *is* `now` — reusing it keeps the per-item path free of
        // engine reads (same in the other `*_produce` handlers).
        let now = t;
        let pair = &mut self.pairs[i];
        pair.backlog.push(t);
        // A pending DrainDone owns the wake session: at an exact tie
        // (now == busy_until) the continuation event drains this item
        // without a fresh thread wakeup.
        if now >= pair.busy_until && !pair.drain_pending {
            pair.metrics.item_wakeups += 1;
            pair.metrics.invocations += 1;
            self.item_drain(i, now);
        }
    }

    fn item_drain_done(&mut self, i: usize, now: SimTime) {
        self.pairs[i].drain_pending = false;
        if !self.pairs[i].backlog.is_empty() {
            // Same wake session: the core span abuts the previous one, so
            // no wakeup or invocation is counted.
            self.item_drain(i, now);
        }
    }

    // ------------------------------------------------------------------
    // Batch strategies (BP, PBP, SPBP)
    // ------------------------------------------------------------------

    /// Drains the pair's batch buffer, occupies the core, and records
    /// metrics. Returns the batch size.
    fn batch_drain(&mut self, i: usize, now: SimTime, trigger: Trigger) -> u64 {
        let pair = &mut self.pairs[i];
        pair.metrics.invocations += 1;
        match trigger {
            Trigger::Scheduled => pair.metrics.scheduled_wakeups += 1,
            Trigger::Overflow => pair.metrics.overflow_wakeups += 1,
        }
        let buffer = pair.buffer.as_mut().expect("batch strategy has a buffer");
        let capacity = buffer.capacity();
        self.scratch.clear();
        let n = buffer.drain_into(&mut self.scratch) as u64;
        self.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger: trigger.into(),
            batch: n,
            capacity: capacity as u64,
        });
        let work = self.inflate_work(i, batch_work(&self.power, n));
        self.finish_drain(i, now, work, capacity);
        n
    }

    fn bp_produce(&mut self, i: usize, t: SimTime) {
        let now = t; // clock == arrival timestamp on the produce path
        let pair = &mut self.pairs[i];
        let buffer = pair.buffer.as_mut().expect("BP has a buffer");
        buffer
            .push(t)
            .unwrap_or_else(|_| unreachable!("BP drains at full, before overflow"));
        if buffer.is_full() {
            // "The consumer waits until the buffer is full": the producer
            // signals it — in the paper's terms every BP wakeup is an
            // overflow.
            self.batch_drain(i, now, Trigger::Overflow);
        }
    }

    fn periodic_produce(&mut self, i: usize, t: SimTime) {
        let now = t; // clock == arrival timestamp on the produce path
        let pair = &mut self.pairs[i];
        let buffer = pair
            .buffer
            .as_mut()
            .expect("periodic strategy has a buffer");
        if let Err(Overflow(item)) = buffer.push(t) {
            // Buffer filled before the period expired: unscheduled wakeup
            // ("it requires logic to handle the overflow of the buffer
            // before a period expires", §III-A).
            self.batch_drain(i, now, Trigger::Overflow);
            let pair = &mut self.pairs[i];
            pair.buffer
                .as_mut()
                .expect("buffer persists")
                .push(item)
                .unwrap_or_else(|_| unreachable!("buffer was just drained"));
        }
    }

    fn periodic_fire(&mut self, i: usize, now: SimTime) {
        // A dropped-wakeup fault on the pair's core swallows the drain
        // but not the clock: the timer chain survives the outage and
        // overflow handling covers the backlog meanwhile.
        if self.wake_dropped(self.pairs[i].core) {
            let core = self.pairs[i].core;
            self.count_swallowed(core);
        } else {
            self.batch_drain(i, now, Trigger::Scheduled);
        }
        let period = match self.strategy {
            StrategyKind::Pbp { period } | StrategyKind::Spbp { period } => period,
            _ => unreachable!("TimerFire only armed for periodic strategies"),
        };
        // Both periodic strategies target the same nominal grid ("the
        // consumer processes the batch within fixed time intervals",
        // §III-A); the only difference is how accurately the timer hits
        // it — nanosleep jitter for PBP, signal accuracy for SPBP. That
        // isolation mirrors the paper's attribution of the PBP/SPBP gap
        // entirely to timer accuracy.
        let nominal = {
            let pair = &mut self.pairs[i];
            pair.periodic_anchor = pair.periodic_anchor.saturating_add(period);
            // If jitter pushed us past whole periods, skip them.
            while pair.periodic_anchor <= now {
                pair.periodic_anchor = pair.periodic_anchor.saturating_add(period);
            }
            pair.periodic_anchor
        };
        let fire = self
            .timer
            .fire_time(nominal, self.engine.rng())
            .max(now.saturating_add(SimDuration::from_nanos(1)))
            .saturating_add(self.fault_timer_delay(self.pairs[i].core));
        if fire < self.end {
            self.engine.schedule_at(fire, Ev::TimerFire { pair: i });
        }
    }

    // ------------------------------------------------------------------
    // PBPL (§V)
    // ------------------------------------------------------------------

    /// Post-drain planning: predict, pick a slot (Eq. 8 backtracking),
    /// resize the elastic buffer, reserve, and re-arm the core timer.
    ///
    /// `allow_shrink` is false when planning after an overflow: the
    /// prediction just proved too low, so releasing capacity would invite
    /// the next overflow immediately — the paper's resizing exists to
    /// *convert* overflows into scheduled wakeups, not to multiply them.
    fn pbpl_plan(&mut self, i: usize, now: SimTime, allow_shrink: bool) {
        let cfg = self.pbpl_config().expect("PBPL planning").clone();
        // Degraded mode (prediction-error watchdog, DESIGN.md §10): the
        // estimator is demonstrably underestimating, so size with a
        // boosted margin and never give capacity back until the exit
        // criterion clears. Inert unless `degrade.enabled` — or overload
        // control is on, which reuses the watchdog as its degrade arm
        // (DESIGN.md §15).
        let watchdog = self.degrade_active(cfg.degrade.enabled);
        let degraded = watchdog && self.pairs[i].degraded;
        let margin = if degraded {
            cfg.resize_margin * cfg.degrade.margin_boost
        } else {
            cfg.resize_margin
        };
        let allow_shrink = allow_shrink && !degraded;
        if watchdog {
            if degraded {
                // Degraded floor: reclaim the pair's base entitlement
                // while the watchdog is tripped. A buffer shrunk to the
                // inter-burst average is what turns the next cluster
                // into a run of consecutive overflows, and because slot
                // selection already plans with `capacity.max(base)`,
                // restoring the entitlement never delays this pair's
                // scheduled wakeups — it only converts overflows back.
                let base = self.base_capacity;
                let mut cap = {
                    let buffer = self.pairs[i].buffer.as_mut().expect("PBPL has a buffer");
                    if buffer.capacity() < base {
                        buffer.grow_to(base)
                    } else {
                        buffer.capacity()
                    }
                };
                while cap < base {
                    // Emergency rebalance: the pool is dry (inflated
                    // post-burst predictors keep every pair in
                    // grow-wanting mode, so nothing ever comes back),
                    // and this pair is demonstrably overflowing below
                    // its fair share B₀. Reclaim the deficit from the
                    // *most* over-provisioned non-degraded neighbour —
                    // every victim keeps at least its own entitlement,
                    // so its wakeups are never brought forward past the
                    // fair-share plan, and modestly-sized neighbours
                    // (whose headroom is their burst protection) are
                    // left alone for as long as possible.
                    let mut victim: Option<(usize, usize)> = None;
                    for j in 0..self.pairs.len() {
                        // A neighbour that is *actively* overflowing keeps
                        // its surplus; one merely sitting out the watchdog's
                        // recovery window is fair game — its headroom is
                        // idle while this pair is drowning.
                        if j == i || self.pairs[j].consec_overflow > 0 {
                            continue;
                        }
                        let Some(buffer) = self.pairs[j].buffer.as_ref() else {
                            continue;
                        };
                        let surplus = buffer.capacity().saturating_sub(base);
                        if surplus > 0 && victim.is_none_or(|(s, _)| surplus > s) {
                            victim = Some((surplus, j));
                        }
                    }
                    let Some((surplus, j)) = victim else { break };
                    let give = surplus.min(base - cap);
                    let buffer = self.pairs[j].buffer.as_mut().expect("checked above");
                    buffer.shrink_to(buffer.capacity() - give);
                    let regrown = self.pairs[i]
                        .buffer
                        .as_mut()
                        .expect("PBPL has a buffer")
                        .grow_to(base);
                    if regrown == cap {
                        // The victim's occupancy floor blocked the
                        // shrink; no progress is possible this plan.
                        break;
                    }
                    cap = regrown;
                }
            }
            // Bounded-retry pool admission: a grow the squeezed pool
            // denied earlier is retried a few plans, then dropped —
            // degrade to current capacity rather than insist.
            if let Some((want, left)) = self.pairs[i].pending_grow {
                let buffer = self.pairs[i].buffer.as_mut().expect("PBPL has a buffer");
                if buffer.capacity() >= want || left == 0 {
                    self.pairs[i].pending_grow = None;
                } else {
                    let got = buffer.grow_to(want);
                    self.pairs[i].pending_grow = (got < want).then_some((want, left - 1));
                }
            }
        }
        let core = self.pairs[i].core;
        let rate = self.pairs[i]
            .predictor
            .as_ref()
            .expect("PBPL consumer has a predictor")
            .rate();
        // Selection plans with the consumer's *entitlement* — at least
        // its fair share B₀ — not its currently-shrunk allocation:
        // downsized space is a loan to the pool that `plan_resize` below
        // reclaims before the predicted items arrive. Planning with the
        // shrunk size would collapse the fill horizon after every latch
        // and degrade PBPL into per-slot polling.
        let capacity = self.pairs[i]
            .buffer
            .as_ref()
            .expect("PBPL consumer has a buffer")
            .capacity()
            .max(self.base_capacity);
        let track = *self.managers[core].track();
        let max_latency = self.pairs[i].max_latency;

        let mut choice = select_slot(
            &track,
            &self.managers[core],
            &self.cost,
            now,
            rate,
            capacity,
            max_latency,
            cfg.latching,
            Some(PairId(i)),
        );
        // §V-C: the overrun flag of the *initial* selection is what
        // triggers upsizing; report it even when the re-selection below
        // settles on a comfortable slot.
        let rate_overrun = choice.rate_overrun;
        if cfg.resizing {
            let buffer = self.pairs[i].buffer.as_mut().expect("checked above");
            if choice.rate_overrun {
                // §V-C upsizing: the predicted rate cannot be served by
                // the current buffer before any slot — request space to
                // survive one slot past the earliest (the paper's
                // Bᵢ = min(pool, r̂·(τ_next − τ_now)), with one slot of
                // headroom so there is something left to batch) and
                // re-plan with what the pool granted.
                let next_start = track.slot_start(track.next_slot_after(now) + 1);
                let want = overrun_target(rate, now, next_start, margin);
                let granted = buffer.grow_to(want);
                if watchdog && granted < want {
                    self.pairs[i].pending_grow = Some((want, cfg.degrade.grow_retries));
                }
                choice = select_slot(
                    &track,
                    &self.managers[core],
                    &self.cost,
                    now,
                    rate,
                    granted,
                    max_latency,
                    cfg.latching,
                    Some(PairId(i)),
                );
            }
            let buffer = self.pairs[i].buffer.as_mut().expect("checked above");
            // Size for the reservation *plus one slot of post-wake
            // refill*. Sizing to the reserved slot alone (the paper's
            // literal formula) interacts badly with latching: a latch
            // onto a near slot predicts few items, the buffer shrinks to
            // a handful, and the next burst overflows it — an
            // oscillation that converts scheduled wakeups back into
            // overflows, the opposite of the algorithm's goal.
            let predicted = predicted_fill_items(rate, now, track.slot_start(choice.slot + 1));
            // A zero prediction means the estimator has no signal yet (or
            // a genuinely silent producer); sizing to it would shrink the
            // buffer to nothing on bootstrap. Keep the allocation.
            if predicted > 0.0 {
                match plan_resize(buffer.capacity(), predicted, margin) {
                    ResizePlan::Shrink(target) if allow_shrink => {
                        buffer.shrink_to(target);
                    }
                    ResizePlan::Shrink(_) => {}
                    ResizePlan::Grow(target) => {
                        buffer.grow_to(target);
                    }
                    ResizePlan::Keep => {}
                }
            }
        }
        self.trace.record(|| TraceEvent::SlotSelect {
            pair: i as u32,
            core: core as u32,
            slot: choice.slot,
            latched: choice.latched,
            rate_overrun,
        });
        self.managers[core].reserve(choice.slot, PairId(i));
        self.ensure_scheduled(core, now);
    }

    fn pbpl_invoke(&mut self, i: usize, now: SimTime, trigger: Trigger) {
        let n = self.batch_drain(i, now, trigger);
        let pair = &mut self.pairs[i];
        let dt = now.saturating_since(pair.last_invocation);
        pair.last_invocation = now;
        pair.predictor
            .as_mut()
            .expect("PBPL consumer has a predictor")
            .observe(n, dt);
        let degrade = self.pbpl_config().expect("PBPL invoke").degrade;
        if self.degrade_active(degrade.enabled) {
            // Prediction-error watchdog: consecutive overflows trip
            // degraded mode; consecutive scheduled wakes clear it.
            let pair = &mut self.pairs[i];
            match trigger {
                Trigger::Overflow => {
                    pair.consec_scheduled = 0;
                    pair.consec_overflow += 1;
                    if pair.consec_overflow >= degrade.overflow_threshold {
                        pair.degraded = true;
                    }
                }
                Trigger::Scheduled => {
                    pair.consec_overflow = 0;
                    if pair.degraded {
                        pair.consec_scheduled += 1;
                        if pair.consec_scheduled >= degrade.recovery_wakes {
                            pair.degraded = false;
                            pair.consec_scheduled = 0;
                        }
                    }
                }
            }
        }
        self.pbpl_plan(i, now, trigger != Trigger::Overflow);
    }

    fn pbpl_produce(&mut self, i: usize, t: SimTime) {
        let now = t; // clock == arrival timestamp on the produce path
        let pair = &mut self.pairs[i];
        let buffer = pair.buffer.as_mut().expect("PBPL has a buffer");
        if let Err(Overflow(item)) = buffer.push(t) {
            self.pbpl_invoke(i, now, Trigger::Overflow);
            let pair = &mut self.pairs[i];
            pair.buffer
                .as_mut()
                .expect("buffer persists")
                .push(item)
                .unwrap_or_else(|_| unreachable!("buffer was just drained"));
            // The overflow woke the core regardless; let neighbours latch
            // onto it (§V-A group latching) and re-arm the slot timer.
            // The overflowing consumer itself just drained — excluding it
            // avoids a zero-dt double invocation when its buffer is tiny.
            let core = self.pairs[i].core;
            self.pbpl_piggyback(core, now, Some(i));
            self.ensure_scheduled(core, now);
        }
    }

    fn slot_wake(&mut self, core: usize, slot: SlotIndex, now: SimTime) {
        self.slot_timer[core] = None;
        if self.wake_dropped(core) {
            // The scheduled wakeup is swallowed: no dispatch, no re-arm.
            // Reservations stay in the book; recovery (or overflow wakes
            // meanwhile, or the end-of-run flush) picks them back up.
            self.count_swallowed(core);
            return;
        }
        let due = self.managers[core].take_due(slot);
        for consumer in due {
            self.pbpl_invoke(consumer.0, now, Trigger::Scheduled);
        }
        self.pbpl_piggyback(core, now, None);
        self.ensure_scheduled(core, now);
    }

    /// Group latching on an already-awake core: "if the CPU is already
    /// awake at a specific point in time, then it is beneficial to
    /// schedule consumers to be invoked at that same time" (§V-A). Any
    /// consumer on this core that has accumulated a meaningful batch
    /// drains now for free — w = 0 in ρ — which both cancels its own
    /// pending wakeup (its re-reservation moves a full buffer-fill into
    /// the future) and lets it shrink toward an empty-buffer prediction,
    /// feeding the pool that bursting neighbours draw on.
    fn pbpl_piggyback(&mut self, core: usize, now: SimTime, exclude: Option<usize>) {
        let Some(cfg) = self.pbpl_config() else {
            return;
        };
        if !cfg.latching || !cfg.piggyback {
            return;
        }
        for k in 0..self.pairs_by_core[core].len() {
            let i = self.pairs_by_core[core][k];
            if Some(i) == exclude {
                continue;
            }
            let pair = &self.pairs[i];
            let Some(buffer) = pair.buffer.as_ref() else {
                continue;
            };
            if buffer.len() * 8 < buffer.capacity() {
                continue; // not enough batched to be worth a dispatch
            }
            self.pbpl_invoke(i, now, Trigger::Scheduled);
        }
    }

    /// Arms (or re-targets) the core's single timer at its earliest
    /// reserved slot — "the core manager will schedule the next slot with
    /// at least one reservation" (§V-B).
    fn ensure_scheduled(&mut self, core: usize, now: SimTime) {
        if self.wake_dropped(core) {
            // The core's timer hardware is "dead" for the fault window:
            // nothing new gets armed (an already-armed timer is swallowed
            // at fire time). Recovery re-enters here via `fault_end`.
            return;
        }
        let want = self.managers[core].first_reserved();
        let current = self.slot_timer[core];
        match (current, want) {
            (Some((_, s)), Some(w)) if s == w => {}
            (current, Some(w)) => {
                if let Some((id, _)) = current {
                    self.engine.cancel(id);
                }
                let nominal = self.managers[core].track().slot_start(w);
                let fire = self
                    .timer
                    .fire_time(nominal, self.engine.rng())
                    .max(now.saturating_add(SimDuration::from_nanos(1)))
                    .saturating_add(self.fault_timer_delay(core));
                if fire >= self.end {
                    // The run ends before this slot; the end-of-run flush
                    // drains whatever would have been batched there.
                    self.slot_timer[core] = None;
                    return;
                }
                let id = self
                    .engine
                    .schedule_at(fire, Ev::SlotWake { core, slot: w });
                self.slot_timer[core] = Some((id, w));
            }
            (Some((id, _)), None) => {
                self.engine.cancel(id);
                self.slot_timer[core] = None;
            }
            (None, None) => {}
        }
    }

    // ------------------------------------------------------------------
    // Busy strategies (BW, Yield)
    // ------------------------------------------------------------------

    fn busy_produce(&mut self, i: usize, t: SimTime) {
        // Spinning consumers observe items immediately.
        let pair = &mut self.pairs[i];
        pair.metrics.items_consumed += 1;
        pair.metrics.record_latency(t, t);
        self.trace.record(|| TraceEvent::Invoke {
            pair: i as u32,
            trigger: TraceTrigger::Item,
            batch: 1,
            capacity: 0,
        });
    }

    // ------------------------------------------------------------------
    // Overload control (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Items currently buffered at the pair (backlog or batch buffer),
    /// whichever the strategy uses.
    fn occupancy(&self, i: usize) -> u64 {
        let pair = &self.pairs[i];
        pair.backlog.len() as u64 + pair.buffer.as_ref().map_or(0, |b| b.len() as u64)
    }

    /// Whether PBPL's prediction-error watchdog machinery is live. The
    /// overload layer reuses it as its degrade arm (ISSUE: "degrade for
    /// any strategy"): enabling overload control activates the watchdog
    /// with the strategy's `DegradeConfig` knobs even when
    /// `degrade.enabled` is false. Inert when overload is `None`.
    fn degrade_active(&self, degrade_enabled: bool) -> bool {
        degrade_enabled || self.overload.is_some()
    }

    /// How far behind the pair's consumer is at `now`: the gap from
    /// `now` to its service horizon — the later of the consumer's own
    /// busy spell (item-driven strategies) and its core's busy horizon
    /// (batching strategies occupy the core directly). Zero whenever the
    /// consumer could start serving a new item immediately, which is the
    /// healthy steady state under any sustainable load.
    fn service_lag_ns(&self, i: usize, now: SimTime) -> u64 {
        let pair = &self.pairs[i];
        let horizon = pair.busy_until.max(self.core_busy_until[pair.core]);
        horizon.saturating_since(now).as_nanos()
    }

    /// Admission decision for one arrival (only called when overload
    /// control is enabled). Applies the trip/clear hysteresis over the
    /// measured service lag, emits the window-edge events, and returns
    /// whether the item is admitted. An item admitted while the lag
    /// already exceeds the deadline cannot *start* service inside the
    /// deadline — shedding it sheds a guaranteed miss, never viable
    /// work.
    fn overload_admit(&mut self, i: usize, t: SimTime) -> bool {
        let occupancy = self.occupancy(i);
        let lag_ns = self.service_lag_ns(i, t);
        let ol = self.overload.as_mut().expect("admission requires overload");
        let cfg = ol.cfg;
        let fleet_shed = ol.fleet_shed;
        let st = &mut ol.admission[i];
        let deadline_ns = cfg.deadline.as_nanos();
        if st.in_overload {
            // Clear hysteresis: the lag must sit well below the
            // deadline (clear_pct of it) for clear_arrivals consecutive
            // arrivals. A *self-tripped* window clears on that measured
            // recovery alone — holding it hostage to the fleet latch
            // would deadlock (de-escalation needs the self-tripped
            // share to fall, which needs clears). Only *escalated*
            // windows stay latched while the fleet sheds: their pairs
            // never tripped, so their low lag says nothing about the
            // correlated overload that opened them.
            let under = lag_ns <= deadline_ns.saturating_mul(cfg.clear_pct as u64) / 100;
            if under {
                st.consec_under += 1;
            } else {
                st.consec_under = 0;
            }
            if st.consec_under >= cfg.clear_arrivals && !(fleet_shed && st.escalated) {
                st.in_overload = false;
                st.escalated = false;
                st.consec_under = 0;
                st.consec_over = 0;
                let shed = std::mem::take(&mut st.shed_in_window);
                self.trace.record(|| TraceEvent::OverloadCleared {
                    pair: i as u32,
                    shed,
                });
                true
            } else {
                st.shed_in_window += 1;
                false
            }
        } else {
            let over = lag_ns > deadline_ns;
            if over {
                st.consec_over += 1;
            } else {
                st.consec_over = 0;
            }
            if st.consec_over >= cfg.trip_arrivals {
                st.in_overload = true;
                st.escalated = false;
                st.consec_over = 0;
                st.consec_under = 0;
                // The tripping arrival itself is shed.
                st.shed_in_window = 1;
                self.pairs[i].metrics.overload_windows += 1;
                self.trace.record(|| TraceEvent::OverloadEntered {
                    pair: i as u32,
                    occupancy,
                    escalated: false,
                });
                false
            } else {
                true
            }
        }
    }

    /// Fleet-supervisor tick: detect stuck pairs (no consume progress
    /// across `stuck_ticks` ticks while items sit buffered) and kick
    /// them with a strategy-appropriate emergency drain; escalate
    /// shedding fleet-wide when the self-tripped share reaches
    /// `escalate_pct` of the fleet, de-escalate at half that.
    fn supervisor_tick(&mut self, now: SimTime) {
        let m = self.pairs.len();
        let mut stuck: Vec<usize> = Vec::new();
        let mut tripped = 0usize;
        let Some(ol) = self.overload.as_mut() else {
            return;
        };
        let cfg = ol.cfg;
        for i in 0..m {
            let pair = &self.pairs[i];
            let occupancy =
                pair.backlog.len() as u64 + pair.buffer.as_ref().map_or(0, |b| b.len() as u64);
            let consumed = pair.metrics.items_consumed;
            if occupancy > 0 && consumed == ol.last_consumed[i] {
                ol.stuck_ticks[i] += 1;
            } else {
                ol.stuck_ticks[i] = 0;
            }
            ol.last_consumed[i] = consumed;
            if ol.stuck_ticks[i] >= cfg.stuck_ticks {
                ol.stuck_ticks[i] = 0;
                stuck.push(i);
            }
            let st = &ol.admission[i];
            if st.in_overload && !st.escalated {
                tripped += 1;
            }
        }
        // Correlated-overload escalation. Only self-tripped windows
        // count toward the census, so escalation cannot sustain itself;
        // the latch opens again once the underlying overload drains.
        if !ol.fleet_shed && m > 1 && tripped * 100 >= cfg.escalate_pct as usize * m {
            ol.fleet_shed = true;
            for i in 0..m {
                let st = &mut ol.admission[i];
                if !st.in_overload {
                    st.in_overload = true;
                    st.escalated = true;
                    st.consec_over = 0;
                    st.consec_under = 0;
                    st.shed_in_window = 0;
                    let occupancy = self.pairs[i].backlog.len() as u64
                        + self.pairs[i].buffer.as_ref().map_or(0, |b| b.len() as u64);
                    self.pairs[i].metrics.overload_windows += 1;
                    self.trace.record(|| TraceEvent::OverloadEntered {
                        pair: i as u32,
                        occupancy,
                        escalated: true,
                    });
                }
            }
        } else if ol.fleet_shed && tripped * 100 * 2 < cfg.escalate_pct as usize * m {
            ol.fleet_shed = false;
            for i in 0..m {
                let st = &mut ol.admission[i];
                if st.in_overload && st.escalated {
                    st.in_overload = false;
                    st.escalated = false;
                    st.consec_over = 0;
                    st.consec_under = 0;
                    let shed = std::mem::take(&mut st.shed_in_window);
                    self.trace.record(|| TraceEvent::OverloadCleared {
                        pair: i as u32,
                        shed,
                    });
                }
            }
        }
        // Emergency drains for stuck pairs. Strategy-agnostic: whatever
        // the pair buffers gets force-dispatched now; PBPL additionally
        // trips its degrade watchdog so subsequent plans run with the
        // boosted margin and emergency rebalance.
        for i in stuck {
            match self.strategy {
                StrategyKind::Mutex | StrategyKind::Sem => {
                    let pair = &self.pairs[i];
                    if !pair.backlog.is_empty() && !pair.drain_pending && now >= pair.busy_until {
                        let pair = &mut self.pairs[i];
                        pair.metrics.item_wakeups += 1;
                        pair.metrics.invocations += 1;
                        self.item_drain(i, now);
                    }
                }
                StrategyKind::Bp | StrategyKind::Pbp { .. } | StrategyKind::Spbp { .. } => {
                    if self.pairs[i].buffer.as_ref().is_some_and(|b| !b.is_empty()) {
                        self.batch_drain(i, now, Trigger::Overflow);
                    }
                }
                StrategyKind::Pbpl(_) => {
                    if self.pairs[i].buffer.as_ref().is_some_and(|b| !b.is_empty()) {
                        self.pairs[i].degraded = true;
                        self.pbpl_invoke(i, now, Trigger::Overflow);
                    }
                }
                StrategyKind::BusyWait | StrategyKind::Yield => {}
            }
        }
        let next = now.saturating_add(cfg.supervisor_period);
        if next < self.end {
            self.engine.schedule_at(next, Ev::SupervisorTick);
        }
    }

    // ------------------------------------------------------------------
    // Driver
    // ------------------------------------------------------------------

    /// Handles a popped workload arrival for `pair` at time `t` (the
    /// engine clock already sits at `t`). This is the hot path — at
    /// fleet scale 85–95 % of all pops land here — so it takes the
    /// popped timestamp directly instead of re-reading the cursor or
    /// the engine clock.
    fn produce(&mut self, pair: usize, t: SimTime) {
        debug_assert_eq!(
            self.pairs[pair].times.get(self.pairs[pair].next_idx),
            Some(t),
            "arrival time must match the pair's cursor head"
        );
        self.pairs[pair].next_idx += 1;
        self.pairs[pair].metrics.items_produced += 1;
        self.trace
            .record(|| TraceEvent::Produce { pair: pair as u32 });
        // Admission control (DESIGN.md §15): a shed item still counts as
        // produced (the `Produce` event above already fired) but never
        // reaches the strategy — conservation becomes
        // `produced == consumed + shed`. The arrival pop ledger is
        // untouched: the arrival was popped either way, and the next one
        // is scheduled below exactly as for an admitted item.
        if self.overload.is_some() && !self.overload_admit(pair, t) {
            self.pairs[pair].metrics.items_shed += 1;
            self.trace
                .record(|| TraceEvent::ItemShed { pair: pair as u32 });
            self.schedule_next_produce(pair);
            return;
        }
        match self.strategy {
            StrategyKind::BusyWait | StrategyKind::Yield => self.busy_produce(pair, t),
            StrategyKind::Mutex | StrategyKind::Sem => self.item_produce(pair, t),
            StrategyKind::Bp => self.bp_produce(pair, t),
            StrategyKind::Pbp { .. } | StrategyKind::Spbp { .. } => self.periodic_produce(pair, t),
            StrategyKind::Pbpl(_) => self.pbpl_produce(pair, t),
        }
        self.schedule_next_produce(pair);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::DrainDone { pair } => {
                let now = self.engine.now();
                self.item_drain_done(pair, now);
            }
            Ev::TimerFire { pair } => {
                let now = self.engine.now();
                self.periodic_fire(pair, now);
            }
            Ev::SlotWake { core, slot } => {
                let now = self.engine.now();
                self.slot_wake(core, slot, now);
            }
            Ev::FaultStart { f } => self.fault_start(f),
            Ev::FaultEnd { f } => self.fault_end(f),
            Ev::SupervisorTick => {
                let now = self.engine.now();
                self.supervisor_tick(now);
            }
        }
    }

    fn run(mut self) -> RunMetrics {
        // Fault windows: both edges are plain events at integer sim-time.
        // Edges at or past end-of-run are swept up by the cleanup below.
        if let Some(fr) = &self.faults {
            let edges: Vec<(usize, u64, u64)> = fr
                .faults
                .iter()
                .enumerate()
                .map(|(f, fault)| (f, fault.start_ns, fault.end_ns))
                .collect();
            for (f, start_ns, end_ns) in edges {
                if start_ns >= end_ns {
                    continue;
                }
                let start = SimTime::from_nanos(start_ns);
                if start < self.end {
                    self.engine.schedule_at(start, Ev::FaultStart { f });
                    let end = SimTime::from_nanos(end_ns);
                    if end < self.end {
                        self.engine.schedule_at(end, Ev::FaultEnd { f });
                    }
                }
            }
        }
        // Fleet supervisor: one periodic wheel event, armed only when
        // overload control is enabled — default runs never see it.
        if let Some(ol) = &self.overload {
            let first = SimTime::ZERO.saturating_add(ol.cfg.supervisor_period);
            if first < self.end {
                self.engine.schedule_at(first, Ev::SupervisorTick);
            }
        }
        // Strategy-specific setup.
        match &self.strategy {
            StrategyKind::BusyWait => {
                let occupied: Vec<usize> = self.occupied_cores();
                for c in occupied {
                    self.cores[c].add_active_span(SimTime::ZERO, self.end);
                    self.core_busy_until[c] = self.end;
                }
            }
            StrategyKind::Yield => {
                let occupied: Vec<usize> = self.occupied_cores();
                for c in occupied {
                    let mut t = SimTime::ZERO;
                    let busy = YIELD_TICK.saturating_sub(YIELD_IDLE_PER_TICK);
                    while t < self.end {
                        let span_end = (t + busy).min(self.end);
                        self.cores[c].add_active_span(t, span_end);
                        t += YIELD_TICK;
                    }
                    self.core_busy_until[c] = self.end;
                }
            }
            StrategyKind::Pbp { period } | StrategyKind::Spbp { period } => {
                let period = *period;
                for i in 0..self.pairs.len() {
                    self.pairs[i].periodic_anchor = SimTime::ZERO + period;
                    let fire = self
                        .timer
                        .fire_time(SimTime::ZERO + period, self.engine.rng());
                    self.engine.schedule_at(fire, Ev::TimerFire { pair: i });
                }
            }
            StrategyKind::Pbpl(_) => {
                for i in 0..self.pairs.len() {
                    self.pbpl_plan(i, SimTime::ZERO, true);
                }
            }
            _ => {}
        }
        for i in 0..self.pairs.len() {
            self.schedule_next_produce(i);
        }

        while let Some((t, popped)) = self.engine.next_merged_before(self.end) {
            match popped {
                Popped::Arrival(pair) => self.produce(pair as usize, t),
                Popped::Timer(ev) => self.handle(ev),
            }
        }
        self.engine.advance_to(self.end);

        // Faults still active at end-of-run recover now, *before* the
        // flush and buffer teardown: squeezed pool units go back and the
        // `FaultRecovered` events precede every `BufferDestroy`, so the
        // oracle's conservation ledger balances at each step.
        if let Some(fr) = &self.faults {
            let open: Vec<usize> = (0..fr.faults.len()).filter(|&f| fr.active[f]).collect();
            for f in open {
                self.fault_end(f);
            }
        }

        // Overload windows still open at end-of-run force-clear now,
        // before the flush: every `OverloadEntered` gets its matching
        // `OverloadCleared` and the per-window shed tally closes
        // (mirrors the fault force-recovery above).
        if let Some(ol) = self.overload.as_mut() {
            for i in 0..ol.admission.len() {
                let st = &mut ol.admission[i];
                if st.in_overload {
                    st.in_overload = false;
                    st.escalated = false;
                    let shed = std::mem::take(&mut st.shed_in_window);
                    self.trace.record(|| TraceEvent::OverloadCleared {
                        pair: i as u32,
                        shed,
                    });
                }
            }
        }

        // End-of-run flush: account for items still buffered so the
        // conservation invariant (produced == consumed + shed) holds. No
        // wakeups or core spans are charged — the run is over.
        let deadline = self.overload.as_ref().map(|ol| ol.cfg.deadline);
        for (i, pair) in self.pairs.iter_mut().enumerate() {
            let mut leftovers = Vec::new();
            pair.backlog.drain(..).for_each(|t| leftovers.push(t));
            if let Some(buffer) = pair.buffer.as_mut() {
                buffer.drain_into(&mut leftovers);
            }
            if !leftovers.is_empty() {
                for &t in &leftovers {
                    pair.metrics.record_latency(t, self.end);
                }
                if let Some(d) = deadline {
                    let end = self.end;
                    pair.metrics.deadline_misses += leftovers
                        .iter()
                        .filter(|&&t| end.saturating_since(t) > d)
                        .count() as u64;
                }
                pair.metrics.items_consumed += leftovers.len() as u64;
                self.trace.record(|| TraceEvent::Flush {
                    pair: i as u32,
                    drained: leftovers.len() as u64,
                });
            }
        }

        let end = self.end;
        let slot_fires: u64 = self.managers.iter().map(|m| m.scheduled_wakeups()).sum();
        let reports: Vec<_> = self.cores.into_iter().map(|c| c.finish(end)).collect();
        let governor = self.governor;
        let mut energy = account_cores(&reports, &self.power, || governor.build());
        if matches!(self.strategy, StrategyKind::Yield) {
            // §III-C: DVFS steps the clock down under constant yielding;
            // discount the active-time energy accordingly.
            let active_secs: f64 = reports.iter().map(|r| r.active_time.as_secs_f64()).sum();
            energy.energy_j -= active_secs * self.power.active_power_w * (1.0 - YIELD_DVFS_FACTOR);
        }
        let meter = Meter::aggregate(&reports);
        let items_consumed = self.pairs.iter().map(|p| p.metrics.items_consumed).sum();
        let items_produced = self.pairs.iter().map(|p| p.metrics.items_produced).sum();
        let items_shed: u64 = self.pairs.iter().map(|p| p.metrics.items_shed).sum();
        let mut scheduler = self.engine.queue_stats();
        // Stamped by the Sim at teardown, like the engine stamps the
        // arrival counters: sheds happen after the pop, so they
        // sit outside the ledger equation but ride the same struct.
        scheduler.items_shed = items_shed;
        // Every scheduled event (timer or arrival) must be accounted for:
        // popped, cancelled, or still pending at teardown (events past
        // `end`, e.g. a DrainDone continuation of the final drain).
        // Silent losses would mean the wheel dropped work.
        assert!(
            scheduler.ledger_balanced(),
            "scheduler event ledger out of balance: {scheduler:?}"
        );
        RunMetrics {
            strategy: self.strategy.name().to_string(),
            duration: end.saturating_since(SimTime::ZERO),
            pairs: self.pairs.into_iter().map(|p| p.metrics).collect(),
            core_reports: reports,
            energy,
            meter,
            items_consumed,
            items_produced,
            items_shed,
            slot_fires,
            scheduler,
        }
    }

    fn occupied_cores(&self) -> Vec<usize> {
        let mut seen = vec![false; self.cores.len()];
        for p in &self.pairs {
            seen[p.core] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect()
    }
}

/// Namespace entry point: `Experiment::builder()…run()`.
pub struct Experiment;

impl Experiment {
    /// Starts configuring an experiment run.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }
}

/// Explicit traces handed to the builder: owned, or a fleet shared with
/// other concurrent runs (sweep cells differing only in strategy).
#[derive(Debug, Clone)]
enum ExplicitTraces {
    Owned(Vec<Trace>),
    Shared(Arc<Vec<Trace>>),
}

impl ExplicitTraces {
    fn as_slice(&self) -> &[Trace] {
        match self {
            ExplicitTraces::Owned(ts) => ts,
            ExplicitTraces::Shared(ts) => ts,
        }
    }
}

/// Builder for a single simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    pairs: usize,
    cores: usize,
    duration: SimDuration,
    strategy: StrategyKind,
    trace_cfg: WorldCupConfig,
    explicit_traces: Option<ExplicitTraces>,
    seed: u64,
    power: PowerModel,
    buffer_capacity: usize,
    governor: GovernorKind,
    max_latencies: Option<Vec<SimDuration>>,
    trace_events: TraceHandle,
    faults: FaultPlan,
    shards: usize,
    overload: OverloadConfig,
}

impl Default for ExperimentBuilder {
    fn default() -> Self {
        ExperimentBuilder {
            pairs: 2,
            cores: 2,
            duration: SimDuration::from_secs(1),
            strategy: StrategyKind::pbpl_default(),
            trace_cfg: WorldCupConfig::paper_default(),
            explicit_traces: None,
            seed: 42,
            power: PowerModel::exynos_like(),
            buffer_capacity: 50,
            governor: GovernorKind::Oracle,
            max_latencies: None,
            trace_events: TraceHandle::disabled(),
            faults: FaultPlan::empty(),
            shards: 1,
            overload: OverloadConfig::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Number of producer-consumer pairs M.
    pub fn pairs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one pair");
        self.pairs = n;
        self
    }

    /// Number of cores A. Consumers are assigned round-robin (`i mod A`).
    pub fn cores(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one core");
        self.cores = n;
        self
    }

    /// Run length (the paper uses 50 s).
    pub fn duration(mut self, d: SimDuration) -> Self {
        assert!(!d.is_zero(), "duration must be nonzero");
        self.duration = d;
        self
    }

    /// The consumer strategy under test.
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Workload configuration; the horizon is overridden by
    /// [`ExperimentBuilder::duration`].
    pub fn trace(mut self, cfg: WorldCupConfig) -> Self {
        self.trace_cfg = cfg;
        self
    }

    /// Explicit per-pair traces (overrides the generator). Must supply
    /// exactly one trace per pair at run time.
    pub fn traces(mut self, traces: Vec<Trace>) -> Self {
        self.explicit_traces = Some(ExplicitTraces::Owned(traces));
        self
    }

    /// Explicit per-pair traces shared with other runs (overrides the
    /// generator). Bit-identical to [`ExperimentBuilder::traces`] on the
    /// same data, but zero-copy: sweep cells that differ only in strategy
    /// read one fleet instead of cloning it per cell — at M = 1000 the
    /// clone is tens of megabytes per cell (DESIGN.md §13).
    pub fn shared_traces(mut self, traces: Arc<Vec<Trace>>) -> Self {
        self.explicit_traces = Some(ExplicitTraces::Shared(traces));
        self
    }

    /// RNG seed; also seeds the workload generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Platform power model.
    pub fn power(mut self, model: PowerModel) -> Self {
        self.power = model;
        self
    }

    /// Per-pair base buffer capacity B₀ (the paper sweeps 25/50/100).
    /// The PBPL global pool is sized B₀·M per §V-C.
    pub fn buffer_capacity(mut self, b: usize) -> Self {
        assert!(b > 0, "buffer capacity must be nonzero");
        self.buffer_capacity = b;
        self
    }

    /// Idle governor used by energy accounting (default: post-hoc
    /// oracle; `Menu` charges real energy for mispredicted idles).
    pub fn governor(mut self, g: GovernorKind) -> Self {
        self.governor = g;
        self
    }

    /// Per-consumer maximum response latencies (PBPL; one per pair).
    /// When set, the slot size follows the paper's default — "the
    /// minimum of all maximum acceptable response latencies" — and each
    /// consumer plans within its own bound instead of the shared
    /// `PbplConfig::max_latency`.
    pub fn max_latencies(mut self, latencies: Vec<SimDuration>) -> Self {
        assert!(
            latencies.iter().all(|l| !l.is_zero()),
            "latency bounds must be nonzero"
        );
        self.max_latencies = Some(latencies);
        self
    }

    /// Attaches a structured event-trace handle: the run emits typed
    /// events (produce/invoke/flush, core spans, slot reservations,
    /// elastic-pool transactions) into its recorder. Purely
    /// observational — metrics are bit-identical with or without it.
    pub fn record_events(mut self, handle: TraceHandle) -> Self {
        self.trace_events = handle;
        self
    }

    /// Number of coordination shards S: the core managers and the PBPL
    /// global pool split their state S ways, with pairs hashed to shards
    /// by index. Semantically inert by contract — results (energy bits,
    /// wakeups, trace events) are identical for every S ≥ 1, which CI's
    /// scale job byte-checks; larger S exists to cut contention at large
    /// M. Default 1.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Injects a deterministic fault plan (DESIGN.md §10). Workload
    /// faults rewrite the production traces before the run; runtime
    /// faults fire as events at their integer sim-time window edges. The
    /// empty plan is the default and leaves the run bit-identical to a
    /// build without fault injection.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Configures the overload-control layer (DESIGN.md §15): deadline-
    /// aware admission with ledgered load shedding, plus the fleet
    /// supervisor. The default (`enabled: false`) is the hard-required
    /// inert path: runs are bit-identical to a build without the layer,
    /// and no `ItemShed`/`OverloadEntered`/`OverloadCleared` events can
    /// appear. When enabled, conservation weakens to
    /// `produced == consumed + shed` and PBPL's degrade watchdog runs
    /// regardless of `degrade.enabled`.
    pub fn overload(mut self, cfg: OverloadConfig) -> Self {
        self.overload = cfg;
        self
    }

    /// Runs the experiment and returns its metrics.
    pub fn run(self) -> RunMetrics {
        let end = SimTime::ZERO + self.duration;
        // Fault-free shared fleets are consumed zero-copy: the horizon
        // guard in `schedule_next_produce` substitutes for physical
        // truncation, so nothing needs materialising. Every other source
        // — owned traces, generated workloads, or any run with workload
        // faults to rewrite — builds owned, truncated timestamp vectors
        // exactly as before.
        let times_by_pair: Vec<PairTimes> = match &self.explicit_traces {
            Some(ExplicitTraces::Shared(fleet)) if self.faults.is_empty() => {
                assert_eq!(fleet.len(), self.pairs, "one trace per pair");
                (0..self.pairs)
                    .map(|i| PairTimes::Shared(Arc::clone(fleet), i))
                    .collect()
            }
            Some(src) => {
                let ts = src.as_slice();
                assert_eq!(ts.len(), self.pairs, "one trace per pair");
                ts.iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let mut times = t.truncate(end).into_times();
                        if !self.faults.is_empty() {
                            self.faults.apply_workload_faults(i as u32, &mut times, end);
                        }
                        PairTimes::Owned(times)
                    })
                    .collect()
            }
            None => {
                let mut cfg = self.trace_cfg.clone();
                cfg.horizon = end;
                let base = cfg.generate(self.seed.wrapping_add(0x7ace));
                // §VI-A: "each consumer is shifted one Mth further into
                // the dataset".
                (0..self.pairs)
                    .map(|i| {
                        let mut times = base.phase_shift(i as f64 / self.pairs as f64).into_times();
                        if !self.faults.is_empty() {
                            self.faults.apply_workload_faults(i as u32, &mut times, end);
                        }
                        PairTimes::Owned(times)
                    })
                    .collect()
            }
        };

        if let Some(lats) = &self.max_latencies {
            assert_eq!(
                lats.len(),
                self.pairs,
                "one latency bound per pair (got {} for {} pairs)",
                lats.len(),
                self.pairs
            );
        }
        if let StrategyKind::Pbpl(cfg) = &self.strategy {
            assert!(
                cfg.slot <= cfg.max_latency,
                "PBPL slot Δ ({}) exceeds the max response latency ({}); \
                 the paper derives Δ FROM the latency bounds (Δ = min max-latency), \
                 so a coarser track cannot honour them",
                cfg.slot,
                cfg.max_latency
            );
        }
        let is_batching = self.strategy.is_batching();
        let pool = is_batching
            .then(|| GlobalPool::with_shards(self.buffer_capacity * self.pairs, self.shards));
        let pbpl_cfg = match &self.strategy {
            StrategyKind::Pbpl(cfg) => Some(cfg.clone()),
            _ => None,
        };

        let pairs: Vec<PairState> = times_by_pair
            .into_iter()
            .enumerate()
            .map(|(i, times)| {
                let buffer = pool.as_ref().map(|p| {
                    let min_cap = match &pbpl_cfg {
                        Some(cfg) => ((self.buffer_capacity as f64 * cfg.min_capacity_frac).ceil()
                            as usize)
                            .clamp(1, self.buffer_capacity),
                        // Fixed-size strategies never resize anyway.
                        None => self.buffer_capacity,
                    };
                    let mut buf = ElasticBuffer::with_min_at(
                        Arc::clone(p),
                        self.buffer_capacity,
                        min_cap,
                        i % self.shards,
                    )
                    .expect("pool sized as B0*M covers every base reservation");
                    buf.set_trace(self.trace_events.clone(), i as u32);
                    buf
                });
                let max_latency = match (&self.max_latencies, &pbpl_cfg) {
                    (Some(lats), _) => lats[i],
                    (None, Some(cfg)) => cfg.max_latency,
                    (None, None) => SimDuration::MAX,
                };
                PairState {
                    max_latency,
                    core: i % self.cores,
                    times,
                    next_idx: 0,
                    metrics: PairMetrics::new(PairId(i)),
                    busy_until: SimTime::ZERO,
                    drain_pending: false,
                    backlog: Vec::new(),
                    buffer,
                    predictor: pbpl_cfg.as_ref().map(|cfg| cfg.predictor.build(0.0)),
                    last_invocation: SimTime::ZERO,
                    periodic_anchor: SimTime::ZERO,
                    consec_overflow: 0,
                    consec_scheduled: 0,
                    degraded: false,
                    pending_grow: None,
                }
            })
            .collect();

        // §V-A: "the default slot size is equal to the minimum of all
        // maximum acceptable response latencies" — honoured whenever
        // explicit per-consumer bounds are given.
        let delta = match (&self.max_latencies, &pbpl_cfg) {
            (Some(lats), Some(_)) => lats
                .iter()
                .copied()
                .min()
                .expect("at least one pair exists"),
            (None, Some(cfg)) => cfg.slot,
            _ => SimDuration::from_millis(1),
        };
        let track = SlotTrack::new(delta);
        let managers = (0..self.cores)
            .map(|c| {
                let mut m = ShardedCoreManager::new(track, self.shards);
                m.set_trace(self.trace_events.clone(), c as u32);
                m
            })
            .collect();

        let mut pairs_by_core = vec![Vec::new(); self.cores];
        for (i, p) in pairs.iter().enumerate() {
            pairs_by_core[p.core].push(i);
        }
        let pool_shards = pool.as_ref().map_or(1, |p| p.shards());
        let sim = Sim {
            pairs_by_core,
            governor: self.governor,
            timer: self.strategy.timer_model(),
            cost: CostModel::from_power_model(&self.power),
            strategy: self.strategy,
            power: self.power,
            end,
            engine: {
                let mut engine = Engine::new(self.seed);
                engine.set_trace(self.trace_events.clone());
                engine
            },
            cores: (0..self.cores)
                .map(|c| {
                    let mut core = Core::new(CoreId(c));
                    core.set_trace(self.trace_events.clone());
                    core
                })
                .collect(),
            core_busy_until: vec![SimTime::ZERO; self.cores],
            managers,
            slot_timer: vec![None; self.cores],
            pairs,
            base_capacity: self.buffer_capacity,
            scratch: Vec::new(),
            _pool: pool,
            faults: (!self.faults.is_empty()).then(|| FaultRuntime {
                active: vec![false; self.faults.len()],
                work_x1000: vec![1000; self.pairs],
                timer_delay_ns: vec![0; self.cores],
                drop_wake: vec![0; self.cores],
                swallowed: vec![0; self.cores],
                squeezed: vec![vec![0; pool_shards]; self.faults.len()],
                faults: self.faults.faults().to_vec(),
            }),
            overload: self.overload.enabled.then(|| OverloadRuntime {
                cfg: self.overload,
                admission: (0..self.pairs).map(|_| AdmissionState::new()).collect(),
                fleet_shed: false,
                last_consumed: vec![0; self.pairs],
                stuck_ticks: vec![0; self.pairs],
            }),
            trace: self.trace_events,
        };
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;

    fn quick(strategy: StrategyKind) -> RunMetrics {
        Experiment::builder()
            .pairs(2)
            .cores(2)
            .duration(SimDuration::from_millis(200))
            .strategy(strategy)
            .trace(WorldCupConfig::quick_test())
            .seed(7)
            .buffer_capacity(25)
            .run()
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::BusyWait,
            StrategyKind::Yield,
            StrategyKind::Mutex,
            StrategyKind::Sem,
            StrategyKind::Bp,
            StrategyKind::Pbp {
                period: SimDuration::from_micros(100),
            },
            StrategyKind::Spbp {
                period: SimDuration::from_micros(100),
            },
            StrategyKind::pbpl_default(),
        ]
    }

    #[test]
    fn every_strategy_conserves_items() {
        for s in all_strategies() {
            let m = quick(s.clone());
            assert!(m.items_produced > 0, "{}: no items produced", s.name());
            assert!(
                m.all_items_consumed(),
                "{}: produced {} consumed {}",
                s.name(),
                m.items_produced,
                m.items_consumed
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        for s in [StrategyKind::Mutex, StrategyKind::pbpl_default()] {
            let a = quick(s.clone());
            let b = quick(s);
            assert_eq!(a.items_consumed, b.items_consumed);
            assert_eq!(a.meter.wakeups_per_sec, b.meter.wakeups_per_sec);
            assert!((a.energy.energy_j - b.energy.energy_j).abs() < 1e-12);
        }
    }

    #[test]
    fn busy_wait_profile() {
        let m = quick(StrategyKind::BusyWait);
        // Usage ≈ full (2 cores × 1000 ms/s), wakeups ≈ 0.
        assert!(
            m.usage_ms_per_sec() > 1900.0,
            "usage {}",
            m.usage_ms_per_sec()
        );
        assert!(
            m.wakeups_per_sec() < 20.0,
            "wakeups {}",
            m.wakeups_per_sec()
        );
        assert_eq!(m.mean_latency(), SimDuration::ZERO);
    }

    #[test]
    fn yield_draws_less_power_than_busy_wait() {
        let bw = quick(StrategyKind::BusyWait);
        let y = quick(StrategyKind::Yield);
        assert!(
            y.extra_power_mw() < bw.extra_power_mw(),
            "yield {} vs bw {}",
            y.extra_power_mw(),
            bw.extra_power_mw()
        );
        assert!(y.wakeups_per_sec() > bw.wakeups_per_sec());
    }

    #[test]
    fn batchers_use_less_power_than_busy_wait() {
        let bw = quick(StrategyKind::BusyWait);
        for s in [
            StrategyKind::Mutex,
            StrategyKind::Bp,
            StrategyKind::pbpl_default(),
        ] {
            let m = quick(s.clone());
            assert!(
                m.extra_power_mw() < 0.5 * bw.extra_power_mw(),
                "{} {} vs BW {}",
                s.name(),
                m.extra_power_mw(),
                bw.extra_power_mw()
            );
        }
    }

    #[test]
    fn bp_wakeups_are_all_overflows() {
        let m = quick(StrategyKind::Bp);
        assert_eq!(m.scheduled_wakeups(), 0);
        assert!(m.overflow_wakeups() > 0);
        // Invocation count ≈ items / capacity.
        let expected = m.items_produced / 25;
        let got = m.overflow_wakeups();
        assert!(
            got >= expected.saturating_sub(2) && got <= expected + 2,
            "expected ≈{expected}, got {got}"
        );
    }

    #[test]
    fn pbp_has_more_overflows_than_spbp() {
        // §III-C: nanosleep jitter causes more buffer overflows.
        // Use a tighter buffer so jitter actually bites.
        let run = |s| {
            Experiment::builder()
                .pairs(2)
                .cores(2)
                .duration(SimDuration::from_millis(500))
                .strategy(s)
                .trace(WorldCupConfig::quick_test())
                .seed(11)
                .buffer_capacity(8)
                .run()
        };
        let pbp = run(StrategyKind::Pbp {
            period: SimDuration::from_micros(500),
        });
        let spbp = run(StrategyKind::Spbp {
            period: SimDuration::from_micros(500),
        });
        assert!(
            pbp.overflow_wakeups() >= spbp.overflow_wakeups(),
            "pbp {} vs spbp {}",
            pbp.overflow_wakeups(),
            spbp.overflow_wakeups()
        );
    }

    #[test]
    fn pbpl_beats_bp_on_wakeups() {
        let run = |s| {
            Experiment::builder()
                .pairs(5)
                .cores(2)
                .duration(SimDuration::from_secs(1))
                .strategy(s)
                .trace(WorldCupConfig::quick_test())
                .seed(3)
                .buffer_capacity(25)
                .run()
        };
        let bp = run(StrategyKind::Bp);
        let pbpl = run(StrategyKind::pbpl_default());
        assert!(
            pbpl.wakeups_per_sec() < bp.wakeups_per_sec(),
            "pbpl {} vs bp {}",
            pbpl.wakeups_per_sec(),
            bp.wakeups_per_sec()
        );
    }

    #[test]
    fn pbpl_latency_bounded_for_scheduled_items() {
        let cfg = PbplConfig {
            slot: SimDuration::from_millis(2),
            max_latency: SimDuration::from_millis(5),
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        // Scheduled wakeups occur at most max_latency + slot + work after
        // buffering; allow generous slack for the end-of-run flush.
        assert!(
            m.mean_latency() < SimDuration::from_millis(6),
            "mean latency {}",
            m.mean_latency()
        );
    }

    #[test]
    fn pbpl_records_scheduled_and_overflow_split() {
        let m = quick(StrategyKind::pbpl_default());
        assert!(m.scheduled_wakeups() > 0, "slot wakeups must occur");
        let total: u64 = m.pairs.iter().map(|p| p.invocations).sum();
        assert_eq!(
            total,
            m.scheduled_wakeups() + m.overflow_wakeups(),
            "every PBPL invocation is scheduled or overflow"
        );
    }

    #[test]
    fn mutex_and_sem_wake_per_burst_not_per_item() {
        let m = quick(StrategyKind::Mutex);
        let item_wakes: u64 = m.pairs.iter().map(|p| p.item_wakeups).sum();
        assert!(item_wakes > 0);
        assert!(
            (item_wakes as f64) < 0.8 * m.items_produced as f64,
            "clustered arrivals must coalesce: {} wakes for {} items",
            item_wakes,
            m.items_produced
        );
    }

    #[test]
    fn sem_cheaper_than_mutex() {
        let mutex = quick(StrategyKind::Mutex);
        let sem = quick(StrategyKind::Sem);
        assert!(sem.usage_ms_per_sec() <= mutex.usage_ms_per_sec());
        assert!(sem.extra_power_mw() <= mutex.extra_power_mw());
    }

    #[test]
    fn single_core_forces_sharing() {
        let m = Experiment::builder()
            .pairs(4)
            .cores(1)
            .duration(SimDuration::from_millis(100))
            .strategy(StrategyKind::pbpl_default())
            .trace(WorldCupConfig::quick_test())
            .seed(5)
            .run();
        assert!(m.all_items_consumed());
        assert_eq!(m.core_reports.len(), 1);
    }

    #[test]
    fn explicit_traces_respected() {
        let horizon = SimTime::from_millis(10);
        let t0 = Trace::new(vec![SimTime::from_millis(1)], horizon);
        let t1 = Trace::new(
            vec![SimTime::from_millis(2), SimTime::from_millis(3)],
            horizon,
        );
        let m = Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(10))
            .strategy(StrategyKind::Mutex)
            .traces(vec![t0, t1])
            .run();
        assert_eq!(m.items_produced, 3);
        assert_eq!(m.pairs[0].items_produced, 1);
        assert_eq!(m.pairs[1].items_produced, 2);
    }

    #[test]
    fn empty_trace_runs_clean() {
        let horizon = SimTime::from_millis(10);
        let m = Experiment::builder()
            .pairs(1)
            .cores(1)
            .duration(SimDuration::from_millis(10))
            .strategy(StrategyKind::pbpl_default())
            .traces(vec![Trace::new(vec![], horizon)])
            .run();
        assert_eq!(m.items_produced, 0);
        assert!(m.all_items_consumed());
    }

    #[test]
    fn core_timelines_validate() {
        for s in all_strategies() {
            let m = quick(s.clone());
            for r in &m.core_reports {
                r.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            }
        }
    }

    #[test]
    fn pbpl_elastic_capacity_varies_when_resizing() {
        // Several consumers on one core with a bursty trace: dynamic
        // sizing must move at least some capacity samples off the fixed
        // base (paper: 43 of 50 allocated on average).
        // Rate swings around B0-per-slot so both shrink (quiet troughs)
        // and grow (peaks) trigger.
        let trace = WorldCupConfig {
            mean_rate: 700.0,
            diurnal_swing: 5.0,
            diurnal_cycles: 3.0,
            ..WorldCupConfig::quick_test()
        };
        let m = Experiment::builder()
            .pairs(4)
            .cores(1)
            .duration(SimDuration::from_millis(800))
            .strategy(StrategyKind::pbpl_default())
            .trace(trace)
            .seed(9)
            .buffer_capacity(25)
            .run();
        let mean_cap = m.mean_capacity();
        assert!(mean_cap > 0.0);
        assert!(
            (mean_cap - 25.0).abs() > 0.2,
            "capacity should deviate from B0=25, got {mean_cap}"
        );
    }

    #[test]
    fn pbpl_no_resizing_keeps_base_capacity() {
        let cfg = PbplConfig {
            resizing: false,
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        assert!(
            (m.mean_capacity() - 25.0).abs() < 1e-9,
            "fixed capacity expected, got {}",
            m.mean_capacity()
        );
    }

    #[test]
    fn kalman_predictor_runs() {
        let cfg = PbplConfig {
            predictor: PredictorKind::Kalman { q: 1e6, r: 1e7 },
            ..PbplConfig::default()
        };
        let m = quick(StrategyKind::Pbpl(cfg));
        assert!(m.all_items_consumed());
    }

    /// A trace dense enough to trip the admission controller: one item
    /// every 1 µs for `ms` milliseconds, per pair — with every pair on
    /// one shared core, the drain work alone outruns the core and the
    /// service lag climbs without bound.
    fn flood_traces(pairs: usize, ms: u64) -> Vec<Trace> {
        let horizon = SimTime::from_millis(ms);
        (0..pairs)
            .map(|_| {
                let times = (0..(ms * 1_000))
                    .map(|k| SimTime::from_nanos(k * 1_000 + 1))
                    .collect();
                Trace::new(times, horizon)
            })
            .collect()
    }

    fn overload_run(strategy: StrategyKind, cfg: OverloadConfig) -> RunMetrics {
        Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(50))
            .strategy(strategy)
            .traces(flood_traces(2, 50))
            .seed(11)
            .buffer_capacity(25)
            .overload(cfg)
            .run()
    }

    /// Overload knobs tight enough that a 2-pairs-on-1-core 100 k
    /// items/s flood (whose drains keep the shared core lagging behind
    /// the arrivals) trips admission within the run.
    fn tight_overload() -> OverloadConfig {
        OverloadConfig {
            deadline: SimDuration::from_micros(100),
            supervisor_period: SimDuration::from_millis(5),
            ..OverloadConfig::standard()
        }
    }

    #[test]
    fn overload_disabled_is_inert() {
        // An explicitly-disabled overload config with aggressive knobs
        // must be bit-identical to the builder default — the enabled
        // flag alone decides whether the layer exists.
        let base = quick(StrategyKind::pbpl_default());
        let disabled = Experiment::builder()
            .pairs(2)
            .cores(2)
            .duration(SimDuration::from_millis(200))
            .strategy(StrategyKind::pbpl_default())
            .trace(WorldCupConfig::quick_test())
            .seed(7)
            .buffer_capacity(25)
            .overload(OverloadConfig {
                enabled: false,
                deadline: SimDuration::from_nanos(1),
                trip_arrivals: 1,
                ..OverloadConfig::default()
            })
            .run();
        assert_eq!(
            base.energy.energy_j.to_bits(),
            disabled.energy.energy_j.to_bits()
        );
        assert_eq!(base.items_consumed, disabled.items_consumed);
        assert_eq!(base.items_shed, 0);
        assert_eq!(disabled.items_shed, 0);
        assert_eq!(base.scheduler, disabled.scheduler);
    }

    #[test]
    fn overload_sheds_and_ledger_balances() {
        for strategy in [StrategyKind::Bp, StrategyKind::pbpl_default()] {
            let m = overload_run(strategy.clone(), tight_overload());
            assert!(
                m.items_shed > 0,
                "{}: flood should shed under a 100 µs deadline",
                strategy.name()
            );
            assert!(
                m.all_items_consumed(),
                "{}: produced {} != consumed {} + shed {}",
                strategy.name(),
                m.items_produced,
                m.items_consumed,
                m.items_shed
            );
            assert_eq!(
                m.scheduler.items_shed, m.items_shed,
                "scheduler stamp must match the metric total"
            );
            assert!(m.scheduler.ledger_balanced());
            // Determinism: same seed, same shed count.
            let again = overload_run(strategy, tight_overload());
            assert_eq!(m.items_shed, again.items_shed);
        }
    }

    #[test]
    fn overload_events_pair_up_and_account_sheds() {
        use pc_trace_events::Recorder;
        let recorder = Recorder::bounded(1 << 20);
        let m = Experiment::builder()
            .pairs(2)
            .cores(1)
            .duration(SimDuration::from_millis(50))
            .strategy(StrategyKind::Bp)
            .traces(flood_traces(2, 50))
            .seed(11)
            .buffer_capacity(25)
            .overload(tight_overload())
            .record_events(recorder.handle())
            .run();
        let log = recorder.take();
        let mut entered = 0u64;
        let mut cleared = 0u64;
        let mut shed_events = 0u64;
        let mut shed_reported = 0u64;
        let mut open = std::collections::BTreeSet::new();
        for ev in &log.events {
            match ev.kind {
                TraceEvent::OverloadEntered { pair, .. } => {
                    assert!(open.insert(pair), "pair {pair} entered twice");
                    entered += 1;
                }
                TraceEvent::OverloadCleared { pair, shed } => {
                    assert!(open.remove(&pair), "pair {pair} cleared while closed");
                    cleared += 1;
                    shed_reported += shed;
                }
                TraceEvent::ItemShed { pair } => {
                    assert!(open.contains(&pair), "shed outside a window");
                    shed_events += 1;
                }
                _ => {}
            }
        }
        assert!(entered > 0, "flood should open at least one window");
        assert_eq!(entered, cleared, "every window must close by teardown");
        assert!(open.is_empty());
        assert_eq!(shed_events, m.items_shed);
        assert_eq!(
            shed_reported, m.items_shed,
            "window tallies must cover all sheds"
        );
        let window_total: u64 = m.pairs.iter().map(|p| p.overload_windows).sum();
        assert_eq!(window_total, entered);
    }

    #[test]
    fn overload_conserves_for_every_strategy() {
        for s in all_strategies() {
            let m = overload_run(s.clone(), tight_overload());
            assert!(
                m.all_items_consumed(),
                "{}: produced {} consumed {} shed {}",
                s.name(),
                m.items_produced,
                m.items_consumed,
                m.items_shed
            );
            assert!(
                m.scheduler.ledger_balanced(),
                "{}: {:?}",
                s.name(),
                m.scheduler
            );
        }
    }
}
