//! Shared experiment machinery: the paper's measurement protocol
//! (§III-B) as reusable code.
//!
//! Every experiment executes for a fixed horizon (50 s in the paper),
//! runs three replicates with distinct seeds, and reports mean ± 95% CI
//! for each metric. `PC_DURATION_MS`, `PC_REPLICATES` and `PC_SEED`
//! override the defaults so the full suite can be smoke-tested quickly.

use crate::sweep::{execute, Cell, FleetMap, GridPoint};
use pc_core::{RunMetrics, StrategyKind};
use pc_sim::SimDuration;
use pc_stats::{HalfWidth, Summary};
use pc_trace::WorldCupConfig;
use serde::Serialize;
use std::borrow::Borrow;

/// Protocol parameters shared by all experiment runners.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// Run length (paper: 50 s).
    pub duration: SimDuration,
    /// Replicates per configuration (paper: 3).
    pub replicates: usize,
    /// Base seed; replicate k runs with `base_seed + k`.
    pub base_seed: u64,
    /// Workload configuration.
    pub trace: WorldCupConfig,
    /// Worker threads for the sweep engine. Thread count never affects
    /// results (see `sweep`) — only wall-clock time.
    pub threads: usize,
}

impl Protocol {
    /// The paper's protocol, with environment overrides:
    /// `PC_DURATION_MS`, `PC_REPLICATES`, `PC_SEED`, `PC_THREADS`.
    pub fn from_env() -> Self {
        Self::from_env_or(50_000, 3)
    }

    /// [`Protocol::from_env`] with a sweep's own defaults for the
    /// horizon (ms) and the replicate count, which the same variables
    /// override. Unparsable values fall back to the defaults; a zero
    /// horizon is rejected and replicates clamp to at least 1.
    pub fn from_env_or(duration_ms: u64, replicates: usize) -> Self {
        let duration_ms = std::env::var("PC_DURATION_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&ms: &u64| ms > 0)
            .unwrap_or(duration_ms);
        let replicates = std::env::var("PC_REPLICATES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(replicates);
        let base_seed = std::env::var("PC_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1u64);
        Protocol {
            duration: SimDuration::from_millis(duration_ms),
            replicates: replicates.max(1),
            base_seed,
            trace: WorldCupConfig::paper_default(),
            threads: crate::sweep::threads_from_env(),
        }
    }

    /// The registered name of the World-Cup workload `trace` holds —
    /// the `workload` of every recipe this protocol makes.
    ///
    /// # Panics
    ///
    /// If `trace` matches no registered configuration: its cells could
    /// not be replayed.
    pub(crate) fn workload_label(&self) -> &'static str {
        crate::replay::worldcup_workload_label(&self.trace)
            .expect("trace config matches no named workload — unreplayable")
    }

    /// Runs one strategy configuration across the replicates — a
    /// one-point, one-strategy sweep on the parallel engine; replicates
    /// run concurrently up to `self.threads`, results in replicate order.
    pub fn run(
        &self,
        strategy: StrategyKind,
        pairs: usize,
        cores: usize,
        buffer: usize,
    ) -> Vec<RunMetrics> {
        let point = GridPoint {
            pairs,
            cores,
            buffer,
        };
        let cells: Vec<Cell> = (0..self.replicates)
            .map(|replicate| {
                Cell::new(
                    self,
                    String::new(),
                    self.workload_label(),
                    strategy.clone(),
                    false,
                    point,
                    replicate,
                )
            })
            .collect();
        let (runs, _) = execute(&cells, &FleetMap::new(), self.threads, 1, false);
        runs.into_iter()
            .map(|run| run.unwrap_or_else(|e| panic!("{e}")).metrics)
            .collect()
    }
}

/// Per-strategy result row: each §VI-B metric as a replicate summary.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Strategy display name.
    pub name: String,
    /// Extra power over baseline, milliwatts.
    pub power_mw: Summary,
    /// Core wakeups per second.
    pub wakeups_per_sec: Summary,
    /// CPU usage, ms/s.
    pub usage_ms_per_sec: Summary,
    /// Internally counted scheduled wakeups (batchers).
    pub scheduled: Summary,
    /// Buffer overflows (batchers).
    pub overflows: Summary,
    /// Mean allocated buffer capacity.
    pub mean_capacity: Summary,
    /// Mean item latency, microseconds.
    pub latency_us: Summary,
    /// 99th-percentile item latency, microseconds (batching's tail cost).
    pub latency_p99_us: Summary,
    /// Items consumed per replicate (sanity).
    pub items: Summary,
}

impl Row {
    /// Summarises replicate metrics (owned or borrowed) into a row.
    pub fn from_runs<R: Borrow<RunMetrics>>(runs: &[R]) -> Row {
        let get =
            |f: &dyn Fn(&RunMetrics) -> f64| runs.iter().map(|m| f(m.borrow())).collect::<Vec<_>>();
        Row {
            name: runs[0].borrow().strategy.clone(),
            power_mw: Summary::of("power_mw", &get(&|m| m.extra_power_mw())),
            wakeups_per_sec: Summary::of("wakeups_per_sec", &get(&|m| m.wakeups_per_sec())),
            usage_ms_per_sec: Summary::of("usage_ms_per_sec", &get(&|m| m.usage_ms_per_sec())),
            scheduled: Summary::of("scheduled", &get(&|m| m.scheduled_wakeups() as f64)),
            overflows: Summary::of("overflows", &get(&|m| m.overflow_wakeups() as f64)),
            mean_capacity: Summary::of("mean_capacity", &get(&|m| m.mean_capacity())),
            latency_us: Summary::of(
                "latency_us",
                &get(&|m| m.mean_latency().as_secs_f64() * 1e6),
            ),
            latency_p99_us: Summary::of(
                "latency_p99_us",
                &get(&|m| {
                    m.latency_percentile(99.0)
                        .map(|d| d.as_secs_f64() * 1e6)
                        .unwrap_or(f64::NAN)
                }),
            ),
            items: Summary::of("items", &get(&|m| m.items_consumed as f64)),
        }
    }
}

/// Signed percentage change of `ours` versus `baseline` (−20.0 = 20%
/// lower).
pub fn pct_change(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        f64::NAN
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

/// Prints the standard metric table header.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "{:>6} | {:>16} | {:>16} | {:>14} | {:>12} | {:>12} | {:>9} | {:>10}",
        "impl",
        "power (mW)",
        "wakeups/s",
        "usage (ms/s)",
        "scheduled",
        "overflows",
        "avg buf",
        "lat (us)"
    );
}

/// Prints one strategy row.
pub fn print_row(r: &Row) {
    println!(
        "{:>6} | {:>8.1} ±{:>6.1} | {:>8.1} ±{:>6.1} | {:>7.2} ±{:>5.2} | {:>12.0} | {:>12.0} | {:>9.1} | {:>10.0}",
        r.name,
        r.power_mw.mean,
        HalfWidth(r.power_mw.ci95.half_width),
        r.wakeups_per_sec.mean,
        HalfWidth(r.wakeups_per_sec.ci95.half_width),
        r.usage_ms_per_sec.mean,
        HalfWidth(r.usage_ms_per_sec.ci95.half_width),
        r.scheduled.mean,
        r.overflows.mean,
        r.mean_capacity.mean,
        r.latency_us.mean,
    );
}

/// Prints the latency tail line for a row (mean and p99).
pub fn print_latency_tail(r: &Row) {
    println!(
        "{:>6} latency: mean {:>8.0} us, p99 {:>8.0} us",
        r.name, r.latency_us.mean, r.latency_p99_us.mean
    );
}

/// Serialises experiment output under `results/<name>.json` (best
/// effort — failures only warn, measurements still print).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialisation failed: {e}"),
    }
}

/// The four implementations §VI evaluates.
pub fn evaluated_strategies() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::pbpl_default(),
    ]
}

/// The seven §III implementations. The periodic strategies' period is
/// matched to the buffer-fill time at the workload's mean rate (the
/// paper's 100 µs played the same role against its much faster replay).
pub fn single_pc_strategies(buffer: usize, mean_rate: f64) -> Vec<StrategyKind> {
    let period = SimDuration::from_secs_f64(buffer as f64 / mean_rate);
    vec![
        StrategyKind::BusyWait,
        StrategyKind::Yield,
        StrategyKind::Mutex,
        StrategyKind::Sem,
        StrategyKind::Bp,
        StrategyKind::Pbp { period },
        StrategyKind::Spbp { period },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_protocol() -> Protocol {
        Protocol {
            duration: SimDuration::from_millis(50),
            replicates: 2,
            base_seed: 5,
            trace: WorldCupConfig::quick_test(),
            threads: 1,
        }
    }

    /// `from_env` must fall back to the paper defaults on unparsable or
    /// out-of-range values rather than panic or silently zero out.
    /// Env mutation is process-global, so every case lives in this one
    /// test; the other tests here construct `Protocol` directly.
    #[test]
    fn from_env_falls_back_on_bad_values() {
        let vars = ["PC_DURATION_MS", "PC_REPLICATES", "PC_SEED", "PC_THREADS"];
        let saved: Vec<Option<String>> = vars.iter().map(|v| std::env::var(v).ok()).collect();

        std::env::set_var("PC_DURATION_MS", "not-a-number");
        std::env::set_var("PC_REPLICATES", "0");
        std::env::set_var("PC_SEED", "-3");
        std::env::set_var("PC_THREADS", "0");
        let p = Protocol::from_env();
        assert_eq!(p.duration, SimDuration::from_millis(50_000));
        assert_eq!(p.replicates, 1, "replicates clamp to at least 1");
        assert_eq!(p.base_seed, 1, "negative seed falls back to default");
        assert!(p.threads >= 1, "threads fall back to machine parallelism");

        std::env::set_var("PC_DURATION_MS", "0");
        assert_eq!(
            Protocol::from_env().duration,
            SimDuration::from_millis(50_000),
            "zero duration rejected"
        );

        std::env::set_var("PC_DURATION_MS", "1234");
        std::env::set_var("PC_REPLICATES", "5");
        std::env::set_var("PC_SEED", "99");
        std::env::set_var("PC_THREADS", "3");
        let p = Protocol::from_env();
        assert_eq!(p.duration, SimDuration::from_millis(1234));
        assert_eq!(p.replicates, 5);
        assert_eq!(p.base_seed, 99);
        assert_eq!(p.threads, 3);

        for (var, value) in vars.iter().zip(saved) {
            match value {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
        }
    }

    #[test]
    fn protocol_runs_replicates_with_distinct_seeds() {
        let p = tiny_protocol();
        let runs = p.run(StrategyKind::Mutex, 2, 2, 25);
        assert_eq!(runs.len(), 2);
        // Different seeds → different traces → (almost surely) different
        // item counts.
        assert_ne!(runs[0].items_consumed, runs[1].items_consumed);
    }

    #[test]
    fn row_summarises_replicates() {
        let p = tiny_protocol();
        let runs = p.run(StrategyKind::Bp, 2, 2, 25);
        let row = Row::from_runs(&runs);
        assert_eq!(row.name, "BP");
        assert_eq!(row.items.samples.len(), 2);
        assert!(row.power_mw.mean > 0.0);
    }

    #[test]
    fn pct_change_signs() {
        assert!((pct_change(80.0, 100.0) + 20.0).abs() < 1e-12);
        assert!((pct_change(120.0, 100.0) - 20.0).abs() < 1e-12);
        assert!(pct_change(1.0, 0.0).is_nan());
    }

    #[test]
    fn strategy_sets() {
        assert_eq!(evaluated_strategies().len(), 4);
        let seven = single_pc_strategies(50, 2000.0);
        assert_eq!(seven.len(), 7);
        // Period = B / rate = 25ms.
        match &seven[5] {
            StrategyKind::Pbp { period } => {
                assert_eq!(*period, SimDuration::from_millis(25));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
