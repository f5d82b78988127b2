//! Reproduction self-check: every paper claim this repository reproduces,
//! asserted programmatically. Exits non-zero if any claim fails — the
//! one-command answer to "does the reproduction still hold?".
//!
//! Uses shorter runs than the `suite` sweep (override with
//! `PC_DURATION_MS`); claims are *shape* assertions (orderings, trends,
//! signs), which are stable well below the full 50 s protocol.

use pc_bench::exp::{evaluated_strategies, Protocol, Row};
use pc_core::{PbplConfig, StrategyKind};
use pc_sim::SimDuration;
use pc_stats::{correlation_significance, pearson, ConfidenceLevel};

struct Checker {
    passed: u32,
    failed: u32,
}

impl Checker {
    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("PASS  {claim}  [{detail}]");
        } else {
            self.failed += 1;
            println!("FAIL  {claim}  [{detail}]");
        }
    }
}

fn main() {
    let mut protocol = Protocol::from_env();
    // Default to a faster horizon than the suite sweep; the claims
    // below are orderings, stable at 10 s.
    if std::env::var("PC_DURATION_MS").is_err() {
        protocol.duration = SimDuration::from_secs(10);
    }
    let mut c = Checker {
        passed: 0,
        failed: 0,
    };

    // ---- §III: single-pair power profile --------------------------------
    let mean_rate = protocol.trace.mean_rate;
    let period = SimDuration::from_secs_f64(50.0 / mean_rate);
    let single = |s: StrategyKind| Row::from_runs(&protocol.run(s, 1, 1, 50));
    let bw = single(StrategyKind::BusyWait);
    let yld = single(StrategyKind::Yield);
    let mutex1 = single(StrategyKind::Mutex);
    let sem1 = single(StrategyKind::Sem);
    let bp1 = single(StrategyKind::Bp);
    let pbp1 = single(StrategyKind::Pbp { period });
    let spbp1 = single(StrategyKind::Spbp { period });

    c.check(
        "§III: busy-waiting is the power disaster",
        bw.power_mw.mean > 5.0 * mutex1.power_mw.mean,
        format!(
            "BW {:.0} mW vs Mutex {:.0} mW",
            bw.power_mw.mean, mutex1.power_mw.mean
        ),
    );
    c.check(
        "§III: Yield draws slightly less than BW (DVFS)",
        yld.power_mw.mean < bw.power_mw.mean,
        format!("{:.0} < {:.0} mW", yld.power_mw.mean, bw.power_mw.mean),
    );
    c.check(
        "§III: batchers beat the item-driven implementations",
        bp1.power_mw.mean < mutex1.power_mw.mean
            && pbp1.power_mw.mean < mutex1.power_mw.mean
            && spbp1.power_mw.mean < mutex1.power_mw.mean,
        format!(
            "BP {:.0} / PBP {:.0} / SPBP {:.0} vs Mutex {:.0} mW",
            bp1.power_mw.mean, pbp1.power_mw.mean, spbp1.power_mw.mean, mutex1.power_mw.mean
        ),
    );
    c.check(
        "§III: batch processing cuts ≥33% vs Mutex (paper's headline)",
        bp1.power_mw.mean < 0.67 * mutex1.power_mw.mean,
        format!(
            "{:+.1}%",
            (bp1.power_mw.mean / mutex1.power_mw.mean - 1.0) * 100.0
        ),
    );
    c.check(
        "§III: Sem is marginally cheaper than Mutex",
        sem1.power_mw.mean <= mutex1.power_mw.mean,
        format!("{:.1} ≤ {:.1} mW", sem1.power_mw.mean, mutex1.power_mw.mean),
    );

    // ---- §III-C: correlations -------------------------------------------
    let idle5 = [&mutex1, &sem1, &bp1, &pbp1, &spbp1];
    let wk: Vec<f64> = idle5
        .iter()
        .flat_map(|r| r.wakeups_per_sec.samples.iter().copied())
        .collect();
    let pw: Vec<f64> = idle5
        .iter()
        .flat_map(|r| r.power_mw.samples.iter().copied())
        .collect();
    let r5 = pearson(&wk, &pw);
    c.check(
        "§III-C: wakeups↔power strongly positive among the idle-based five",
        r5 > 0.5,
        format!("r = {r5:+.3} (paper +0.74)"),
    );
    let sig = correlation_significance(&wk, &pw, ConfidenceLevel::P99)
        .map(|t| t.significant)
        .unwrap_or(false);
    c.check(
        "§III-C: wakeup effect significant at 99%",
        sig,
        format!("n = {}", wk.len()),
    );

    // ---- §VI: Figure 9 configuration -------------------------------------
    let rows: Vec<Row> = evaluated_strategies()
        .into_iter()
        .map(|s| Row::from_runs(&protocol.run(s, 5, 2, 25)))
        .collect();
    let by = |n: &str| rows.iter().find(|r| r.name == n).expect("row");
    let (mutex, sem, bp, pbpl) = (by("Mutex"), by("Sem"), by("BP"), by("PBPL"));

    c.check(
        "Fig 9: PBPL has the lowest power of the four",
        pbpl.power_mw.mean < bp.power_mw.mean
            && pbpl.power_mw.mean < sem.power_mw.mean
            && pbpl.power_mw.mean < mutex.power_mw.mean,
        format!(
            "PBPL {:.0} / BP {:.0} / Sem {:.0} / Mutex {:.0} mW",
            pbpl.power_mw.mean, bp.power_mw.mean, sem.power_mw.mean, mutex.power_mw.mean
        ),
    );
    c.check(
        "Fig 9: PBPL has the fewest wakeups of the four",
        pbpl.wakeups_per_sec.mean < bp.wakeups_per_sec.mean
            && pbpl.wakeups_per_sec.mean < mutex.wakeups_per_sec.mean,
        format!(
            "PBPL {:.0} / BP {:.0} / Mutex {:.0} wk/s",
            pbpl.wakeups_per_sec.mean, bp.wakeups_per_sec.mean, mutex.wakeups_per_sec.mean
        ),
    );
    c.check(
        "Fig 9: PBPL cuts ≥20% power vs Mutex (paper: −20%)",
        pbpl.power_mw.mean < 0.8 * mutex.power_mw.mean,
        format!(
            "{:+.1}%",
            (pbpl.power_mw.mean / mutex.power_mw.mean - 1.0) * 100.0
        ),
    );
    c.check(
        "§VI-C: PBPL converts a large share of BP's overflows into scheduled wakeups",
        pbpl.overflows.mean < 0.75 * bp.overflows.mean,
        format!("{:.0} vs {:.0}", pbpl.overflows.mean, bp.overflows.mean),
    );

    // ---- Fig 10: scalability trend ---------------------------------------
    let gap = |pairs: usize| {
        let m = Row::from_runs(&protocol.run(StrategyKind::Mutex, pairs, 2, 25));
        let p = Row::from_runs(&protocol.run(StrategyKind::pbpl_default(), pairs, 2, 25));
        p.power_mw.mean / m.power_mw.mean
    };
    let (g2, g10) = (gap(2), gap(10));
    c.check(
        "Fig 10: PBPL's advantage over Mutex widens with the consumer count",
        g10 < g2,
        format!("PBPL/Mutex power ratio {:.2} @ M=2 → {:.2} @ M=10", g2, g10),
    );

    // ---- Fig 11: buffer-size trend ----------------------------------------
    let pair_at = |b: usize| {
        let bp = Row::from_runs(&protocol.run(StrategyKind::Bp, 5, 2, b));
        let pb = Row::from_runs(&protocol.run(StrategyKind::pbpl_default(), 5, 2, b));
        (bp.power_mw.mean, pb.power_mw.mean)
    };
    let (bp25, pb25) = pair_at(25);
    let (bp100, pb100) = pair_at(100);
    c.check(
        "Fig 11: power drops with buffer size for both BP and PBPL",
        bp100 < bp25 && pb100 < pb25,
        format!("BP {bp25:.0}→{bp100:.0} mW, PBPL {pb25:.0}→{pb100:.0} mW"),
    );
    c.check(
        "Fig 11: the BP↔PBPL gap narrows with buffer size",
        (bp100 - pb100).abs() < (bp25 - pb25).abs(),
        format!(
            "gap {:.1} mW @ B=25 → {:.1} mW @ B=100",
            bp25 - pb25,
            bp100 - pb100
        ),
    );

    // ---- §V mechanisms (ablation) ------------------------------------------
    let no_latch = Row::from_runs(&protocol.run(
        StrategyKind::Pbpl(PbplConfig {
            latching: false,
            ..PbplConfig::default()
        }),
        5,
        2,
        25,
    ));
    c.check(
        "§V-A: disabling group latching costs power",
        no_latch.power_mw.mean > pbpl.power_mw.mean,
        format!(
            "{:.0} > {:.0} mW",
            no_latch.power_mw.mean, pbpl.power_mw.mean
        ),
    );

    println!("\n{} claims passed, {} failed", c.passed, c.failed);
    if c.failed > 0 {
        std::process::exit(1);
    }
}
