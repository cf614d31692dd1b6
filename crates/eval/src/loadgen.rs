//! Closed-loop-free load generator for the serving engine: offer requests
//! at a fixed rate through [`sth_serve::run_open`], then report what the
//! engine actually sustained at that operating point — p50/p99 latency,
//! shed rate, goodput.
//!
//! One producer thread paces injections (sleep for coarse gaps, spin for
//! the last stretch, so the offered rate holds without a timer wheel);
//! the engine answers at whatever rate coalescing and the snapshot allow.
//! Sweeping a ladder of offered rates with [`sweep_load`] maps out the
//! throughput/latency curve the `reactor` example prints.

use std::time::{Duration, Instant};

use sth_geometry::Rect;
use sth_platform::obs::ValueHist;
use sth_serve::{run_open, Backend, EngineConfig, EngineStats};

/// Knobs for one load-generator run.
#[derive(Clone, Debug)]
pub struct LoadGenConfig {
    /// Queries per injected request.
    pub request_batch: usize,
    /// How long to keep offering load (the drain afterwards is extra).
    pub duration: Duration,
    /// Engine configuration for the run (threads, coalescing, deadline).
    pub engine: EngineConfig,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        Self {
            request_batch: 4,
            duration: Duration::from_millis(200),
            engine: EngineConfig::default(),
        }
    }
}

/// One operating point of the load sweep.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// The offered rate this point targeted, in queries per second.
    pub offered_per_sec: f64,
    /// Queries actually offered.
    pub offered: u64,
    /// Queries answered.
    pub answered: u64,
    /// Queries shed by deadline admission control.
    pub shed: u64,
    /// Wall clock of the whole run, offer phase plus drain.
    pub wall: Duration,
    /// Request latency distribution (inject to answered, queue wait
    /// included), nanoseconds.
    pub latency: ValueHist,
    /// Engine behavior at this point (services, coalescing, sheds).
    pub stats: EngineStats,
}

impl LoadPoint {
    /// Queries answered per second of wall clock — the sustained rate.
    pub fn goodput_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.answered as f64 / self.wall.as_secs_f64()
    }

    /// Fraction of offered queries shed.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// Offers `rects` (cycled) at `offered_per_sec` queries per second for
/// [`LoadGenConfig::duration`], requests dealt round-robin across the
/// backend's tenants, and reports the operating point.
pub fn run_load_point<B: Backend>(
    backend: &B,
    rects: &[Rect],
    offered_per_sec: f64,
    cfg: &LoadGenConfig,
) -> LoadPoint {
    assert!(!rects.is_empty(), "nothing to offer");
    assert!(cfg.request_batch >= 1);
    assert!(offered_per_sec > 0.0, "offered rate must be positive");
    let tenants = backend.tenant_count();
    let interval = Duration::from_secs_f64(cfg.request_batch as f64 / offered_per_sec);
    let t0 = Instant::now();
    let (report, ()) = run_open(backend, &cfg.engine, false, |inj| {
        let start = Instant::now();
        let mut next = start;
        let mut cursor = 0usize;
        let mut request = 0usize;
        while start.elapsed() < cfg.duration {
            let now = Instant::now();
            if next > now {
                let gap = next - now;
                // Sleep off the coarse part of the gap, spin the last
                // stretch: OS sleep granularity would otherwise smear
                // the offered rate.
                if gap > Duration::from_micros(200) {
                    std::thread::sleep(gap - Duration::from_micros(100));
                }
                while Instant::now() < next {
                    std::hint::spin_loop();
                }
            }
            let mut batch = Vec::with_capacity(cfg.request_batch);
            for _ in 0..cfg.request_batch {
                batch.push(rects[cursor % rects.len()].clone());
                cursor += 1;
            }
            inj.inject(request % tenants, batch);
            request += 1;
            next += interval;
        }
    });
    let wall = t0.elapsed();
    LoadPoint {
        offered_per_sec,
        offered: report.offered_total(),
        answered: report.answered_total(),
        shed: report.shed_total(),
        wall,
        latency: report.latency,
        stats: report.stats,
    }
}

/// Runs [`run_load_point`] at each offered rate, ascending.
pub fn sweep_load<B: Backend>(
    backend: &B,
    rects: &[Rect],
    rates_per_sec: &[f64],
    cfg: &LoadGenConfig,
) -> Vec<LoadPoint> {
    rates_per_sec.iter().map(|&rate| run_load_point(backend, rects, rate, cfg)).collect()
}

/// A fixed-width table of load points: offered vs goodput, latency
/// quantiles, shed rate.
pub fn render_load_table(points: &[LoadPoint]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>12} {:>9} {:>9} {:>7} {:>10} {:>10} {:>8} {:>12}",
        "offered_qps", "offered", "answered", "shed", "p50_us", "p99_us", "shed_%", "goodput_qps"
    );
    for p in points {
        let (p50, p99) = if p.latency.is_empty() {
            (0, 0)
        } else {
            (p.latency.p50() / 1_000, p.latency.p99() / 1_000)
        };
        let _ = writeln!(
            s,
            "{:>12.0} {:>9} {:>9} {:>7} {:>10} {:>10} {:>8.2} {:>12.0}",
            p.offered_per_sec,
            p.offered,
            p.answered,
            p.shed,
            p50,
            p99,
            p.shed_rate() * 100.0,
            p.goodput_per_sec(),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sth_platform::snap::SnapshotCell;
    use sth_serve::CellBackend;

    fn frozen_cell() -> SnapshotCell<sth_histogram::FrozenHistogram> {
        let data = sth_data::cross::CrossSpec::cross2d().scaled(0.03).generate();
        let index = sth_index::KdCountTree::build(&data);
        let wl = sth_query::WorkloadSpec::paper(0.01, 7).generate(data.domain(), None);
        let mut hist = sth_core::build_uninitialized(&data, 48);
        for q in wl.queries().iter().take(60) {
            sth_query::SelfTuning::refine(&mut hist, q.rect(), &index);
        }
        SnapshotCell::new(hist.freeze())
    }

    #[test]
    fn load_point_accounts_for_every_offered_query() {
        let cell = frozen_cell();
        let backend = CellBackend::new(std::slice::from_ref(&cell));
        let rects: Vec<Rect> = (0..32)
            .map(|i| {
                let lo = (i % 8) as f64 * 10.0;
                Rect::from_bounds(&[lo, lo * 0.4], &[lo + 15.0, lo * 0.4 + 20.0])
            })
            .collect();
        let cfg = LoadGenConfig {
            request_batch: 4,
            duration: Duration::from_millis(60),
            engine: EngineConfig { threads: 2, ..EngineConfig::default() },
        };
        let point = run_load_point(&backend, &rects, 20_000.0, &cfg);
        assert!(point.offered > 0, "the producer offered something");
        assert_eq!(point.offered, point.answered + point.shed);
        assert_eq!(point.shed, 0, "no deadline, nothing shed");
        assert_eq!(point.latency.count() * cfg.request_batch as u64, point.answered);
        assert!(point.goodput_per_sec() > 0.0);
        assert_eq!(point.shed_rate(), 0.0);
        let table = render_load_table(std::slice::from_ref(&point));
        assert_eq!(table.lines().count(), 2);
        assert!(table.contains("goodput_qps"));
    }
}
