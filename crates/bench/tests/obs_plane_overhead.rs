//! Budget guard for the observability plane's periodic work: a sampler
//! tick (capturing a registry snapshot into the time series plus
//! deriving window stats) and a full Prometheus render. Both run inside
//! a live `dvfs serve` — the tick every `DVFS_TS_INTERVAL` on the
//! sampler thread, the render on every scrape — so they must stay far
//! below the request path's latency budget or the plane itself would
//! show up in the p99 it reports.
//!
//! Budgets (min over several trials, test profile): < 250 µs per tick
//! and < 500 µs per render on a registry sized like a busy server
//! (dozens of counters/gauges, several live histograms). The guard is a
//! timing gate, so it is `#[ignore]`d and `scripts/check.sh` runs it
//! (`cargo test -p bench --test obs_plane_overhead -- --ignored`). Slow
//! hosts can relax with `OBS_BUDGET_SCALE=2`.

use obs::timeseries::TimeSeries;
use obs::{prom, MetricsRegistry};
use std::hint::black_box;
use std::time::{Duration, Instant};

const TRIALS: usize = 7;
const ITERS: u32 = 50;

/// A registry shaped like a serve process under load: cache + serve
/// counters, window gauges, and latency histograms with spread-out
/// values (so sparse-bucket walks do real work).
fn loaded_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for i in 0..24 {
        reg.counter(&format!("serve.counter_{i}")).set(i * 1000 + 7);
    }
    for i in 0..12 {
        reg.gauge(&format!("serve.gauge_{i}")).set(i as f64 * 0.37);
    }
    for name in [
        "serve.request_ns",
        "serve.batch_len",
        "loadgen.rtt_ns",
        "cache.probe_ns",
        "obs.ts_sample_ns",
    ] {
        let h = reg.histogram(name);
        for k in 0..512u64 {
            h.record(k * k * 37 + 100);
        }
    }
    reg
}

/// Minimum seconds/call of `f` over `TRIALS` batches of `ITERS` calls.
fn min_per_call<F: FnMut()>(mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(t0.elapsed() / ITERS);
    }
    best
}

fn budget_scale() -> u32 {
    std::env::var("OBS_BUDGET_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

#[test]
#[ignore = "timing gate; scripts/check.sh runs it"]
fn sampler_tick_and_prom_render_stay_within_budget() {
    let scale = budget_scale();
    let reg = loaded_registry();

    // One tick = capture + ring push; plus the window stats a live
    // tick's consumers derive (rate + percentile deltas), which the
    // serve `publish_live` hook computes on the same cadence.
    let series = TimeSeries::new(128);
    series.sample(&reg);
    let tick = min_per_call(|| {
        series.sample(&reg);
        if let Some(w) = series.window(Duration::from_secs(3600)) {
            black_box(w.rate("serve.counter_0"));
            if let Some(d) = w.hist_delta("serve.request_ns") {
                black_box(d.percentile(0.99));
            }
        }
    });

    let render = min_per_call(|| {
        black_box(prom::render(&reg));
    });

    println!(
        "obs plane: sampler tick {:?}, prom render {:?} (scale {scale})",
        tick, render
    );
    let tick_budget = Duration::from_micros(250) * scale;
    let render_budget = Duration::from_micros(500) * scale;
    assert!(
        tick < tick_budget,
        "sampler tick too slow: {tick:?} (budget {tick_budget:?}; \
         set OBS_BUDGET_SCALE to relax on slow hosts)"
    );
    assert!(
        render < render_budget,
        "prom render too slow: {render:?} (budget {render_budget:?}; \
         set OBS_BUDGET_SCALE to relax on slow hosts)"
    );
}
