//! Budget guard for the flight recorder's record path. The recorder only
//! stays "always-armable" if recording an event is far cheaper than the
//! work it annotates, and if the disabled gate is close to free — the
//! instrumented hot loops (trainer epochs, batch prediction) run with
//! tracing off in every normal invocation.
//!
//! Budgets (min over several trials, the same statistic the criterion
//! `trace_overhead` group reports): < 60 ns per recorded event with
//! tracing enabled, < 5 ns per call with tracing disabled. The guard is
//! a timing gate, so it is `#[ignore]`d and `scripts/check.sh` runs it
//! (`cargo test -p bench --test trace_overhead -- --ignored`). Slow or
//! noisy hosts can relax both with `TRACE_BUDGET_SCALE=2`.

use obs::trace;
use obs::ArgValue;
use std::hint::black_box;
use std::time::Instant;

const TRIALS: usize = 7;
const ITERS: u64 = 200_000;

/// Minimum ns/call of `f` over `TRIALS` batches of `ITERS` calls.
fn min_ns_per_call<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TRIALS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

fn budget_scale() -> f64 {
    std::env::var("TRACE_BUDGET_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

#[test]
#[ignore = "timing gate; scripts/check.sh runs it"]
fn record_path_stays_within_budget() {
    let scale = budget_scale();
    let name = trace::intern("overhead.guard");
    let arg = trace::intern("i");

    trace::set_enabled(true);
    let enabled_ns = min_ns_per_call(|| {
        trace::instant(black_box(name), &[(arg, ArgValue::U64(black_box(3)))]);
    });

    trace::set_enabled(false);
    let disabled_ns = min_ns_per_call(|| {
        trace::instant(black_box(name), &[(arg, ArgValue::U64(black_box(3)))]);
    });
    trace::reset();

    println!("trace record path: enabled {enabled_ns:.1} ns/event, disabled {disabled_ns:.2} ns/call (scale {scale})");
    assert!(
        enabled_ns < 60.0 * scale,
        "enabled record path too slow: {enabled_ns:.1} ns/event (budget {} ns; \
         set TRACE_BUDGET_SCALE to relax on slow hosts)",
        60.0 * scale
    );
    assert!(
        disabled_ns < 5.0 * scale,
        "disabled gate too slow: {disabled_ns:.2} ns/call (budget {} ns; \
         set TRACE_BUDGET_SCALE to relax on slow hosts)",
        5.0 * scale
    );
}
