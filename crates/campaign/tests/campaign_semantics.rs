//! The campaign engine's two contracts, asserted end to end:
//! determinism (bit-identical output for any worker count) and panic
//! isolation (one failing job never kills a campaign).

use rtsim_campaign::{json::Json, Campaign};

/// A job whose value depends on its private stream, its index, and some
/// deliberate CPU jitter — any scheduling leak into results would show.
fn jittery_job(ctx: &mut rtsim_campaign::JobCtx) -> (usize, Vec<u64>, f64) {
    let spin = ctx.rng().gen_range(0u64..5_000);
    std::hint::black_box((0..spin).sum::<u64>());
    let draws: Vec<u64> = (0..8)
        .map(|_| ctx.rng().gen_range(0u64..1_000_000))
        .collect();
    let metric = ctx.rng().next_f64() * draws[0] as f64;
    (ctx.index(), draws, metric)
}

fn jsonl_of(workers: usize, seed: u64) -> String {
    let report = Campaign::new("determinism", seed)
        .workers(workers)
        .run(96, jittery_job);
    assert_eq!(report.ok_count(), 96);
    let records: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let (index, draws, metric) = o.result.as_ref().expect("ok");
            Json::obj([
                ("job", Json::from(*index)),
                ("draws", draws.iter().map(|&d| Json::from(d)).collect()),
                ("metric", Json::from(*metric)),
            ])
        })
        .collect();
    rtsim_campaign::json::to_jsonl(&records)
}

#[test]
fn jsonl_is_byte_identical_across_worker_counts() {
    // The acceptance bar: RTSIM_WORKERS ∈ {1, 4, 8} produce the same
    // bytes. Which worker runs a job, and when it finishes, must never
    // leak into output.
    let one = jsonl_of(1, 20040216);
    let four = jsonl_of(4, 20040216);
    let eight = jsonl_of(8, 20040216);
    assert_eq!(one, four, "1 vs 4 workers diverged");
    assert_eq!(one, eight, "1 vs 8 workers diverged");
    assert_eq!(one.lines().count(), 96);
}

#[test]
fn campaign_seed_replays_and_distinguishes() {
    let a = jsonl_of(4, 7);
    let b = jsonl_of(4, 7);
    let c = jsonl_of(4, 8);
    assert_eq!(a, b, "same seed must replay identically");
    assert_ne!(a, c, "different seeds must explore different spaces");
}

#[test]
fn one_panicking_job_out_of_100_is_isolated() {
    let report = Campaign::new("isolation", 1).workers(4).run(100, |ctx| {
        if ctx.index() == 37 {
            panic!("job 37 exploded on purpose");
        }
        ctx.index() as u64
    });
    assert_eq!(report.ok_count(), 99);
    assert_eq!(report.failed_count(), 1);
    let failures: Vec<_> = report.failures().collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(failures[0].0, 37);
    assert!(failures[0].1.message.contains("exploded on purpose"));
    // Every other slot holds its value, in index order.
    let values: Vec<u64> = report.values().copied().collect();
    let expected: Vec<u64> = (0..100).filter(|&i| i != 37).collect();
    assert_eq!(values, expected);
    // into_values surfaces the failure with its index.
    let err = report.into_values().unwrap_err();
    assert_eq!(err.0, 37);
}

#[test]
fn failures_are_deterministic_too() {
    let run = |workers| {
        let report = Campaign::new("det-fail", 3)
            .workers(workers)
            .run(40, |ctx| {
                if ctx.rng().gen_bool(0.2) {
                    panic!("unlucky draw in job {}", ctx.index());
                }
                ctx.rng().next_u64()
            });
        (
            report.failures().map(|(i, _)| i).collect::<Vec<_>>(),
            report.values().copied().collect::<Vec<u64>>(),
        )
    };
    let (fail1, ok1) = run(1);
    let (fail8, ok8) = run(8);
    assert_eq!(fail1, fail8, "which jobs fail is part of the contract");
    assert_eq!(ok1, ok8);
    assert!(!fail1.is_empty(), "p=0.2 over 40 jobs should fail some");
}

#[test]
fn run_vs_serial_reports_both_walls_and_matches() {
    let cmp = Campaign::new("compare", 11)
        .workers(4)
        .run_vs_serial(32, |ctx| {
            let spin = ctx.rng().gen_range(0u64..10_000);
            std::hint::black_box((0..spin).sum::<u64>())
        });
    assert_eq!(cmp.report.ok_count(), 32);
    assert_eq!(cmp.report.workers, 4);
    assert!(cmp.serial_wall.as_nanos() > 0);
    assert!(cmp.parallel_wall.as_nanos() > 0);
    assert!(cmp.speedup() > 0.0);
}

#[test]
fn skewed_job_costs_do_not_change_results_for_any_worker_count() {
    // The load-balancing acceptance bar: a deliberately skewed cost mix —
    // a few jobs orders of magnitude more expensive than the rest, like
    // MPEG-2 decodes among tiny trials — must still produce bit-identical
    // JSONL for any worker count, even though which worker runs which
    // job varies run to run.
    let skewed = |workers: usize| {
        let report = Campaign::new("skew", 271828)
            .workers(workers)
            .run(60, |ctx| {
                // Jobs 0, 17 and 43 are the whales; spin scales with a draw
                // so the cost itself is seeded, not scheduled.
                let heavy = matches!(ctx.index(), 0 | 17 | 43);
                let spin = if heavy {
                    200_000 + ctx.rng().gen_range(0u64..50_000)
                } else {
                    ctx.rng().gen_range(0u64..500)
                };
                let acc = std::hint::black_box((0..spin).sum::<u64>());
                (ctx.index(), acc % 7, ctx.rng().next_u64())
            });
        assert_eq!(report.ok_count(), 60);
        report
            .values()
            .map(|v| format!("{v:?}"))
            .collect::<Vec<_>>()
    };
    let one = skewed(1);
    for workers in [2, 3, 8] {
        assert_eq!(one, skewed(workers), "{workers} workers diverged");
    }
}
