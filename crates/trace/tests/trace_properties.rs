//! Property tests for the trace layer: statistics invariants, renderer
//! robustness over arbitrary recorded histories, and differential tests
//! pinning the one-pass forms (the byte-level canonical writer and the
//! `JobFold` response summary) to independent references. Runs on the
//! in-tree `testutil` harness (seeded cases, no external crates).

use std::fmt::Write as _;

use rtsim_kernel::testutil::{check, Rng};
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::timeline::{render, TimelineOptions};
use rtsim_trace::{
    canonical, canonical_actor_into, canonical_record_into, ActorId, ActorKind, CommKind,
    DurationSummary, FaultKind, Job, JobFold, Measure, OverheadKind, Statistics, TaskState, Trace,
    TraceData, TraceRecorder,
};

fn gen_state(rng: &mut Rng) -> TaskState {
    *rng.choose(&[
        TaskState::Created,
        TaskState::Ready,
        TaskState::Running,
        TaskState::Waiting,
        TaskState::WaitingResource,
        TaskState::Terminated,
    ])
}

/// For any recorded state history, every ratio lies in [0, 1] and the
/// per-task ratios sum to at most 1 (+ float slack).
#[test]
fn statistics_ratios_are_bounded() {
    check(
        64,
        |rng| {
            (
                rng.gen_vec(1..4, |r| {
                    r.gen_vec(1..20, |r| (r.gen_range(0u64..10_000), gen_state(r)))
                }),
                rng.gen_range(1_000u64..20_000),
            )
        },
        |(histories, horizon)| {
            let rec = TraceRecorder::new();
            for (i, history) in histories.iter().enumerate() {
                let actor = rec.register(&format!("t{i}"), ActorKind::Task);
                let mut sorted = history.clone();
                sorted.sort_by_key(|&(at, _)| at);
                for (at, state) in sorted {
                    rec.state(actor, SimTime::from_ps(at), state);
                }
            }
            let stats = Statistics::from_trace(&rec.snapshot(), SimTime::from_ps(*horizon));
            for (_, t) in stats.tasks() {
                for ratio in [
                    t.activity_ratio,
                    t.preempted_ratio,
                    t.waiting_ratio,
                    t.resource_ratio,
                ] {
                    assert!((0.0..=1.0 + 1e-9).contains(&ratio), "{ratio}");
                }
                let sum = t.activity_ratio + t.preempted_ratio + t.waiting_ratio + t.resource_ratio;
                assert!(sum <= 1.0 + 1e-9, "{sum}");
            }
        },
    );
}

/// The TimeLine renderer never panics and always yields one lane per
/// task, whatever the history and window.
#[test]
fn renderer_is_total() {
    check(
        64,
        |rng| {
            (
                rng.gen_vec(1..30, |r| (r.gen_range(0u64..5_000), gen_state(r))),
                rng.gen_range(1usize..200),
                rng.gen_range(1u64..6_000),
            )
        },
        |(history, width, until)| {
            let width = *width;
            let rec = TraceRecorder::new();
            let actor = rec.register("T", ActorKind::Task);
            let mut sorted = history.clone();
            sorted.sort_by_key(|&(at, _)| at);
            for (at, state) in sorted {
                rec.state(actor, SimTime::from_ps(at), state);
            }
            let chart = render(
                &rec.snapshot(),
                &TimelineOptions {
                    width,
                    until: Some(SimTime::from_ps(*until)),
                    legend: false,
                    ..TimelineOptions::default()
                },
            );
            let lane = chart
                .lines()
                .find(|l| l.trim_start().starts_with('T'))
                .unwrap();
            // Lane body is exactly `width` columns.
            let open = lane.find('|').unwrap();
            let close = lane.rfind('|').unwrap();
            assert_eq!(close - open - 1, width);
        },
    );
}

/// DurationSummary invariants: min ≤ median ≤ p95 ≤ max and
/// min ≤ mean ≤ max.
#[test]
fn duration_summary_is_ordered() {
    check(
        64,
        |rng| rng.gen_vec(1..50, |r| r.gen_range(0u64..1_000_000)),
        |values| {
            let summary =
                DurationSummary::from_durations(values.iter().map(|&v| SimDuration::from_ps(v)))
                    .unwrap();
            assert!(summary.min <= summary.median);
            assert!(summary.median <= summary.p95);
            assert!(summary.p95 <= summary.max);
            assert!(summary.min <= summary.mean && summary.mean <= summary.max);
            assert_eq!(summary.count, values.len());
        },
    );
}

/// One task's state history as `(time step, state)` pairs; steps are
/// non-negative, so times never decrease (as in every kernel trace).
type History = Vec<(u64, TaskState)>;

fn gen_history(rng: &mut Rng) -> History {
    rng.gen_vec(0..30, |r| {
        let step = if r.gen_bool(0.3) {
            0
        } else {
            r.gen_range(1u64..1_000)
        };
        (step, gen_state(r))
    })
}

/// The job split as a forward search, kept as the reference the one-pass
/// `JobFold` rule must reproduce: every activation (a `Ready` after no
/// state, `Created` or `Waiting`) completes at the next `Waiting` or
/// `Terminated`, and has started at the first `Running` in between.
fn reference_jobs(seq: &[(SimTime, TaskState)]) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (i, &(at, state)) in seq.iter().enumerate() {
        let activation = state == TaskState::Ready
            && matches!(
                seq.get(i.wrapping_sub(1)).map(|&(_, s)| s),
                None | Some(TaskState::Created | TaskState::Waiting)
            );
        if !activation {
            continue;
        }
        let rest = &seq[i + 1..];
        let end = rest
            .iter()
            .position(|&(_, s)| matches!(s, TaskState::Waiting | TaskState::Terminated));
        let started = rest[..end.unwrap_or(rest.len())]
            .iter()
            .find_map(|&(t, s)| (s == TaskState::Running).then_some(t));
        jobs.push(Job {
            activated: at,
            started,
            completed: end.map(|e| rest[e].0),
        });
    }
    jobs
}

/// Records every history as one task (interleaved in time order, with a
/// processor's overhead records in between), checks `Measure::jobs`
/// against the forward-search reference, folds each task's state
/// records through `JobFold`, and checks (count, min, mean, max) and the
/// total against `Measure::response_times`. Returns each task's job count.
fn fold_matches_measure(histories: &[History]) -> Vec<u64> {
    let rec = TraceRecorder::new();
    let cpu = rec.register("cpu", ActorKind::Processor);
    let tasks: Vec<ActorId> = (0..histories.len())
        .map(|i| rec.register(&format!("t{i}"), ActorKind::Task))
        .collect();
    let mut changes = Vec::new();
    for (task, history) in histories.iter().enumerate() {
        let mut at = 0;
        for &(step, state) in history {
            at += step;
            changes.push((at, task, state));
        }
    }
    changes.sort_by_key(|&(at, _, _)| at); // stable: per-task order kept
    for (at, task, state) in changes {
        rec.state(tasks[task], SimTime::from_ps(at), state);
        rec.overhead(
            cpu,
            SimTime::from_ps(at),
            OverheadKind::Scheduling,
            SimDuration::from_ps(1),
        );
    }
    let trace = rec.snapshot();
    let measure = Measure::new(&trace);
    tasks
        .iter()
        .map(|&task| {
            let mut fold = JobFold::default();
            let mut seq = Vec::new();
            for r in trace.records_for(task) {
                if let TraceData::State(state) = r.data {
                    fold.observe(r.at, state);
                    seq.push((r.at, state));
                }
            }
            assert_eq!(measure.jobs(task), reference_jobs(&seq), "task {task}");
            let responses: Vec<u64> = measure
                .response_times(task)
                .iter()
                .map(|d| d.as_ps())
                .collect();
            let total: u128 = responses.iter().map(|&v| u128::from(v)).sum();
            let jobs = responses.len() as u64;
            let expected = (
                jobs,
                responses.iter().copied().min().unwrap_or(0),
                if jobs == 0 {
                    0
                } else {
                    (total / u128::from(jobs)) as u64
                },
                responses.iter().copied().max().unwrap_or(0),
            );
            let folded = (fold.jobs(), fold.min_ps(), fold.mean_ps(), fold.max_ps());
            assert_eq!(folded, expected, "task {task}: {responses:?}");
            fold.jobs()
        })
        .collect()
}

/// The one-pass response summary equals `Measure`'s job split on
/// arbitrary per-task state sequences.
#[test]
fn job_fold_matches_measure_on_random_histories() {
    check(
        256,
        |rng| rng.gen_vec(1..5, gen_history),
        |histories| {
            fold_matches_measure(histories);
        },
    );
}

/// The job-split corner cases, each pinned by name and job count.
#[test]
fn job_fold_matches_measure_on_edge_cases() {
    use TaskState::*;
    let cases: [(&str, History, u64); 6] = [
        // The Ready after Terminated is not an activation.
        (
            "ready after terminated",
            vec![
                (0, Ready),
                (1, Running),
                (4, Terminated),
                (2, Ready),
                (1, Running),
                (1, Waiting),
            ],
            1,
        ),
        // A second Created opens a second job.
        (
            "second created",
            vec![
                (0, Created),
                (0, Ready),
                (2, Running),
                (1, Created),
                (1, Ready),
                (6, Waiting),
            ],
            2,
        ),
        // Two activations are open when one Terminated closes both.
        (
            "two activations, one completion",
            vec![
                (0, Waiting),
                (1, Ready),
                (1, Created),
                (1, Ready),
                (1, Running),
                (5, Terminated),
            ],
            2,
        ),
        // The last job never completes and is left out.
        (
            "unfinished final job",
            vec![
                (0, Ready),
                (1, Running),
                (3, Waiting),
                (2, Ready),
                (1, Running),
            ],
            1,
        ),
        // A preemption Ready is within-job; the task never activates.
        (
            "no activation",
            vec![(0, Running), (5, Ready), (1, Running)],
            0,
        ),
        ("no records", vec![], 0),
    ];
    for (name, history, jobs) in cases {
        assert_eq!(fold_matches_measure(&[history]), vec![jobs], "{name}");
    }
}

/// The pre-byte-writer renderer, kept as the reference the byte writer
/// must reproduce: `format!` over the `Display` forms.
fn reference_canonical(trace: &Trace) -> String {
    let escape = |s: &str| {
        s.replace('\\', "\\\\")
            .replace('\n', "\\n")
            .replace(' ', "\\s")
    };
    let mut out = String::new();
    for (index, actor) in trace.actors().iter().enumerate() {
        let _ = writeln!(out, "actor {index} {} {}", actor.kind, escape(&actor.name));
    }
    for (seq, r) in trace.records().iter().enumerate() {
        let body = match &r.data {
            TraceData::State(s) => format!("S {s}"),
            TraceData::Overhead { kind, duration } => format!("O {kind} {}", duration.as_ps()),
            TraceData::Comm { relation, kind } => format!("C {} {kind}", relation.index()),
            TraceData::QueueDepth { depth, capacity } => format!("Q {depth}/{capacity}"),
            TraceData::ResourceHeld(held) => {
                format!("R {}", if *held { "acquired" } else { "released" })
            }
            TraceData::Annotation(label) => format!("A {}", escape(label.as_str())),
            TraceData::Core(core) => format!("K {core}"),
            TraceData::Fault { kind, magnitude_ps } => format!("F {kind} {magnitude_ps}"),
        };
        let _ = writeln!(out, "{} {seq} {} {body}", r.at.as_ps(), r.actor.index());
    }
    out
}

/// A magnitude biased towards decimal-width boundaries and `u64::MAX`.
fn gen_magnitude(rng: &mut Rng) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => *rng.choose(&[0, 1, 9, 10, 99, 100, 999_999, u64::MAX - 1, u64::MAX]),
        1 => rng.next_u64(),
        _ => rng.gen_range(0u64..1_000_000_000_000),
    }
}

/// A queue depth or capacity over the whole `u32` range, biased towards
/// decimal-width boundaries and `u32::MAX`.
fn gen_depth(rng: &mut Rng) -> u32 {
    match rng.gen_range(0u32..3) {
        0 => *rng.choose(&[0, 1, 9, 10, 99, 100, u32::MAX - 1, u32::MAX]),
        1 => rng.gen_range(0..=u32::MAX),
        _ => rng.gen_range(0u32..1_000),
    }
}

fn gen_text(rng: &mut Rng) -> String {
    rng.gen_vec(0..8, |r| {
        *r.choose(&['a', 'Z', '0', '_', ' ', '\\', '\n', 'é'])
    })
    .into_iter()
    .collect()
}

/// Every record kind, escaped names and labels, `u64::MAX` times and
/// magnitudes, and `u32::MAX` queue depths and capacities: `canonical`
/// and the byte writer over borrowed records both equal the reference
/// renderer.
#[test]
fn byte_writer_matches_the_reference_renderer() {
    check(
        256,
        |rng| {
            let actors = rng.gen_vec(1..5, |r| {
                let kind = *r.choose(&[ActorKind::Task, ActorKind::Processor, ActorKind::Relation]);
                (gen_text(r), kind)
            });
            let records = rng.gen_vec(0..40, |r| {
                (
                    r.gen_range(0u32..8),
                    r.next_u64(),
                    gen_magnitude(r),
                    gen_magnitude(r),
                    [gen_depth(r), gen_depth(r)],
                    gen_text(r),
                )
            });
            (actors, records)
        },
        |(actors, records)| {
            let rec = TraceRecorder::new();
            let ids: Vec<ActorId> = actors
                .iter()
                .map(|(name, kind)| rec.register(name, *kind))
                .collect();
            for &(kind, pick, a, b, [depth, capacity], ref label) in records {
                let actor = ids[pick as usize % ids.len()];
                let other = ids[(pick >> 32) as usize % ids.len()];
                let at = SimTime::from_ps(a);
                let states = [
                    TaskState::Created,
                    TaskState::Running,
                    TaskState::Ready,
                    TaskState::Waiting,
                    TaskState::WaitingResource,
                    TaskState::Terminated,
                ];
                let overheads = [
                    OverheadKind::ContextSave,
                    OverheadKind::Scheduling,
                    OverheadKind::ContextLoad,
                    OverheadKind::Migration,
                ];
                let faults = [
                    FaultKind::DropMessage,
                    FaultKind::DropSignal,
                    FaultKind::Jitter,
                    FaultKind::Burst,
                    FaultKind::Degraded,
                    FaultKind::Recovered,
                ];
                let comms = [CommKind::Read, CommKind::Write, CommKind::Signal];
                let i = b as usize;
                match kind {
                    0 => rec.state(actor, at, states[i % states.len()]),
                    1 => rec.overhead(actor, at, overheads[i % 4], SimDuration::from_ps(b)),
                    2 => rec.comm(actor, at, other, comms[i % 3]),
                    3 => rec.queue_depth(actor, at, depth, capacity),
                    4 => rec.resource_held(actor, at, b % 2 == 0),
                    5 => rec.annotate(actor, at, label),
                    6 => rec.core(actor, at, i),
                    _ => rec.fault(actor, at, faults[i % faults.len()], b),
                }
            }
            let trace = rec.snapshot();
            let expected = reference_canonical(&trace);

            assert_eq!(canonical(&trace), expected);

            let bytes = rec.with_records(|actors, records| {
                let mut out = Vec::new();
                for (index, info) in actors.iter().enumerate() {
                    canonical_actor_into(&mut out, index, info);
                    out.push(b'\n');
                }
                for (seq, r) in records.iter().enumerate() {
                    canonical_record_into(&mut out, seq, r);
                    out.push(b'\n');
                }
                out
            });
            assert_eq!(bytes, expected.into_bytes());
        },
    );
}
