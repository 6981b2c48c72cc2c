//! The genericity tour: the paper's claim that "designers can also
//! define their own policies by overloading the SchedulingPolicy method".
//!
//! Runs one contended workload (`rtsim::scenarios::contended_system`)
//! under (1) a hand-written `SchedulingPolicy` implementation, (2) an
//! ad-hoc closure policy, and (3) every built-in policy, printing the
//! worst response of the most urgent task under each — the one-screen
//! summary of what the scheduling decision costs.
//!
//! Run with: `cargo run --release --example custom_policy`

use rtsim::core::policy::{PolicyView, SchedulingPolicy, TaskView};
use rtsim::policies::{self, EarliestDeadlineFirst, Fifo, PriorityPreemptive, RoundRobin};
use rtsim::scenarios::contended_system;
use rtsim::{Measure, SimDuration, TaskId};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// A hand-written policy: urgency = priority, but a task that has been
/// ready the longest wins ties *and* anything waiting longer than 500 µs
/// jumps the queue entirely (a simple aging scheme).
#[derive(Debug, Clone)]
struct AgingPriority;

impl SchedulingPolicy for AgingPriority {
    fn name(&self) -> &str {
        "aging-priority"
    }

    fn select(&mut self, view: &PolicyView<'_>) -> Option<TaskId> {
        let now = view.now;
        let starved = view
            .ready
            .iter()
            .filter(|t| now - t.enqueued_at > us(500))
            .min_by_key(|t| t.enqueue_seq);
        if let Some(t) = starved {
            return Some(t.id);
        }
        view.ready
            .iter()
            .max_by(|a, b| {
                a.priority
                    .cmp(&b.priority)
                    .then(b.enqueue_seq.cmp(&a.enqueue_seq))
            })
            .map(|t| t.id)
    }

    fn should_preempt(
        &mut self,
        _view: &PolicyView<'_>,
        candidate: &TaskView,
        running: &TaskView,
    ) -> bool {
        candidate.priority > running.priority
    }
}

/// Runs the shared contended workload under one policy and returns
/// (urgent worst response µs, starved task's worst start latency µs).
fn run(make: &dyn Fn() -> Box<dyn SchedulingPolicy>) -> (u64, u64) {
    let mut model = contended_system();
    model.override_schedulers(true, |_| make());
    let mut system = model.elaborate().expect("valid model");
    system.run().expect("run");
    let trace = system.trace();
    let m = Measure::new(&trace);
    let urgent = trace.actor_by_name("urgent").unwrap();
    let worst_urgent = m
        .response_times(urgent)
        .into_iter()
        .max()
        .map_or(0, |d| d.as_us());
    let bg = trace.actor_by_name("bg").unwrap();
    let bg_wait = m
        .start_latencies(bg)
        .into_iter()
        .max()
        .map_or(0, |d| d.as_us());
    (worst_urgent, bg_wait)
}

fn main() {
    println!("== one workload, seven scheduling behaviours ==\n");
    println!(
        "{:<26} {:>20} {:>18}",
        "policy", "urgent worst resp", "bg start latency"
    );
    type Factory = Box<dyn Fn() -> Box<dyn SchedulingPolicy>>;
    let rows: Vec<(&str, Factory)> = vec![
        (
            "priority-preemptive",
            Box::new(|| Box::new(PriorityPreemptive::new())),
        ),
        (
            "aging-priority (custom)",
            Box::new(|| Box::new(AgingPriority)),
        ),
        (
            "lowest-seq closure",
            Box::new(|| {
                Box::new(policies::from_fn(
                    "lowest-seq",
                    |view: &PolicyView<'_>| {
                        view.ready
                            .iter()
                            .min_by_key(|t| t.enqueue_seq)
                            .map(|t| t.id)
                    },
                    |_v, c: &TaskView, r: &TaskView| c.priority > r.priority,
                ))
            }),
        ),
        ("fifo", Box::new(|| Box::new(Fifo::new()))),
        (
            "round-robin 100us",
            Box::new(|| Box::new(RoundRobin::new(us(100)))),
        ),
        (
            "sched-rr 100us",
            Box::new(|| Box::new(policies::PriorityRoundRobin::new(us(100)))),
        ),
        ("edf", Box::new(|| Box::new(EarliestDeadlineFirst::new()))),
    ];
    for (label, make) in &rows {
        let (urgent, bg) = run(make);
        println!("{:<26} {:>18}us {:>16}us", label, urgent, bg);
    }
    println!("\n(the custom aging policy trades a little urgent-task response for");
    println!("bounded background starvation — every behaviour expressed through");
    println!("the same SchedulingPolicy hook the paper describes, swept over one");
    println!("shared scenario with SystemModel::override_schedulers)");
}
