//! `long_sim`: one pass elaborates and runs [`SYSTEMS`] long seeded
//! systems in Segment mode on one thread. The systems are drawn once at
//! set-up, so every pass does the same work; they are fingerprinted, and
//! re-run in Thread mode to compare fingerprints, only after the window.

use rtsim::kernel::testutil::Rng;
use rtsim::mcse::script as s;
use rtsim::{
    ExecMode, LockMode, Message, Overheads, SimDuration, SimTime, SystemModel, TaskConfig,
};

use crate::gauge::Gauge;
use crate::probe::{add_system_counts, check_modes, dissect, Counts};
use crate::spans::Tracer;
use crate::{Checks, Layers, Load, Pass};

/// Systems per pass.
pub const SYSTEMS: usize = 4;

/// Task activations per system, summed over its tasks. One system then
/// records 185k to 215k trace records whatever the seed: below 2^18, so
/// every seed's trace buffer grows through the same steps and peak memory
/// does not jump with the seed.
const ACTIVATIONS: f64 = 22_000.0;

/// What a generated task does each activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Computes, then waits for its next period.
    Periodic,
    /// Computes, writes one message into queue `Q<n>`, waits for its
    /// next period.
    Producer(u8),
    /// Reads one message from queue `Q<n>`, then computes.
    Consumer(u8),
    /// Computes, reads the shared variable, waits for its next period.
    VarReader,
    /// Computes, writes the shared variable, waits for its next period.
    VarWriter,
}

/// One generated task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Function name.
    pub name: String,
    /// Behaviour.
    pub role: Role,
    /// Release period (a consumer's is its producer's).
    pub period: SimDuration,
    /// CPU time per activation.
    pub cost: SimDuration,
    /// Rate-monotonic priority (higher runs first).
    pub priority: u32,
    /// Activations before the task ends.
    pub activations: u64,
}

/// One generated system: a priority-preemptive processor with 2 µs
/// overheads, two capacity-4 queues and a priority-inheritance shared
/// variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LongSpec {
    /// Model name.
    pub name: String,
    /// Every task.
    pub tasks: Vec<TaskSpec>,
    /// Hang guard: well past the last activation.
    pub horizon: SimDuration,
}

/// Draws the [`SYSTEMS`] systems of `seed`.
pub fn generate(seed: u64) -> Vec<LongSpec> {
    let root = Rng::seed_from_u64(seed);
    (0..SYSTEMS)
        .map(|k| draw(k, &mut root.fork(k as u64)))
        .collect()
}

/// UUniFast: `n` task utilisations summing to `total`, uniformly
/// distributed over the simplex.
fn uunifast(n: usize, total: f64, rng: &mut Rng) -> Vec<f64> {
    let mut left = total;
    let mut out = Vec::with_capacity(n);
    for i in 1..n {
        let next = left * rng.next_f64().powf(1.0 / (n - i) as f64);
        out.push(left - next);
        left = next;
    }
    out.push(left);
    out
}

fn draw(k: usize, rng: &mut Rng) -> LongSpec {
    let periodic = rng.gen_range(24..=48usize);
    let utilisation = 0.6 + 0.25 * rng.next_f64();
    let mut roles = vec![Role::Periodic; periodic];
    roles.extend([
        Role::Producer(0),
        Role::Consumer(0),
        Role::Producer(1),
        Role::Consumer(1),
        Role::VarReader,
        Role::VarWriter,
    ]);
    // Log-uniform periods over 1–20 ms, whole microseconds.
    let mut periods: Vec<u64> = roles
        .iter()
        .map(|_| (1_000.0 * 20f64.powf(rng.next_f64())).round() as u64)
        .collect();
    for (i, role) in roles.iter().enumerate() {
        if let Role::Consumer(_) = role {
            periods[i] = periods[i - 1];
        }
    }
    let utils = uunifast(roles.len(), utilisation, rng);
    let mut by_rate: Vec<usize> = (0..roles.len()).collect();
    by_rate.sort_by_key(|&i| (periods[i], i));
    let mut priorities = vec![0u32; roles.len()];
    for (rank, &i) in by_rate.iter().enumerate() {
        priorities[i] = (roles.len() - rank) as u32;
    }
    // One common span of simulated time, long enough for ACTIVATIONS
    // releases in total; a consumer takes exactly its producer's count.
    let span_us = ACTIVATIONS / periods.iter().map(|&p| 1.0 / p as f64).sum::<f64>();
    let mut tasks: Vec<TaskSpec> = Vec::with_capacity(roles.len());
    for (i, &role) in roles.iter().enumerate() {
        let activations = match role {
            Role::Consumer(_) => tasks[i - 1].activations,
            _ => ((span_us / periods[i] as f64).round() as u64).max(1),
        };
        tasks.push(TaskSpec {
            name: format!("t{i:02}"),
            role,
            period: SimDuration::from_us(periods[i]),
            cost: SimDuration::from_ns(
                ((utils[i] * periods[i] as f64 * 1e3).round() as u64).max(1_000),
            ),
            priority: priorities[i],
            activations,
        });
    }
    let last = tasks
        .iter()
        .map(|t| t.period * (t.activations + 1))
        .max()
        .unwrap_or_default();
    LongSpec {
        name: format!("long_sim_{k}"),
        tasks,
        horizon: last * 2,
    }
}

/// Builds the model of `spec` in exec mode `mode`.
fn build(spec: &LongSpec, mode: ExecMode) -> SystemModel {
    const QUEUES: [&str; 2] = ["Q0", "Q1"];
    let mut model = SystemModel::new(&spec.name);
    model.software_processor("CPU", Overheads::uniform(SimDuration::from_us(2)));
    for q in QUEUES {
        model.queue(q, 4);
    }
    model.shared_var("V", Message::new(0, 4), LockMode::PriorityInheritance);
    for t in &spec.tasks {
        let config = TaskConfig::new(&t.name).priority(t.priority);
        let periodic = config.clone().period(t.period).deadline(t.period);
        let half = SimDuration::from_ns(t.cost.as_ns() / 2);
        let body = |work: Vec<s::Instr>| vec![s::repeat(t.activations, work)];
        match t.role {
            Role::Periodic => {
                model.periodic_function(periodic, t.period, t.cost, t.activations);
            }
            Role::Producer(q) => {
                model.function_script(
                    periodic,
                    body(vec![
                        s::exec(t.cost),
                        s::q_write(QUEUES[q as usize], move |_| Message::new(u64::from(q), 4)),
                        s::periodic_release(t.period),
                    ]),
                );
            }
            Role::Consumer(q) => {
                model.function_script(
                    config,
                    body(vec![s::q_read(QUEUES[q as usize]), s::exec(t.cost)]),
                );
            }
            Role::VarReader => {
                model.function_script(
                    periodic,
                    body(vec![
                        s::exec(half),
                        s::var_read("V", half),
                        s::periodic_release(t.period),
                    ]),
                );
            }
            Role::VarWriter => {
                model.function_script(
                    periodic,
                    body(vec![
                        s::exec(half),
                        s::var_write("V", half, |_| Message::new(1, 4)),
                        s::periodic_release(t.period),
                    ]),
                );
            }
        }
        model.map_to_processor(&t.name, "CPU");
    }
    model.exec_mode(mode);
    model
}

struct LongSim {
    specs: Vec<LongSpec>,
}

pub(crate) fn setup(seed: u64) -> Result<Box<dyn Load>, String> {
    Ok(Box::new(LongSim {
        specs: generate(seed),
    }))
}

impl Load for LongSim {
    fn pass(&mut self, tracer: &Tracer, parent: u64, gauge: &mut Gauge, _: &mut Checks) -> Pass {
        let mut counts = Counts::new();
        let ((), time) = gauge.time(|| {
            for spec in &self.specs {
                tracer.span("job", parent, |job| {
                    let model = tracer.span("mcse.build", job, |_| build(spec, ExecMode::Segment));
                    let mut system = tracer.span("mcse.elaborate", job, |_| {
                        model.elaborate().expect("generated system elaborates")
                    });
                    tracer
                        .span("sim.run_until", job, |_| {
                            system.run_until(SimTime::ZERO + spec.horizon)
                        })
                        .expect("generated system runs");
                    add_system_counts(&mut counts, &system);
                });
            }
        });
        let records = counts["trace.records"];
        Pass {
            time,
            items: records,
            events: records,
            counts,
            ..Pass::default()
        }
    }

    /// Re-runs every system in both exec modes and requires identical
    /// fingerprints (dissecting them when traced).
    fn finish(&mut self, tracer: &Tracer, checks: &mut Checks, split: &mut Counts, _: &mut Layers) {
        for spec in &self.specs {
            let horizon = SimTime::ZERO + spec.horizon;
            let d = dissect(&|mode| build(spec, mode), horizon, tracer, 0, split);
            check_modes(&spec.name, &d, checks);
        }
    }
}
