//! Analytic schedulability analysis for periodic task sets.
//!
//! The simulation model answers "what happens on this run"; classical
//! real-time theory answers "what is the worst that can happen". This
//! module implements the textbook fixed-priority results (Liu & Layland
//! utilization bound, exact response-time analysis with context-switch
//! costs — see Buttazzo, *Hard Real-Time Computing Systems*, the paper's
//! reference \[10\]) so the two can be cross-checked: for a synchronous
//! release at t = 0 (the critical instant), the simulated first response
//! of each task must equal the analytic response time exactly. The
//! `rta_vs_sim` harness and the workspace property tests do precisely
//! that.

use rtsim_kernel::SimDuration;

use crate::task::Priority;

/// A periodic task as seen by the analysis: worst-case execution time,
/// period, deadline and fixed priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Display name (diagnostics only).
    pub name: String,
    /// Worst-case execution time per job.
    pub wcet: SimDuration,
    /// Activation period.
    pub period: SimDuration,
    /// Relative deadline; defaults to the period.
    pub deadline: SimDuration,
    /// Fixed priority (larger = more urgent).
    pub priority: Priority,
}

impl PeriodicTask {
    /// Creates a task with deadline = period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `wcet` is zero.
    pub fn new(name: &str, wcet: SimDuration, period: SimDuration, priority: Priority) -> Self {
        assert!(!period.is_zero(), "task `{name}` needs a non-zero period");
        assert!(!wcet.is_zero(), "task `{name}` needs a non-zero WCET");
        PeriodicTask {
            name: name.to_owned(),
            wcet,
            period,
            deadline: period,
            priority,
        }
    }

    /// Sets an explicit relative deadline (builder style).
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = deadline;
        self
    }

    /// This task's utilization `C/T`.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_ps() as f64 / self.period.as_ps() as f64
    }
}

/// Total utilization of a task set.
pub fn utilization(tasks: &[PeriodicTask]) -> f64 {
    tasks.iter().map(PeriodicTask::utilization).sum()
}

/// The Liu & Layland rate-monotonic utilization bound for `n` tasks:
/// `n (2^{1/n} − 1)`. A rate-monotonic task set with utilization at or
/// below this bound is guaranteed schedulable (the converse is not true —
/// use [`response_time_analysis`] for an exact test).
///
/// # Examples
///
/// ```
/// use rtsim_core::analysis::liu_layland_bound;
///
/// assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
/// // The bound decreases towards ln 2 ≈ 0.693.
/// assert!(liu_layland_bound(100) > 0.69);
/// ```
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Assigns rate-monotonic priorities (shorter period = higher priority)
/// to a task set, returning the tasks with priorities rewritten.
/// Ties break by input order (earlier task gets the higher priority).
pub fn assign_rate_monotonic(mut tasks: Vec<PeriodicTask>) -> Vec<PeriodicTask> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].period, i));
    let n = tasks.len() as u32;
    for (rank, &i) in order.iter().enumerate() {
        tasks[i].priority = Priority(n - rank as u32);
    }
    tasks
}

/// Partitions a task set onto `cores` processors with the classic
/// first-fit decreasing-on-nothing heuristic: tasks are taken in input
/// order and placed on the first core whose utilization, including the
/// newcomer, stays at or below the Liu & Layland bound for the grown
/// task count. Returns one `Vec<usize>` of task indices per core, or
/// `None` when some task fits on no core (the set is not partitionable
/// under this sufficient test — an exact per-core
/// [`response_time_analysis`] may still succeed).
///
/// The result is intended to drive a partitioned rate-monotonic SMP
/// configuration: pin each returned group to its core index and assign
/// rate-monotonic priorities per group.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn partition_first_fit(tasks: &[PeriodicTask], cores: usize) -> Option<Vec<Vec<usize>>> {
    assert!(cores > 0, "partitioning needs at least one core");
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); cores];
    let mut load = vec![0f64; cores];
    for (i, task) in tasks.iter().enumerate() {
        let u = task.utilization();
        let slot =
            (0..cores).find(|&c| load[c] + u <= liu_layland_bound(bins[c].len() + 1) + 1e-12)?;
        bins[slot].push(i);
        load[slot] += u;
    }
    Some(bins)
}

/// Result of the exact analysis for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseTime {
    /// The worst-case response time, if the iteration converged within
    /// the deadline horizon.
    pub worst: Option<SimDuration>,
    /// Whether the task meets its deadline.
    pub schedulable: bool,
}

/// Exact worst-case response-time analysis for fixed-priority preemptive
/// scheduling (Joseph & Pandya / Audsley iteration):
///
/// ```text
/// R⁰ᵢ = Cᵢ′,   Rᵏ⁺¹ᵢ = Cᵢ′ + Σ_{j ∈ hp(i)} ⌈Rᵏᵢ / Tⱼ⌉ · Cⱼ′
/// ```
///
/// where `Cᵢ′ = Cᵢ + switch_cost` charges each job one full RTOS
/// switch-in (the paper's save + scheduling + load, if you pass their
/// sum). The iteration stops when it exceeds the task's deadline
/// (unschedulable) or converges.
///
/// Ties in priority are resolved pessimistically: an equal-priority task
/// counts as interference (it may be ahead in the FIFO ready queue).
pub fn response_time_analysis(
    tasks: &[PeriodicTask],
    switch_cost: SimDuration,
) -> Vec<ResponseTime> {
    tasks
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let cost = |t: &PeriodicTask| t.wcet.saturating_add(switch_cost);
            let interferers: Vec<&PeriodicTask> = tasks
                .iter()
                .enumerate()
                .filter(|&(j, other)| {
                    j != i
                        && (other.priority > task.priority
                            || (other.priority == task.priority && j < i))
                })
                .map(|(_, other)| other)
                .collect();
            let own = cost(task);
            let mut response = own;
            loop {
                let interference: SimDuration = interferers
                    .iter()
                    .map(|other| {
                        let jobs = div_ceil(response.as_ps(), other.period.as_ps());
                        cost(other) * jobs
                    })
                    .sum();
                let next = own.saturating_add(interference);
                if next > task.deadline {
                    return ResponseTime {
                        worst: None,
                        schedulable: false,
                    };
                }
                if next == response {
                    return ResponseTime {
                        worst: Some(response),
                        schedulable: true,
                    };
                }
                response = next;
            }
        })
        .collect()
}

/// `true` when every task passes the exact response-time test.
pub fn schedulable(tasks: &[PeriodicTask], switch_cost: SimDuration) -> bool {
    response_time_analysis(tasks, switch_cost)
        .iter()
        .all(|r| r.schedulable)
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn task(name: &str, wcet: u64, period: u64, prio: u32) -> PeriodicTask {
        PeriodicTask::new(name, us(wcet), us(period), Priority(prio))
    }

    #[test]
    fn single_task_response_is_its_wcet() {
        let tasks = vec![task("t", 30, 100, 1)];
        let rta = response_time_analysis(&tasks, SimDuration::ZERO);
        assert_eq!(rta[0].worst, Some(us(30)));
        assert!(rta[0].schedulable);
    }

    #[test]
    fn textbook_example_converges() {
        // Classic 3-task example: C = (1, 2, 3), T = (4, 6, 10), RM
        // priorities. Known responses: R1 = 1, R2 = 3, R3 = 10.
        let tasks = vec![
            task("t1", 1, 4, 3),
            task("t2", 2, 6, 2),
            task("t3", 3, 10, 1),
        ];
        let rta = response_time_analysis(&tasks, SimDuration::ZERO);
        assert_eq!(rta[0].worst, Some(us(1)));
        assert_eq!(rta[1].worst, Some(us(3)));
        assert_eq!(rta[2].worst, Some(us(10)));
        assert!(schedulable(&tasks, SimDuration::ZERO));
    }

    #[test]
    fn overload_is_unschedulable() {
        let tasks = vec![task("a", 60, 100, 2), task("b", 60, 100, 1)];
        let rta = response_time_analysis(&tasks, SimDuration::ZERO);
        assert!(rta[0].schedulable);
        assert!(!rta[1].schedulable);
        assert_eq!(rta[1].worst, None);
        assert!(utilization(&tasks) > 1.0);
    }

    #[test]
    fn switch_cost_inflates_responses() {
        let tasks = vec![task("hi", 10, 50, 2), task("lo", 10, 100, 1)];
        let free = response_time_analysis(&tasks, SimDuration::ZERO);
        let costly = response_time_analysis(&tasks, us(5));
        assert_eq!(free[1].worst, Some(us(20)));
        // lo: (10+5) own + one hi job (10+5) = 30.
        assert_eq!(costly[1].worst, Some(us(30)));
    }

    #[test]
    fn rate_monotonic_assignment_orders_by_period() {
        let tasks = assign_rate_monotonic(vec![
            task("slow", 1, 100, 0),
            task("fast", 1, 10, 0),
            task("mid", 1, 50, 0),
        ]);
        assert!(tasks[1].priority > tasks[2].priority);
        assert!(tasks[2].priority > tasks[0].priority);
    }

    #[test]
    fn liu_layland_monotone_decreasing() {
        let mut previous = liu_layland_bound(1);
        for n in 2..20 {
            let bound = liu_layland_bound(n);
            assert!(bound < previous);
            assert!(bound > 0.69);
            previous = bound;
        }
        assert_eq!(liu_layland_bound(0), 1.0);
    }

    #[test]
    fn equal_priority_counts_as_interference() {
        let tasks = vec![task("a", 10, 100, 1), task("b", 10, 100, 1)];
        let rta = response_time_analysis(&tasks, SimDuration::ZERO);
        // a is ahead of b in FIFO order: a sees no interference, b sees a.
        assert_eq!(rta[0].worst, Some(us(10)));
        assert_eq!(rta[1].worst, Some(us(20)));
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn zero_period_rejected() {
        let _ = task("bad", 1, 0, 1);
    }

    #[test]
    fn first_fit_packs_complementary_pairs() {
        // Four tasks of utilization ~0.5 need two cores pairwise; the
        // Liu & Layland bound for two tasks (0.828) admits 0.4 + 0.4.
        let tasks = vec![
            task("a", 40, 100, 0),
            task("b", 40, 100, 0),
            task("c", 40, 100, 0),
            task("d", 40, 100, 0),
        ];
        let bins = partition_first_fit(&tasks, 2).expect("partitionable");
        assert_eq!(bins, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn first_fit_fails_when_capacity_exhausted() {
        // Three near-saturating tasks cannot share two cores.
        let tasks = vec![
            task("a", 90, 100, 0),
            task("b", 90, 100, 0),
            task("c", 90, 100, 0),
        ];
        assert_eq!(partition_first_fit(&tasks, 2), None);
        assert!(partition_first_fit(&tasks, 3).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn first_fit_rejects_zero_cores() {
        let _ = partition_first_fit(&[], 0);
    }

    /// Generates 1..=12 tasks with random periods (possibly duplicated).
    fn gen_tasks(rng: &mut rtsim_kernel::testutil::Rng) -> Vec<PeriodicTask> {
        let n = rng.gen_range(1usize..13);
        (0..n)
            .map(|i| {
                task(
                    &format!("t{i}"),
                    1 + rng.gen_range(0u64..20),
                    10 * rng.gen_range(1u64..16),
                    0,
                )
            })
            .collect()
    }

    #[test]
    fn prop_rm_priorities_are_permutation_of_1_to_n() {
        rtsim_kernel::testutil::check(64, gen_tasks, |tasks| {
            let assigned = assign_rate_monotonic(tasks.clone());
            let mut prios: Vec<u32> = assigned.iter().map(|t| t.priority.0).collect();
            prios.sort_unstable();
            let expected: Vec<u32> = (1..=tasks.len() as u32).collect();
            assert_eq!(prios, expected);
        });
    }

    #[test]
    fn prop_rm_invariant_under_input_permutation_for_distinct_periods() {
        rtsim_kernel::testutil::check(
            64,
            |rng| {
                // Distinct periods by construction: strictly increasing,
                // then a random Fisher-Yates shuffle of the indices.
                let n = rng.gen_range(1usize..13);
                let tasks: Vec<PeriodicTask> = (0..n)
                    .map(|i| {
                        task(
                            &format!("t{i}"),
                            1 + rng.gen_range(0u64..10),
                            10 * (i as u64 + 1) + rng.gen_range(0u64..10),
                            0,
                        )
                    })
                    .collect();
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = rng.gen_range(0usize..i + 1);
                    perm.swap(i, j);
                }
                (tasks, perm)
            },
            |(tasks, perm)| {
                let direct = assign_rate_monotonic(tasks.clone());
                let shuffled: Vec<PeriodicTask> = perm.iter().map(|&i| tasks[i].clone()).collect();
                let permuted = assign_rate_monotonic(shuffled);
                for t in &direct {
                    let other = permuted
                        .iter()
                        .find(|o| o.name == t.name)
                        .expect("same task set");
                    assert_eq!(
                        t.priority, other.priority,
                        "task {} changed priority under input permutation",
                        t.name
                    );
                }
            },
        );
    }

    #[test]
    fn prop_rm_equal_periods_tie_break_by_input_order() {
        rtsim_kernel::testutil::check(64, gen_tasks, |tasks| {
            let assigned = assign_rate_monotonic(tasks.clone());
            for i in 0..assigned.len() {
                for j in i + 1..assigned.len() {
                    if assigned[i].period == assigned[j].period {
                        assert!(
                            assigned[i].priority > assigned[j].priority,
                            "earlier task {} must out-rank later equal-period {}",
                            assigned[i].name,
                            assigned[j].name
                        );
                    }
                }
            }
        });
    }
}
