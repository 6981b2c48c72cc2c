//! `rtsim-fault`: deterministic fault injection for the RTOS model.
//!
//! The paper's model simulates healthy systems; real designs are judged
//! by how they behave when sensors drop out, arrivals jitter, and load
//! bursts past the schedulability bound. This crate describes those
//! abnormal stimuli as a [`FaultPlan`] — a pure value, seeded from the
//! campaign RNG via [`Rng::fork`] so campaigns stay bit-identical for
//! any `RTSIM_WORKERS` — and instantiates it as a [`FaultInjector`],
//! the runtime the simulation layers consult:
//!
//! - **Dropout** ([`FaultPlan::drop_probability`],
//!   [`FaultPlan::drop_window`]): queue messages and event notifications
//!   on selected comm relations are silently lost, either with a
//!   per-channel probability (drawn in channel-operation order, which is
//!   deterministic and identical across exec modes) or inside scripted
//!   time windows. The comm layer asks the channel's [`ChannelLane`] on
//!   every delivery.
//! - **Arrival jitter** ([`FaultPlan::jitter`]): periodic releases get a
//!   bounded uniform offset. The offset is a *pure function* of
//!   `(plan seed, task, activation index)` — no shared stream — so it is
//!   identical regardless of scheduling order, exec mode or worker
//!   count.
//! - **Overload bursts** ([`FaultPlan::burst`]): inside scripted
//!   windows, selected tasks' execution costs are scaled by an integer
//!   ratio.
//!
//! On the response side, a task can register a **degraded mode**
//! ([`FaultPlan::degraded`]): after `enter_after` consecutive faulted
//! activations it switches to a fallback body under a relaxed deadline,
//! and after `exit_after` consecutive healthy activations it recovers.
//! The per-task state machine lives here ([`FaultInjector::degraded_tick`]);
//! the script interpreter drives it once per activation and branches on
//! the verdict.
//!
//! The injector itself is immutable plan data. Everything a run changes —
//! each lane's random stream and drop count, each degraded-mode monitor —
//! lives in the simulation [`World`], so a fault cell takes no lock per
//! operation and a simulation with a fault plan forks like any other.
//!
//! A plan with zero probabilities, zero jitter bounds and no windows
//! injects nothing and records nothing: its runs are byte-identical to
//! no-fault runs, which is what keeps pre-fault goldens stable.

use std::collections::BTreeMap;
use std::sync::Arc;

use rtsim_campaign::hash::Fnv1a;
use rtsim_kernel::testutil::Rng;
use rtsim_kernel::world::{Slot, World};
use rtsim_kernel::{SimDuration, SimTime};

/// Stable 64-bit stream id for a named injector family + target, so
/// every lane and jitter stream forks independently of declaration
/// order.
fn stream_id(family: &str, target: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(family.as_bytes());
    h.write(b"\0");
    h.write(target.as_bytes());
    h.finish()
}

/// How a channel loses deliveries.
#[derive(Debug, Clone, PartialEq)]
pub enum DropMode {
    /// Each delivery is lost independently with this probability.
    Probability(f64),
    /// Deliveries inside any `[from, until)` window are lost.
    Windows(Vec<(SimTime, SimTime)>),
}

/// Dropout on one comm relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DropoutSpec {
    /// Relation name (queue or event).
    pub channel: String,
    /// When deliveries are lost.
    pub mode: DropMode,
}

/// Bounded uniform arrival jitter on one task's periodic releases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitterSpec {
    /// Task (function) name.
    pub task: String,
    /// Largest offset ever added to a release.
    pub bound: SimDuration,
}

/// A transient overload burst: inside `[from, until)` the task's
/// execution costs are scaled by `num/den`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstSpec {
    /// Task (function) name.
    pub task: String,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Scale numerator.
    pub num: u64,
    /// Scale denominator.
    pub den: u64,
}

/// A task's registered degraded mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedSpec {
    /// Task (function) name.
    pub task: String,
    /// Channels whose drops count as faults against this task.
    pub watch: Vec<String>,
    /// Consecutive faulted activations before entering degraded mode.
    pub enter_after: u32,
    /// Consecutive healthy activations before recovering.
    pub exit_after: u32,
    /// Deadline in force while degraded.
    pub relaxed_deadline: SimDuration,
}

/// A deterministic fault-injection campaign over one simulated system.
///
/// Build with [`FaultPlan::new`] (explicit seed) or
/// [`FaultPlan::seeded`] (forked from a campaign seed), add injectors
/// with the builder methods, install into a model with
/// `SystemModel::fault_plan`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    dropouts: Vec<DropoutSpec>,
    jitters: Vec<JitterSpec>,
    bursts: Vec<BurstSpec>,
    degraded: Vec<DegradedSpec>,
}

impl FaultPlan {
    /// A plan with an explicit seed and no injectors.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A plan whose seed is forked from `campaign_seed` under
    /// `stream_id` — the same derivation for any worker count, so
    /// campaigns sweeping fault cells stay bit-identical under
    /// `RTSIM_WORKERS`.
    pub fn seeded(campaign_seed: u64, stream: u64) -> FaultPlan {
        FaultPlan::new(Rng::seed_from_u64(campaign_seed).fork(stream).next_u64())
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Loses each delivery on `channel` independently with probability
    /// `p`.
    pub fn drop_probability(mut self, channel: &str, p: f64) -> FaultPlan {
        self.dropouts.push(DropoutSpec {
            channel: channel.to_owned(),
            mode: DropMode::Probability(p),
        });
        self
    }

    /// Loses every delivery on `channel` inside `[from, until)`.
    /// Multiple calls for the same channel accumulate windows.
    pub fn drop_window(mut self, channel: &str, from: SimTime, until: SimTime) -> FaultPlan {
        if let Some(spec) = self.dropouts.iter_mut().find(|d| d.channel == channel) {
            if let DropMode::Windows(w) = &mut spec.mode {
                w.push((from, until));
                return self;
            }
        }
        self.dropouts.push(DropoutSpec {
            channel: channel.to_owned(),
            mode: DropMode::Windows(vec![(from, until)]),
        });
        self
    }

    /// Adds a bounded uniform offset in `[0, bound]` to each of
    /// `task`'s periodic releases.
    pub fn jitter(mut self, task: &str, bound: SimDuration) -> FaultPlan {
        self.jitters.push(JitterSpec {
            task: task.to_owned(),
            bound,
        });
        self
    }

    /// Scales `task`'s execution costs by `num/den` inside
    /// `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero or the scale shrinks cost (`num < den`).
    pub fn burst(
        mut self,
        task: &str,
        from: SimTime,
        until: SimTime,
        num: u64,
        den: u64,
    ) -> FaultPlan {
        assert!(den > 0, "burst denominator must be positive");
        assert!(num >= den, "a burst scales cost up, not down");
        self.bursts.push(BurstSpec {
            task: task.to_owned(),
            from,
            until,
            num,
            den,
        });
        self
    }

    /// Registers `task`'s degraded mode: entered after `enter_after`
    /// consecutive faulted activations (a faulted activation is one
    /// released with jitter, inside a burst window, or after a drop on
    /// any watched channel), exited after `exit_after` consecutive
    /// healthy ones, with `relaxed_deadline` in force while degraded.
    ///
    /// # Panics
    ///
    /// Panics if either threshold is zero.
    pub fn degraded(
        mut self,
        task: &str,
        watch: &[&str],
        enter_after: u32,
        exit_after: u32,
        relaxed_deadline: SimDuration,
    ) -> FaultPlan {
        assert!(enter_after > 0, "enter_after must be at least 1");
        assert!(exit_after > 0, "exit_after must be at least 1");
        self.degraded.push(DegradedSpec {
            task: task.to_owned(),
            watch: watch.iter().map(|s| (*s).to_owned()).collect(),
            enter_after,
            exit_after,
            relaxed_deadline,
        });
        self
    }

    /// Returns `true` if the plan declares no injectors at all.
    pub fn is_empty(&self) -> bool {
        self.dropouts.is_empty()
            && self.jitters.is_empty()
            && self.bursts.is_empty()
            && self.degraded.is_empty()
    }

    /// The world slots [`instantiate`](FaultPlan::instantiate) fills:
    /// one per dropout lane and one per degraded-mode monitor.
    pub fn slots(&self) -> usize {
        self.dropouts.len() + self.degraded.len()
    }

    /// Instantiates the plan's runtime, its lanes and monitors in
    /// `world`.
    pub fn instantiate(&self, world: &mut World) -> FaultInjector {
        FaultInjector::new(self.clone(), world)
    }
}

/// The per-channel dropout decider a comm relation consults: a slot of
/// the simulation [`World`], reached through the step's lent world.
///
/// `should_drop` is called once per delivery, in the channel's own
/// operation order — which the kernel makes deterministic and the
/// exec-mode equivalence suite pins as identical across modes — so
/// probability lanes replay bit-exactly.
#[derive(Debug, Clone)]
pub struct ChannelLane {
    /// Plan data, shared by the lane's copies in forked worlds.
    mode: Arc<DropMode>,
    rng: Rng,
    drops: u64,
}

impl ChannelLane {
    fn new(seed: u64, channel: &str, mode: DropMode) -> ChannelLane {
        ChannelLane {
            mode: Arc::new(mode),
            rng: Rng::seed_from_u64(seed).fork(stream_id("drop", channel)),
            drops: 0,
        }
    }

    /// Decides the fate of one delivery at `now`; counts drops.
    pub fn should_drop(&mut self, now: SimTime) -> bool {
        let drop = match &*self.mode {
            DropMode::Probability(p) => self.rng.gen_bool(*p),
            DropMode::Windows(windows) => windows
                .iter()
                .any(|(from, until)| now >= *from && now < *until),
        };
        self.drops += u64::from(drop);
        drop
    }

    /// Total deliveries dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// A degraded-mode transition reported by [`FaultInjector::degraded_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeChange {
    /// The task just crossed its fault threshold: switch to the
    /// fallback body and relax the deadline.
    EnterDegraded,
    /// The task just completed its healthy window: restore the nominal
    /// body and deadline.
    Recover,
}

/// What the interpreter learns at an activation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedVerdict {
    /// Run the fallback body this activation.
    pub degraded: bool,
    /// A transition happened right now (record it, adjust deadline).
    pub change: Option<ModeChange>,
    /// The deadline in force while degraded.
    pub relaxed_deadline: SimDuration,
}

/// One task's degraded-mode monitor, a slot of the simulation world.
#[derive(Debug, Clone)]
struct MonitorState {
    consecutive_faulted: u32,
    consecutive_healthy: u32,
    degraded: bool,
    /// Drop totals of watched lanes at the previous tick.
    watched_drops: Vec<u64>,
}

/// The runtime of one [`FaultPlan`] over one simulated system: the plan
/// plus the world slots of its lanes and monitors.
///
/// Immutable once built, so the comm layer (dropout lanes) and the
/// script interpreters (jitter, bursts, degraded modes) share it freely,
/// and so do forks of the simulation: the slot ids mean the same lanes
/// and monitors in a forked world.
pub struct FaultInjector {
    plan: FaultPlan,
    lanes: BTreeMap<String, Slot<ChannelLane>>,
    monitors: BTreeMap<String, Slot<MonitorState>>,
}

impl FaultInjector {
    /// Instantiates `plan`, its lanes and monitors in `world`.
    pub fn new(plan: FaultPlan, world: &mut World) -> FaultInjector {
        let mut lanes = BTreeMap::new();
        for spec in &plan.dropouts {
            lanes.insert(
                spec.channel.clone(),
                world.insert(ChannelLane::new(
                    plan.seed,
                    &spec.channel,
                    spec.mode.clone(),
                )),
            );
        }
        let mut monitors = BTreeMap::new();
        for spec in &plan.degraded {
            monitors.insert(
                spec.task.clone(),
                world.insert(MonitorState {
                    consecutive_faulted: 0,
                    consecutive_healthy: 0,
                    degraded: false,
                    watched_drops: vec![0; spec.watch.len()],
                }),
            );
        }
        FaultInjector {
            plan,
            lanes,
            monitors,
        }
    }

    /// The plan this runtime was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The world slot of `channel`'s dropout lane, if the plan declares
    /// one.
    pub fn lane(&self, channel: &str) -> Option<Slot<ChannelLane>> {
        self.lanes.get(channel).copied()
    }

    /// The jitter offset of `task`'s activation `k` — a pure function
    /// of `(plan seed, task, k)`, so replay order cannot perturb it.
    pub fn release_offset(&self, task: &str, k: u64) -> SimDuration {
        let Some(spec) = self.plan.jitters.iter().find(|j| j.task == task) else {
            return SimDuration::ZERO;
        };
        let bound = spec.bound.as_ps();
        if bound == 0 {
            return SimDuration::ZERO;
        }
        let mut rng = Rng::seed_from_u64(self.plan.seed)
            .fork(stream_id("jitter", task))
            .fork(k);
        SimDuration::from_ps(rng.gen_range(0..=bound))
    }

    /// Returns `true` if `task` is inside one of its burst windows.
    pub fn burst_active(&self, task: &str, now: SimTime) -> bool {
        self.plan
            .bursts
            .iter()
            .any(|b| b.task == task && now >= b.from && now < b.until)
    }

    /// The extra execution cost a burst adds to `cost` for `task` at
    /// `now` (zero outside every window). Integer arithmetic:
    /// `cost * num / den - cost`.
    pub fn burst_extra(&self, task: &str, now: SimTime, cost: SimDuration) -> SimDuration {
        let Some(b) = self
            .plan
            .bursts
            .iter()
            .find(|b| b.task == task && now >= b.from && now < b.until)
        else {
            return SimDuration::ZERO;
        };
        let scaled = cost.as_ps().saturating_mul(b.num) / b.den;
        SimDuration::from_ps(scaled.saturating_sub(cost.as_ps()))
    }

    /// The degraded-mode spec for `task`, if registered.
    pub fn degraded_spec(&self, task: &str) -> Option<&DegradedSpec> {
        self.plan.degraded.iter().find(|d| d.task == task)
    }

    /// Advances `task`'s degraded-mode state machine by one activation.
    ///
    /// `locally_faulted` is the interpreter's view of the activation
    /// (released with jitter or inside a burst window); the monitor
    /// additionally counts drops on the spec's watched channels since
    /// the previous tick. Returns `None` for tasks without a registered
    /// degraded mode. The monitor and lanes are read in `world`, the
    /// step's lent world.
    pub fn degraded_tick(
        &self,
        world: &mut World,
        task: &str,
        _now: SimTime,
        locally_faulted: bool,
    ) -> Option<DegradedVerdict> {
        let spec = self.degraded_spec(task)?;
        let monitor = *self.monitors.get(task)?;
        let mut faulted = locally_faulted;
        for (i, channel) in spec.watch.iter().enumerate() {
            let total = self.lanes.get(channel).map_or(0, |&l| world.get(l).drops());
            let st = world.get_mut(monitor);
            if total > st.watched_drops[i] {
                faulted = true;
            }
            st.watched_drops[i] = total;
        }
        let st = world.get_mut(monitor);
        let mut change = None;
        if faulted {
            st.consecutive_faulted += 1;
            st.consecutive_healthy = 0;
            if !st.degraded && st.consecutive_faulted >= spec.enter_after {
                st.degraded = true;
                change = Some(ModeChange::EnterDegraded);
            }
        } else {
            st.consecutive_healthy += 1;
            st.consecutive_faulted = 0;
            if st.degraded && st.consecutive_healthy >= spec.exit_after {
                st.degraded = false;
                change = Some(ModeChange::Recover);
            }
        }
        Some(DegradedVerdict {
            degraded: st.degraded,
            change,
            relaxed_deadline: spec.relaxed_deadline,
        })
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("lanes", &self.lanes.keys().collect::<Vec<_>>())
            .field("monitors", &self.monitors.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_us(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + us(v)
    }

    /// The plan's runtime in a world of its own.
    fn runtime(plan: &FaultPlan) -> (World, FaultInjector) {
        let mut world = World::new();
        let inj = plan.instantiate(&mut world);
        (world, inj)
    }

    #[test]
    fn probability_lane_replays_bit_exactly() {
        let plan = FaultPlan::new(7).drop_probability("q", 0.3);
        let (mut wa, a) = runtime(&plan);
        let (mut wb, b) = runtime(&plan);
        let la = a.lane("q").unwrap();
        let lb = b.lane("q").unwrap();
        let fa: Vec<bool> = (0..64).map(|i| wa.get_mut(la).should_drop(at(i))).collect();
        let fb: Vec<bool> = (0..64).map(|i| wb.get_mut(lb).should_drop(at(i))).collect();
        assert_eq!(fa, fb);
        assert!(fa.iter().any(|d| *d), "p=0.3 over 64 draws should drop");
        assert!(!fa.iter().all(|d| *d));
        assert_eq!(wa.get(la).drops(), fa.iter().filter(|d| **d).count() as u64);
    }

    #[test]
    fn probability_zero_never_drops() {
        let plan = FaultPlan::new(3).drop_probability("q", 0.0);
        let (mut world, inj) = runtime(&plan);
        let lane = world.get_mut(inj.lane("q").unwrap());
        assert!((0..256).all(|i| !lane.should_drop(at(i))));
    }

    #[test]
    fn window_lane_drops_inside_only() {
        let plan = FaultPlan::new(0)
            .drop_window("q", at(10), at(20))
            .drop_window("q", at(40), at(41));
        let (mut world, inj) = runtime(&plan);
        let lane = world.get_mut(inj.lane("q").unwrap());
        assert!(!lane.should_drop(at(9)));
        assert!(lane.should_drop(at(10)));
        assert!(lane.should_drop(at(19)));
        assert!(!lane.should_drop(at(20)));
        assert!(lane.should_drop(at(40)));
        assert!(!lane.should_drop(at(41)));
    }

    #[test]
    fn jitter_is_pure_in_task_and_activation() {
        let plan = FaultPlan::new(11).jitter("sensor", us(50));
        let (_, inj) = runtime(&plan);
        let o1 = inj.release_offset("sensor", 4);
        // Querying other activations (in any order) never perturbs it.
        let _ = inj.release_offset("sensor", 9);
        let _ = inj.release_offset("sensor", 0);
        assert_eq!(inj.release_offset("sensor", 4), o1);
        assert!(o1 <= us(50));
        assert_eq!(inj.release_offset("other", 4), SimDuration::ZERO);
        // Some activation in a reasonable range draws a nonzero offset.
        assert!((0..32).any(|k| inj.release_offset("sensor", k) > SimDuration::ZERO));
    }

    #[test]
    fn burst_scales_inside_window_only() {
        let plan = FaultPlan::new(0).burst("decoder", at(100), at(200), 3, 2);
        let (_, inj) = runtime(&plan);
        assert_eq!(
            inj.burst_extra("decoder", at(99), us(10)),
            SimDuration::ZERO
        );
        assert_eq!(inj.burst_extra("decoder", at(100), us(10)), us(5));
        assert_eq!(inj.burst_extra("decoder", at(199), us(10)), us(5));
        assert_eq!(
            inj.burst_extra("decoder", at(200), us(10)),
            SimDuration::ZERO
        );
        assert_eq!(inj.burst_extra("other", at(150), us(10)), SimDuration::ZERO);
        assert!(inj.burst_active("decoder", at(150)));
        assert!(!inj.burst_active("decoder", at(250)));
    }

    #[test]
    fn degraded_state_machine_enters_and_recovers() {
        let plan = FaultPlan::new(0).degraded("ctrl", &[], 3, 2, us(900));
        let (mut world, inj) = runtime(&plan);
        let mut tick = |f| inj.degraded_tick(&mut world, "ctrl", at(0), f).unwrap();
        assert_eq!(tick(true).change, None);
        assert_eq!(tick(true).change, None);
        let v = tick(true);
        assert_eq!(v.change, Some(ModeChange::EnterDegraded));
        assert!(v.degraded);
        assert_eq!(v.relaxed_deadline, us(900));
        // One healthy activation is not enough to recover.
        assert_eq!(tick(false).change, None);
        // A fault resets the healthy window.
        assert_eq!(tick(true).change, None);
        assert_eq!(tick(false).change, None);
        let v = tick(false);
        assert_eq!(v.change, Some(ModeChange::Recover));
        assert!(!v.degraded);
        assert!(inj
            .degraded_tick(&mut world, "other", at(0), true)
            .is_none());
    }

    #[test]
    fn degraded_counts_watched_channel_drops() {
        let plan = FaultPlan::new(0).drop_window("q", at(10), at(20)).degraded(
            "ctrl",
            &["q"],
            1,
            1,
            us(900),
        );
        let (mut world, inj) = runtime(&plan);
        let lane = inj.lane("q").unwrap();
        // No drops yet: healthy.
        assert!(
            !inj.degraded_tick(&mut world, "ctrl", at(5), false)
                .unwrap()
                .degraded
        );
        // A drop on the watched channel faults the next activation.
        assert!(world.get_mut(lane).should_drop(at(15)));
        let v = inj
            .degraded_tick(&mut world, "ctrl", at(16), false)
            .unwrap();
        assert_eq!(v.change, Some(ModeChange::EnterDegraded));
        // No further drops: recovery after one healthy activation.
        let v = inj
            .degraded_tick(&mut world, "ctrl", at(30), false)
            .unwrap();
        assert_eq!(v.change, Some(ModeChange::Recover));
    }

    #[test]
    fn seeded_plans_are_worker_count_independent() {
        // The derivation touches only (campaign_seed, stream), never a
        // shared RNG, so any interleaving of cells yields the same plan.
        let a = FaultPlan::seeded(42, 7);
        let b = FaultPlan::seeded(42, 7);
        assert_eq!(a, b);
        assert_ne!(FaultPlan::seeded(42, 8).seed(), a.seed());
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new(1).is_empty());
        assert!(!FaultPlan::new(1).jitter("t", us(1)).is_empty());
    }
}
