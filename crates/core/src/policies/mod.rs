//! Built-in scheduling policies.
//!
//! The paper implements "several scheduling policies" with priority-based
//! preemptive scheduling as the default, and lets designers define their
//! own (see [`crate::policy::SchedulingPolicy`]). This module ships:
//!
//! - [`PriorityPreemptive`] — fixed priorities, larger value wins; the
//!   paper's default and the policy of the Figure 6/7 experiments;
//! - [`Fifo`] — first-come-first-served, never preempts;
//! - [`RoundRobin`] — FIFO with a time quantum (the *Time Sharing*
//!   algorithm §4 mentions);
//! - [`PriorityRoundRobin`] — fixed priorities with round-robin among
//!   equals (POSIX `SCHED_RR`);
//! - [`EarliestDeadlineFirst`] — dynamic deadlines (on an SMP
//!   processor: global EDF, the earliest deadlines occupy the cores);
//! - [`RateMonotonic`] — static priorities from periods (shorter period
//!   wins);
//! - [`from_fn`] — assemble an ad-hoc policy from closures.

mod edf;
mod fifo;
mod fn_policy;
mod priority;
mod priority_rr;
mod rate_monotonic;
mod round_robin;

pub use edf::EarliestDeadlineFirst;
pub use fifo::Fifo;
pub use fn_policy::{from_fn, FnPolicy};
pub use priority::PriorityPreemptive;
pub use priority_rr::PriorityRoundRobin;
pub use rate_monotonic::RateMonotonic;
pub use round_robin::RoundRobin;
