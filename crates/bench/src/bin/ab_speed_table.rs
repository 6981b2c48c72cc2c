//! §4 speed comparison: simulation wall-clock duration of the
//! dedicated-RTOS-thread model (approach A) versus the procedure-call
//! model (approach B), swept over task count and scheduling-action count.
//!
//! The paper's claim: approach A "increases the simulation duration since
//! there is a context switch for each call to the scheduler and each
//! return, what is not the case when we use procedure calls". Expected
//! shape: B wins everywhere, with the gap growing with the number of
//! scheduling actions.
//!
//! The same optimization exists one layer down: the kernel can back each
//! simulated process with an OS thread that is handed the kernel
//! (`ExecMode::Thread`: one OS switch for each dispatch of a process
//! other than the one that yielded, none when a process resumes itself)
//! or dispatch run-to-completion segments inline in the scheduler loop
//! (`ExecMode::Segment`: zero thread spawns, zero OS switches). The
//! `seg wall` column re-runs the procedure-call model under the segment
//! kernel; its speedup over `B wall` (the thread-backed kernel) is the
//! run-to-completion win.
//!
//! `--assert-speedup <X>` turns the ratios into gates, each on the
//! median over the cases of the per-case ratio of median walls (machine
//! independent: both sides are measured in the same process). The run
//! fails unless `B wall / seg wall` reaches `X` and `A wall / B wall`,
//! the paper's own claim, reaches 1.1. The switch counts of every row
//! are pinned exactly by `tests/regressions.rs::ab_stress_pins`.
//!
//! Run with: `cargo run --release -p rtsim-bench --bin ab_speed_table`

use std::process::ExitCode;

use rtsim::scenarios::ab_stress_system;
use rtsim::{EngineKind, ExecMode};
use rtsim_bench::harness::median;
use rtsim_bench::{fmt_wall, mean_wall, smoke, wall_samples};

/// The least median `A wall / B wall` that `--assert-speedup` accepts:
/// the paper's §4 claim that the procedure-call model simulates faster.
/// Single cases dip below 1x, so the gate takes the median.
const B_OVER_A_FLOOR: f64 = 1.1;

fn run_once(engine: EngineKind, mode: ExecMode, tasks: usize, rounds: u64) -> u64 {
    let mut model = ab_stress_system(engine, tasks, rounds);
    model.exec_mode(mode);
    let mut system = model.elaborate().expect("model");
    system.run().expect("run");
    system.kernel_stats().process_switches
}

fn parse_args() -> Result<Option<f64>, String> {
    let mut assert_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--assert-speedup" => {
                let value = args
                    .next()
                    .ok_or("--assert-speedup needs a value".to_string())?;
                assert_speedup = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x >= 1.0)
                        .ok_or(format!("--assert-speedup {value:?} is not a ratio >= 1"))?,
                );
            }
            _ => {
                return Err(format!(
                    "usage: ab_speed_table [--assert-speedup <X>], got {arg:?}"
                ))
            }
        }
    }
    Ok(assert_speedup)
}

/// The median of per-case ratios.
fn median_ratio(mut ratios: Vec<f64>) -> f64 {
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2]
}

fn main() -> ExitCode {
    let assert_speedup = match parse_args() {
        Ok(threshold) => threshold,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Smoke mode (check_hermetic) takes one sample per case instead of
    // five; the case set stays identical.
    let runs = if smoke() { 1 } else { 5 };
    println!("== §4: simulation duration, dedicated thread (A) vs procedure calls (B) ==");
    println!("== plus the segment kernel (B under ExecMode::Segment) ==\n");
    println!(
        "{:>6} {:>8} | {:>12} {:>12} {:>9} | {:>12} {:>9} | {:>9}",
        "tasks", "rounds", "A wall", "B wall", "B speedup", "seg wall", "seg/B", "switches"
    );
    let mut seg_speedups = Vec::new();
    let mut b_speedups = Vec::new();
    for (tasks, rounds) in [
        (2usize, 50u64),
        (2, 500),
        (4, 250),
        (8, 125),
        (8, 500),
        (16, 250),
        (32, 125),
    ] {
        let samples_a = wall_samples(runs, || {
            let _ = run_once(EngineKind::DedicatedThread, ExecMode::Thread, tasks, rounds);
        });
        let samples_b = wall_samples(runs, || {
            let _ = run_once(EngineKind::ProcedureCall, ExecMode::Thread, tasks, rounds);
        });
        let samples_seg = wall_samples(runs, || {
            let _ = run_once(EngineKind::ProcedureCall, ExecMode::Segment, tasks, rounds);
        });
        let (wall_a, wall_b, wall_seg) = (
            mean_wall(&samples_a),
            mean_wall(&samples_b),
            mean_wall(&samples_seg),
        );
        // The kernel counts a dispatch the same way in both exec modes,
        // so one switch count describes both B columns.
        let sw_b = run_once(EngineKind::ProcedureCall, ExecMode::Thread, tasks, rounds);
        let sw_seg = run_once(EngineKind::ProcedureCall, ExecMode::Segment, tasks, rounds);
        assert_eq!(sw_b, sw_seg, "exec modes disagree on process switches");
        // Gate on medians, not means: a single descheduling blip in a
        // thread-backed run should not inflate a claimed speedup.
        let median_a = median(&samples_a).as_secs_f64();
        let median_b = median(&samples_b).as_secs_f64();
        seg_speedups.push(median_b / median(&samples_seg).as_secs_f64().max(1e-12));
        b_speedups.push(median_a / median_b.max(1e-12));
        println!(
            "{:>6} {:>8} | {:>12} {:>12} {:>8.2}x | {:>12} {:>8.2}x | {:>9}",
            tasks,
            rounds,
            fmt_wall(wall_a),
            fmt_wall(wall_b),
            wall_a.as_secs_f64() / wall_b.as_secs_f64(),
            fmt_wall(wall_seg),
            wall_b.as_secs_f64() / wall_seg.as_secs_f64(),
            sw_b,
        );
    }
    let seg_speedup = median_ratio(seg_speedups);
    let b_speedup = median_ratio(b_speedups);
    println!("\n(B speedup > 1: the procedure-call model simulates faster, §4.2;");
    println!(" seg/B > 1: the run-to-completion kernel beats the thread-backed one)");
    println!("median procedure-call speedup over the dedicated thread: {b_speedup:.2}x");
    println!("median segment-kernel speedup over the thread-backed kernel: {seg_speedup:.2}x");
    if let Some(threshold) = assert_speedup {
        let mut failed = false;
        if seg_speedup < threshold {
            eprintln!(
                "FAIL: median segment speedup {seg_speedup:.2}x is below the required {threshold}x"
            );
            failed = true;
        }
        if b_speedup < B_OVER_A_FLOOR {
            eprintln!(
                "FAIL: median procedure-call speedup {b_speedup:.2}x is below the \
                 required {B_OVER_A_FLOOR}x"
            );
            failed = true;
        }
        if failed {
            return ExitCode::from(1);
        }
        println!(
            "ok: median segment speedup meets the required {threshold}x, \
             median procedure-call speedup the required {B_OVER_A_FLOOR}x"
        );
    }
    ExitCode::SUCCESS
}
