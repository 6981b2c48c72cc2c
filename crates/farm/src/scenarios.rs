//! Ready-made models of the paper's experimental systems.
//!
//! These builders are shared by the examples, the integration tests and
//! the benchmark harnesses that regenerate the paper's figures:
//!
//! - [`figure6_system`] — the §5 TimeLine system (hardware `Clock` +
//!   `Function_1/2/3` under a 5 µs-overhead priority-preemptive RTOS);
//! - [`figure7_system`] — the mutual-exclusion / priority-inversion
//!   scenario, parameterized by the lock protection mode;
//! - [`ab_stress_system`] — a scheduling-heavy synthetic workload for the
//!   §4 approach-A versus approach-B simulation-speed comparison;
//! - [`mpeg2_system`] — the MPEG-2 compress/decompress SoC case study:
//!   18 functions over 6 processing resources, 3 of them software
//!   processors running the RTOS model;
//! - [`quickstart_system`] — the quickstart example's interrupt-plus-
//!   background system;
//! - [`policy_sweep_system`] — the `design_space` example's four-periodic-
//!   task policy-comparison workload;
//! - [`contended_system`] — the `custom_policy` example's contended
//!   reference workload;
//! - [`automotive_system`] — the two-ECU engine-control extension;
//! - [`smp_partitioned_system`] — four periodic tasks first-fit-packed
//!   and pinned onto an N-core processor (partitioned rate-monotonic);
//! - [`smp_global_system`] — phase-shifted floating tasks on an N-core
//!   processor with a non-zero migration overhead (global scheduling);
//! - [`fault_drop_automotive_system`] / [`fault_jitter_sweep_system`] /
//!   [`fault_burst_mpeg2_system`] / [`fault_degraded_sensor_system`] —
//!   the systems above under deterministic fault plans (message dropout,
//!   release jitter, transient overload, degraded-mode entry).
//!
//! Every builder returns an un-elaborated [`SystemModel`], so callers can
//! still add constraints or re-point the schedulers (see
//! [`SystemModel::override_schedulers`]) before elaboration — that hook
//! is how the regression farm sweeps one scenario across the whole
//! policy matrix.

use rtsim_comm::{EventPolicy, LockMode};
use rtsim_core::policies::PriorityPreemptive;
use rtsim_core::{EngineKind, Overheads, TaskConfig};
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_mcse::script as s;
use rtsim_mcse::{FaultPlan, Mapping, Message, Regs, SystemModel, TimingConstraint};

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// Builds the paper's Figure 6 system.
///
/// One software processor (`Processor`, priority-based preemptive, all
/// three overheads 5 µs), three software functions with priorities 5/3/2,
/// and a hardware clock signalling `Clk` at 100 µs and 400 µs. The clock
/// annotates `clk_edge` at each edge, so reaction times can be measured.
///
/// Run to completion: the simulation ends at 780 µs.
pub fn figure6_system(engine: EngineKind) -> SystemModel {
    let mut model = SystemModel::new("figure6");
    model.event("Clk", EventPolicy::Fugitive);
    model.event("Event_1", EventPolicy::Fugitive);
    model.software_processor_with(
        "Processor",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(5)),
        true,
        engine,
    );
    model.function_script(
        TaskConfig::new("Clock"),
        vec![
            s::delay(us(100)),
            s::note("clk_edge"),
            s::signal("Clk"),
            s::delay(us(300)),
            s::note("clk_edge"),
            s::signal("Clk"),
        ],
    );
    model.function_script(
        TaskConfig::new("Function_1").priority(5),
        vec![s::repeat(
            2,
            vec![
                s::await_event("Clk"),
                s::exec(us(20)),
                s::signal("Event_1"),
                s::exec(us(20)),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("Function_2").priority(3),
        vec![s::repeat(
            2,
            vec![s::await_event("Event_1"), s::exec(us(30))],
        )],
    );
    model.function_script(
        TaskConfig::new("Function_3").priority(2),
        vec![s::exec(us(500))],
    );
    model.map("Clock", Mapping::Hardware);
    for f in ["Function_1", "Function_2", "Function_3"] {
        model.map_to_processor(f, "Processor");
    }
    model
}

/// Builds the paper's Figure 7 mutual-exclusion scenario with the given
/// shared-variable protection mode.
///
/// `Function_3` (priority 2) performs a long 100 µs read of
/// `SharedVar_1`; a clock wakes `Function_1` (priority 5) at 50 µs,
/// preempting the read; `Function_2` (priority 3) then wants the variable
/// at 60 µs. With [`LockMode::Plain`] the priority inversion of the
/// paper's Figure 7 appears; [`LockMode::PreemptionMasked`] is the fix the
/// paper proposes; [`LockMode::PriorityInheritance`] is the classic
/// protocol, added as an extension.
pub fn figure7_system(engine: EngineKind, mode: LockMode) -> SystemModel {
    let mut model = SystemModel::new("figure7");
    model.event("Clk", EventPolicy::Fugitive);
    model.shared_var("SharedVar_1", Message::new(0, 4), mode);
    model.software_processor_with(
        "Processor",
        Box::new(PriorityPreemptive::new()),
        Overheads::zero(),
        true,
        engine,
    );
    model.function_script(
        TaskConfig::new("Clock"),
        vec![s::delay(us(50)), s::signal("Clk")],
    );
    model.function_script(
        TaskConfig::new("Function_1").priority(5),
        vec![s::await_event("Clk"), s::exec(us(30))],
    );
    model.function_script(
        TaskConfig::new("Function_2").priority(3),
        vec![
            s::delay(us(60)),
            s::note("f2_wants_var"),
            s::var_read("SharedVar_1", us(10)),
            s::note("f2_got_var"),
            s::exec(us(10)),
        ],
    );
    model.function_script(
        TaskConfig::new("Function_3").priority(2),
        vec![s::var_read("SharedVar_1", us(100)), s::exec(us(50))],
    );
    model.map("Clock", Mapping::Hardware);
    for f in ["Function_1", "Function_2", "Function_3"] {
        model.map_to_processor(f, "Processor");
    }
    model
}

/// Builds a scheduling-heavy synthetic workload for the §4 simulation-
/// speed comparison: `tasks` ladder-priority tasks on one processor, each
/// alternating short `execute` and `delay` phases for `rounds` rounds —
/// every phase boundary is a scheduling action, so the workload maximizes
/// the coroutine-switch difference between the two engines.
pub fn ab_stress_system(engine: EngineKind, tasks: usize, rounds: u64) -> SystemModel {
    let mut model = SystemModel::new("ab_stress");
    model.software_processor_with(
        "CPU",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(SimDuration::from_ns(500)),
        true,
        engine,
    );
    for i in 0..tasks {
        let name = format!("t{i}");
        model.function_script(
            TaskConfig::new(&name).priority(i as u32 + 1),
            vec![s::repeat(
                rounds,
                vec![s::exec(us(1)), s::delay(us(1 + i as u64))],
            )],
        );
        model.map_to_processor(&name, "CPU");
    }
    model
}

/// Builds the quickstart system on the model layer: a background task, a
/// high-priority interrupt handler, and a periodic hardware timer raising
/// the interrupt, on one 5 µs-overhead RTOS processor.
///
/// The handler (priority 9) services 4 timer pulses of 20 µs each; the
/// background task (priority 1) owns the remaining 600 µs of compute and
/// is preempted by every pulse.
pub fn quickstart_system() -> SystemModel {
    let mut model = SystemModel::new("quickstart");
    model.event("Irq", EventPolicy::Counter);
    model.software_processor("CPU0", Overheads::uniform(us(5)));
    model.function_script(
        TaskConfig::new("timer"),
        vec![s::repeat(4, vec![s::delay(us(150)), s::signal("Irq")])],
    );
    model.function_script(
        TaskConfig::new("irq_handler").priority(9),
        vec![s::repeat(4, vec![s::await_event("Irq"), s::exec(us(20))])],
    );
    model.function_script(
        TaskConfig::new("background").priority(1),
        vec![s::exec(us(600))],
    );
    model.map("timer", Mapping::Hardware);
    model.map_to_processor("irq_handler", "CPU0");
    model.map_to_processor("background", "CPU0");
    model
}

/// Builds the `design_space` example's policy-comparison workload: four
/// periodic tasks with mixed urgency sharing one 5 µs-overhead CPU, rate-
/// monotonic-friendly priorities (shortest period highest), implicit
/// deadlines, 16 activations each.
///
/// The `task0-deadline` timing constraint pins the most urgent task's
/// period as its completion bound, which
/// [`verify_constraints`](rtsim_mcse::ElaboratedSystem::verify_constraints)
/// checks.
pub fn policy_sweep_system() -> SystemModel {
    let mut model = SystemModel::new("policy_sweep");
    model.software_processor("CPU", Overheads::uniform(us(5)));
    for (i, (period_us, cost_us)) in [
        (1_000u64, 200u64),
        (2_000, 500),
        (4_000, 900),
        (8_000, 1_500),
    ]
    .iter()
    .enumerate()
    {
        let name = format!("task{i}");
        let cfg = TaskConfig::new(&name)
            .priority(4 - i as u32)
            .deadline(us(*period_us));
        model.periodic_function(cfg, us(*period_us), us(*cost_us), 16);
        model.map_to_processor(&name, "CPU");
    }
    model.constraint(TimingConstraint::CompletionWithin {
        name: "task0-deadline".into(),
        function: "task0".into(),
        bound: us(1_000),
    });
    model
}

/// Builds the `custom_policy` example's contended reference workload: an
/// urgent 400 µs-periodic task (priority 9, 300 µs deadline), two mid
/// 800 µs-periodic loads (priority 5), and a 2 ms background task that
/// starves under pure priority scheduling — on one 2 µs-overhead CPU.
///
/// How much the urgent task's response and the background task's start
/// latency move is the one-screen summary of what the scheduling decision
/// costs; sweep it with
/// [`override_schedulers`](SystemModel::override_schedulers).
pub fn contended_system() -> SystemModel {
    let mut model = SystemModel::new("contended");
    model.software_processor("CPU", Overheads::uniform(us(2)));
    model.periodic_function(
        TaskConfig::new("urgent").priority(9).deadline(us(300)),
        us(400),
        us(100),
        20,
    );
    model.map_to_processor("urgent", "CPU");
    for i in 0..2u32 {
        let name = format!("mid{i}");
        model.periodic_function(
            TaskConfig::new(&name).priority(5).deadline(us(2_000)),
            us(800),
            us(250),
            10,
        );
        model.map_to_processor(&name, "CPU");
    }
    model.function_script(TaskConfig::new("bg").priority(1), vec![s::exec(us(2_000))]);
    model.map_to_processor("bg", "CPU");
    model
}

/// Configuration of the [`mpeg2_system`] case study.
#[derive(Debug, Clone)]
pub struct Mpeg2Config {
    /// Frames to push through the codec.
    pub frames: u64,
    /// RTOS implementation strategy for the three software processors.
    pub engine: EngineKind,
    /// RTOS overheads of the three software processors.
    pub overheads: Overheads,
    /// Frame period of the camera (and of the decoder's output clock).
    pub frame_period: SimDuration,
    /// Capacity of every inter-stage queue.
    pub queue_capacity: usize,
}

impl Default for Mpeg2Config {
    fn default() -> Self {
        Mpeg2Config {
            frames: 25,
            engine: EngineKind::ProcedureCall,
            overheads: Overheads::uniform(SimDuration::from_us(5)),
            frame_period: SimDuration::from_us(4_000),
            queue_capacity: 4,
        }
    }
}

/// Builds the paper's closing case study: "a video MPEG-2 compressing and
/// decompressing SoC ... composed of 18 tasks implemented on six
/// processors, three of them are software processors with a RTOS model."
///
/// The topology (the paper gives only the shape, so stage costs are
/// plausible synthetic values):
///
/// ```text
/// HW resources (fully concurrent; 5 functions on 3 conceptual HW
/// processors — camera/display I/O, the DCT accelerator, the IDCT
/// accelerator):
///   video_in ─► q_raw            dct_accel:  q_dct_in  ─► q_dct_out
///   net_loop: q_stream ─► q_rx   idct_accel: q_idct_in ─► q_idct_out
///   video_out: q_display ─► sink
///
/// CPU0 (encoder control, RTOS, 6 tasks): preprocess ► motion_est ►
///   dct_driver, quantize, rate_control (periodic), enc_ctrl (periodic)
/// CPU1 (bitstream, RTOS, 3 tasks): vlc, mux, audio_enc (periodic)
/// CPU2 (decoder, RTOS, 4 tasks): demux_vld, dequant, motion_comp, postproc
/// ```
///
/// 5 + 6 + 3 + 4 = 18 tasks on 6 processing resources, 3 of them software
/// processors with the RTOS model — the paper's stated topology.
///
/// `video_in` annotates `frame_in` per captured
/// frame and `video_out` annotates `frame_out` per displayed frame, so the
/// end-to-end latency distribution can be extracted from the trace.
pub fn mpeg2_system(config: &Mpeg2Config) -> SystemModel {
    let frames = config.frames;
    let period = config.frame_period;
    let cap = config.queue_capacity;
    let mut model = SystemModel::new("mpeg2_soc");

    for q in [
        "q_raw",
        "q_pre",
        "q_me",
        "q_dct_in",
        "q_dct_out",
        "q_quant",
        "q_vlc",
        "q_stream",
        "q_rx",
        "q_vld",
        "q_idct_in",
        "q_idct_out",
        "q_mc",
        "q_display",
    ] {
        model.queue(q, cap);
    }
    model.shared_var("bitrate", Message::new(0, 8), LockMode::PriorityInheritance);

    for cpu in ["CPU0", "CPU1", "CPU2"] {
        model.software_processor_with(
            cpu,
            Box::new(PriorityPreemptive::new()),
            config.overheads.clone(),
            true,
            config.engine,
        );
    }

    // A read/compute/forward pipeline stage, shared by most functions.
    let stage = |input: &str, cost: SimDuration, output: &str| {
        vec![s::repeat(
            frames,
            vec![
                s::q_read(input),
                s::exec(cost),
                s::q_write(output, |r: &Regs| r.msg),
            ],
        )]
    };

    // ---- hardware functions (6) ------------------------------------
    model.function_script(
        TaskConfig::new("video_in"),
        vec![s::repeat(
            frames,
            vec![
                s::delay(period),
                s::note("frame_in"),
                // 352x288 YUV420
                s::q_write("q_raw", |r: &Regs| Message::new(r.k, 152_064)),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("dct_accel"),
        stage("q_dct_in", us(400), "q_dct_out"),
    );
    model.function_script(
        TaskConfig::new("idct_accel"),
        stage("q_idct_in", us(400), "q_idct_out"),
    );
    // net_loop's cost models the transmission latency.
    model.function_script(
        TaskConfig::new("net_loop"),
        stage("q_stream", us(100), "q_rx"),
    );
    model.function_script(
        TaskConfig::new("video_out"),
        vec![s::repeat(
            frames,
            vec![
                s::q_read("q_display"),
                s::note("frame_out"),
                s::exec(us(50)),
            ],
        )],
    );
    // ---- CPU0: encoder front-end (6 software functions) -------------
    model.function_script(
        TaskConfig::new("preprocess").priority(6),
        stage("q_raw", us(300), "q_pre"),
    );
    model.function_script(
        TaskConfig::new("motion_est").priority(5),
        stage("q_pre", us(800), "q_me"),
    );
    model.function_script(
        TaskConfig::new("dct_driver").priority(5),
        stage("q_me", us(50), "q_dct_in"),
    );
    model.function_script(
        TaskConfig::new("quantize").priority(4),
        vec![s::repeat(
            frames,
            vec![
                s::q_read("q_dct_out"),
                s::var_read("bitrate", us(0)),
                s::exec_with(|r: &Regs| us(200) + us(1) * (r.var.size % 64)),
                s::q_write("q_quant", |r: &Regs| r.msg),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("rate_control")
            .priority(7)
            .period(period / 2),
        vec![s::repeat(
            frames * 2,
            vec![
                s::delay(period / 2),
                s::var_write("bitrate", us(20), |r: &Regs| {
                    Message::new(r.k, 8 + r.k % 32)
                }),
                s::exec(us(80)),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("enc_ctrl").priority(8).period(period),
        vec![s::repeat(frames, vec![s::delay(period), s::exec(us(50))])],
    );

    // ---- CPU1: bitstream back-end (3 software functions) ------------
    model.function_script(
        TaskConfig::new("vlc").priority(5),
        stage("q_quant", us(500), "q_vlc"),
    );
    model.function_script(
        TaskConfig::new("mux").priority(4),
        stage("q_vlc", us(100), "q_stream"),
    );
    model.function_script(
        TaskConfig::new("audio_enc").priority(3).period(period),
        vec![s::repeat(frames, vec![s::delay(period), s::exec(us(250))])],
    );

    // ---- CPU2: decoder (4 software functions) -----------------------
    model.function_script(
        TaskConfig::new("demux_vld").priority(6),
        stage("q_rx", us(350), "q_vld"),
    );
    model.function_script(
        TaskConfig::new("dequant").priority(5),
        stage("q_vld", us(250), "q_idct_in"),
    );
    model.function_script(
        TaskConfig::new("motion_comp").priority(4),
        stage("q_idct_out", us(300), "q_mc"),
    );
    model.function_script(
        TaskConfig::new("postproc").priority(3),
        stage("q_mc", us(350), "q_display"),
    );

    // ---- mapping -----------------------------------------------------
    for hw in [
        "video_in",
        "dct_accel",
        "idct_accel",
        "net_loop",
        "video_out",
    ] {
        model.map(hw, Mapping::Hardware);
    }
    for f in [
        "preprocess",
        "motion_est",
        "dct_driver",
        "quantize",
        "rate_control",
        "enc_ctrl",
    ] {
        model.map_to_processor(f, "CPU0");
    }
    for f in ["vlc", "mux", "audio_enc"] {
        model.map_to_processor(f, "CPU1");
    }
    for f in ["demux_vld", "dequant", "motion_comp", "postproc"] {
        model.map_to_processor(f, "CPU2");
    }
    model
}

/// Configuration of the [`automotive_system`] case study (extension: a
/// second domain example beyond the paper's MPEG-2 SoC).
#[derive(Debug, Clone)]
pub struct AutomotiveConfig {
    /// Inter-arrival gaps of the crank-angle interrupt (jitter welcome:
    /// generate them from engine-speed profiles in the testbench).
    pub crank_gaps: Vec<SimDuration>,
    /// RTOS implementation strategy of both ECUs.
    pub engine: EngineKind,
    /// RTOS overheads of both ECUs.
    pub overheads: Overheads,
}

impl Default for AutomotiveConfig {
    fn default() -> Self {
        AutomotiveConfig {
            // 3000 rpm, 4 pulses/rev: one pulse every 5 ms.
            crank_gaps: vec![SimDuration::from_us(5_000); 20],
            engine: EngineKind::ProcedureCall,
            overheads: Overheads::uniform(SimDuration::from_us(5)),
        }
    }
}

/// Builds an automotive engine-control system: two ECUs over a CAN link.
///
/// ```text
/// crank sensor (HW, jittered schedule) ─► crank_isr (prio 10, ECU_engine)
///   crank_isr ─ crank_ev (counter) ─► injection (prio 9, deadline!)
///   injection & diagnostics share `inj_map` (priority inheritance)
///   knock_monitor (periodic) ─► q_telemetry ─► can_tx ─► q_can
///   CAN bus (HW, 200 us/frame) ─► q_dash ─► dash_update (ECU_dash)
/// ```
///
/// The interesting question — the reason one simulates before building —
/// is whether `injection` always reacts to a crank pulse within its
/// budget while `diagnostics` holds the shared injection map. The crank
/// annotates `crank` per pulse and `injection` annotates `injected` on
/// completion, so latencies fall out of the trace.
pub fn automotive_system(config: &AutomotiveConfig) -> SystemModel {
    let pulses = config.crank_gaps.len() as u64;
    let gaps = config.crank_gaps.clone();
    let total: SimDuration = gaps.iter().copied().sum();
    let knock_rounds = (total.as_us() / 2_000).max(1);
    let diag_rounds = (total.as_us() / 10_000).max(1);

    let mut model = SystemModel::new("automotive_ecu");
    // One counter event per consumer: a counter token is consumed by a
    // single waiter, and both the ISR and the injection task must see
    // every pulse.
    model.event("crank_ev_isr", EventPolicy::Counter);
    model.event("crank_ev_inj", EventPolicy::Counter);
    model.queue("q_telemetry", 8);
    model.queue("q_can", 4);
    model.queue("q_dash", 4);
    model.shared_var(
        "inj_map",
        Message::new(0, 64),
        LockMode::PriorityInheritance,
    );
    for ecu in ["ECU_engine", "ECU_dash"] {
        model.software_processor_with(
            ecu,
            Box::new(PriorityPreemptive::new()),
            config.overheads.clone(),
            true,
            config.engine,
        );
    }

    // -- hardware ------------------------------------------------------
    model.function_script(
        TaskConfig::new("crank_sensor"),
        vec![s::repeat(
            pulses,
            vec![
                s::delay_with(move |r: &Regs| gaps[r.k as usize]),
                s::note("crank"),
                s::signal("crank_ev_isr"),
                s::signal("crank_ev_inj"),
            ],
        )],
    );
    // Poll the CAN queue; park 500 us between polls and stop once the
    // bus has been quiet well past the last crank pulse.
    let quiet_after = SimTime::ZERO + total + us(20_000);
    model.function_script(
        TaskConfig::new("can_bus"),
        vec![s::forever(vec![
            s::q_try_read("q_can"),
            s::if_flag(
                // frame transmission
                vec![s::exec(us(200)), s::q_write("q_dash", |r: &Regs| r.msg)],
                vec![
                    s::delay(us(500)),
                    s::if_now_past(move |_| quiet_after, vec![s::ret()]),
                ],
            ),
        ])],
    );

    // -- ECU_engine ----------------------------------------------------
    model.function_script(
        TaskConfig::new("crank_isr").priority(10),
        vec![s::repeat(
            pulses,
            vec![
                s::await_event("crank_ev_isr"),
                s::exec(us(20)),
                s::note("isr_done"),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("injection").priority(9).deadline(us(500)),
        vec![s::repeat(
            pulses,
            vec![
                s::await_event("crank_ev_inj"),
                s::var_read("inj_map", us(30)),
                s::exec(us(120)),
                s::note("injected"),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("knock_monitor")
            .priority(5)
            .period(us(2_000)),
        vec![s::repeat(
            knock_rounds,
            vec![
                s::delay(us(2_000)),
                s::exec(us(100)),
                s::q_try_write("q_telemetry", |r: &Regs| Message::new(r.k, 16)),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("can_tx").priority(4),
        vec![s::repeat(
            knock_rounds,
            vec![
                s::q_read("q_telemetry"),
                s::exec(us(50)),
                s::q_write("q_can", |r: &Regs| r.msg),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("diagnostics")
            .priority(2)
            .period(us(10_000)),
        vec![s::repeat(
            diag_rounds,
            vec![
                s::delay(us(10_000)),
                // Long map recalibration under the PI lock: without
                // priority inheritance this would stall injection behind
                // knock_monitor's preemptions.
                s::var_write("inj_map", us(200), |r: &Regs| Message::new(r.k, 64)),
                s::exec(us(200)),
            ],
        )],
    );

    // -- ECU_dash ------------------------------------------------------
    model.function_script(
        TaskConfig::new("dash_update").priority(3),
        vec![s::repeat(
            knock_rounds,
            vec![s::q_read("q_dash"), s::exec(us(300))],
        )],
    );

    for hw in ["crank_sensor", "can_bus"] {
        model.map(hw, Mapping::Hardware);
    }
    for f in [
        "crank_isr",
        "injection",
        "knock_monitor",
        "can_tx",
        "diagnostics",
    ] {
        model.map_to_processor(f, "ECU_engine");
    }
    model.map_to_processor("dash_update", "ECU_dash");

    model.constraint(rtsim_mcse::TimingConstraint::ReactionWithin {
        name: "crank-to-injection-start".into(),
        stimulus: "crank".into(),
        reactor: "injection".into(),
        bound: us(200),
    });
    model.constraint(rtsim_mcse::TimingConstraint::CompletionWithin {
        name: "injection-deadline".into(),
        function: "injection".into(),
        bound: us(500),
    });
    model
}

/// Builds the partitioned-SMP regression scenario: four periodic tasks
/// statically placed on `cores` cores by the first-fit utilization
/// packing of [`rtsim_core::partition_first_fit`], with rate-monotonic
/// priorities ([`rtsim_core::assign_rate_monotonic`]) and every task
/// pinned to its partition via [`TaskConfig::pin_to_core`] — the classic
/// partitioned-RM configuration. Total utilization is 1.4, so the set
/// needs at least two cores; with the default registry sweep the farm
/// runs it at `cores = 2` (partitions `{t0, t1}` and `{t2, t3}`).
///
/// Because the pinning lives in the task configs it survives
/// [`SystemModel::override_schedulers`]: under every policy of the
/// matrix each core still only ever elects from its own partition.
pub fn smp_partitioned_system(cores: u8) -> SystemModel {
    use rtsim_core::{assign_rate_monotonic, partition_first_fit, PeriodicTask, Priority};

    // t1's 900 µs jobs straddle t0's 1 ms releases, so core 0 is
    // contended and the cell's policy/mode choice shows in the schedule
    // (RM preempts t1 at each t0 release; FIFO lets it run out).
    let tasks = assign_rate_monotonic(vec![
        PeriodicTask::new("t0", us(300), us(1_000), Priority(0)),
        PeriodicTask::new("t1", us(900), us(2_000), Priority(0)),
        PeriodicTask::new("t2", us(700), us(2_000), Priority(0)),
        PeriodicTask::new("t3", us(1_200), us(4_000), Priority(0)),
    ]);
    let bins = partition_first_fit(&tasks, cores as usize)
        .unwrap_or_else(|| panic!("task set does not first-fit onto {cores} cores"));

    let mut model = SystemModel::new("smp_partitioned");
    model.software_processor_with(
        "CPU",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(5)),
        true,
        EngineKind::ProcedureCall,
    );
    model.processor_cores("CPU", cores as usize);
    for (core, bin) in bins.iter().enumerate() {
        for &i in bin {
            let t = &tasks[i];
            let cfg = TaskConfig::new(&t.name)
                .priority(t.priority.0)
                .deadline(t.deadline)
                .pin_to_core(core);
            model.periodic_function(cfg, t.period, t.wcet, 8);
            model.map_to_processor(&t.name, "CPU");
        }
    }
    model
}

/// Builds the global-SMP regression scenario: five phase-shifted
/// compute/sleep tasks sharing one `cores`-core processor under a single
/// ready queue, with a non-zero migration overhead (12 µs on top of the
/// uniform 5 µs save/schedule/load) so core hops are visible in the
/// canonical trace as `O migration` segments. Four tasks float across
/// all cores; `pinned` is restricted to core 0, so affinity filtering is
/// exercised inside global election too.
pub fn smp_global_system(cores: u8) -> SystemModel {
    let mut model = SystemModel::new("smp_global");
    model.software_processor_with(
        "CPU",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(5)).with_migration(us(12)),
        true,
        EngineKind::ProcedureCall,
    );
    model.processor_cores("CPU", cores as usize);
    for i in 0..4u64 {
        let name = format!("float{i}");
        let cfg = TaskConfig::new(&name)
            .priority(4 - i as u32)
            .deadline(us(2_000));
        model.function_script(
            cfg,
            vec![
                s::delay(us(50 * i)),
                s::repeat(6, vec![s::exec(us(150)), s::delay(us(100))]),
            ],
        );
        model.map_to_processor(&name, "CPU");
    }
    model.function_script(
        TaskConfig::new("pinned").priority(5).pin_to_core(0),
        vec![s::repeat(4, vec![s::exec(us(80)), s::delay(us(300))])],
    );
    model.map_to_processor("pinned", "CPU");
    model
}

// ---------------------------------------------------------------------
// Fault-injection scenarios. Each wraps one of the nominal systems above
// in a deterministic `FaultPlan` (seeded from the farm's campaign seed),
// so the golden matrix also pins behaviour *under* faults: message
// dropout, release jitter, transient overload, and degraded-mode entry.
// All plans replay bit-identically for any worker count and both kernel
// execution modes — the same invariant the nominal cells pin.
// ---------------------------------------------------------------------

/// Builds the message-dropout fault scenario: [`automotive_system`]
/// losing telemetry frames on `q_telemetry` with probability 0.3 (seeded
/// per-channel stream) and suffering a scripted CAN→dash blackout
/// (`q_dash`) between 20 ms and 50 ms. Downstream consumers simply see
/// fewer messages; the run still terminates on its own because every
/// blocked reader just ends idle.
pub fn fault_drop_automotive_system() -> SystemModel {
    let mut model = automotive_system(&AutomotiveConfig::default());
    model.fault_plan(
        FaultPlan::seeded(0, 0xD801)
            .drop_probability("q_telemetry", 0.3)
            .drop_window(
                "q_dash",
                SimTime::ZERO + us(20_000),
                SimTime::ZERO + us(50_000),
            ),
    );
    model
}

/// Builds the release-jitter fault scenario: [`policy_sweep_system`]
/// with bounded uniform jitter on its two most urgent periodic tasks
/// (task0 up to 150 µs late, task1 up to 300 µs). The offsets are a pure
/// function of the plan seed and the activation index, so they are
/// identical under every policy of the sweep — only the scheduling
/// response to them differs.
pub fn fault_jitter_sweep_system() -> SystemModel {
    let mut model = policy_sweep_system();
    model.fault_plan(
        FaultPlan::seeded(0, 0x71E2)
            .jitter("task0", us(150))
            .jitter("task1", us(300)),
    );
    model
}

/// Builds the transient-overload fault scenario: the 6-frame
/// [`mpeg2_system`] with two scripted burst windows — motion estimation
/// costs double between 4 ms and 12 ms, and VLC costs 3/2 between 8 ms
/// and 20 ms — modelling data-dependent load spikes in the encoder.
pub fn fault_burst_mpeg2_system() -> SystemModel {
    let mut model = mpeg2_system(&Mpeg2Config {
        frames: 6,
        ..Mpeg2Config::default()
    });
    model.fault_plan(
        FaultPlan::seeded(0, 0xB512)
            .burst(
                "motion_est",
                SimTime::ZERO + us(4_000),
                SimTime::ZERO + us(12_000),
                2,
                1,
            )
            .burst(
                "vlc",
                SimTime::ZERO + us(8_000),
                SimTime::ZERO + us(20_000),
                3,
                2,
            ),
    );
    model
}

/// Builds the degraded-mode fault scenario: a hardware sensor feeding a
/// periodic controller through `q_samples`, with a scripted sensor
/// blackout from 3 ms to 6 ms. The controller watches the channel
/// through its [`FaultPlan::degraded`] registration: after 2 consecutive
/// faulted activations it enters its fallback body (a cheap open-loop
/// step) under a relaxed 1.5 ms deadline, and recovers to the nominal
/// closed-loop body after 3 consecutive healthy activations.
pub fn fault_degraded_sensor_system() -> SystemModel {
    let mut model = SystemModel::new("degraded_sensor");
    model.queue("q_samples", 8);
    model.software_processor("CPU", Overheads::uniform(us(5)));
    model.function_script(
        TaskConfig::new("sensor"),
        vec![s::repeat(
            24,
            vec![
                s::delay(us(500)),
                s::q_write("q_samples", |r: &Regs| Message::new(r.k, 16)),
            ],
        )],
    );
    model.function_script(
        TaskConfig::new("controller").priority(5).deadline(us(400)),
        vec![s::repeat(
            24,
            vec![
                s::degraded_gate(
                    // Nominal: consume the freshest sample if one
                    // arrived, full closed-loop update either way.
                    vec![
                        s::q_try_read("q_samples"),
                        s::if_flag(vec![s::exec(us(200))], vec![s::exec(us(120))]),
                    ],
                    // Degraded: cheap open-loop step.
                    vec![s::exec(us(60))],
                ),
                s::periodic_release(us(500)),
            ],
        )],
    );
    // A chunky low-priority logger so the cell's policy choice is
    // visible: priority policies preempt (or at least outrank) it at
    // every controller release, arrival-order policies make the
    // controller wait a 300 µs chunk out.
    model.function_script(
        TaskConfig::new("logger").priority(2),
        vec![s::repeat(12, vec![s::exec(us(300)), s::delay(us(350))])],
    );
    model.map("sensor", Mapping::Hardware);
    model.map_to_processor("controller", "CPU");
    model.map_to_processor("logger", "CPU");
    model.fault_plan(
        FaultPlan::seeded(0, 0xDE64)
            .drop_window(
                "q_samples",
                SimTime::ZERO + us(3_000),
                SimTime::ZERO + us(6_000),
            )
            .degraded("controller", &["q_samples"], 2, 3, us(1_500)),
    );
    model
}

/// Per-pulse crank-to-injection-complete latencies from an automotive
/// run's trace.
pub fn injection_latencies(trace: &rtsim_trace::Trace) -> Vec<SimDuration> {
    let cranks = trace.annotation_times("crank");
    let injected = trace.annotation_times("injected");
    cranks
        .iter()
        .zip(injected.iter())
        .map(|(&c, &i)| i - c)
        .collect()
}

/// Extracts the per-frame end-to-end (capture → display) latencies from
/// an MPEG-2 run's trace, pairing `frame_in`/`frame_out` annotations in
/// order (the pipeline is FIFO throughout).
pub fn mpeg2_latencies(trace: &rtsim_trace::Trace) -> Vec<SimDuration> {
    let ins = trace.annotation_times("frame_in");
    let outs = trace.annotation_times("frame_out");
    ins.iter().zip(outs.iter()).map(|(&i, &o)| o - i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsim_kernel::SimTime;

    #[test]
    fn figure6_runs_to_780us() {
        let mut system = figure6_system(EngineKind::ProcedureCall)
            .elaborate()
            .unwrap();
        system.run().unwrap();
        assert_eq!(system.now(), SimTime::ZERO + us(780));
    }

    #[test]
    fn figure7_variants_run() {
        for mode in [
            LockMode::Plain,
            LockMode::PreemptionMasked,
            LockMode::PriorityInheritance,
        ] {
            let mut system = figure7_system(EngineKind::ProcedureCall, mode)
                .elaborate()
                .unwrap();
            system.run().unwrap();
            assert!(system.now() > SimTime::ZERO);
        }
    }

    #[test]
    fn mpeg2_delivers_every_frame() {
        let config = Mpeg2Config {
            frames: 10,
            ..Mpeg2Config::default()
        };
        let mut system = mpeg2_system(&config).elaborate().unwrap();
        system.run().unwrap();
        let latencies = mpeg2_latencies(&system.trace());
        assert_eq!(latencies.len(), 10);
        // Pipeline is deep: latency well above the sum of one frame's
        // compute, but bounded (no unbounded backlog).
        for l in &latencies {
            assert!(*l > us(2_000), "{l}");
            assert!(*l < us(40_000), "{l}");
        }
    }

    #[test]
    fn automotive_injects_on_every_pulse_within_deadline() {
        let config = AutomotiveConfig::default();
        let pulses = config.crank_gaps.len();
        let mut system = automotive_system(&config).elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        let latencies = injection_latencies(&trace);
        assert_eq!(latencies.len(), pulses);
        for l in &latencies {
            assert!(*l <= us(500), "injection latency {l} blew the budget");
        }
        let report = system.verify_constraints();
        assert!(report.all_satisfied(), "{report}");
    }

    #[test]
    fn automotive_handles_jittered_crank() {
        // Accelerating engine: gaps shrink from 7 ms to 2 ms.
        let gaps = (0..25u64).map(|k| us(7_000 - k * 200)).collect();
        let config = AutomotiveConfig {
            crank_gaps: gaps,
            ..AutomotiveConfig::default()
        };
        let mut system = automotive_system(&config).elaborate().unwrap();
        system.run().unwrap();
        let latencies = injection_latencies(&system.trace());
        assert_eq!(latencies.len(), 25);
        let summary = rtsim_trace::DurationSummary::from_durations(latencies).expect("latencies");
        assert!(summary.max <= us(500), "{summary}");
    }

    #[test]
    fn mpeg2_results_do_not_depend_on_the_engine() {
        fn latencies(engine: EngineKind) -> Vec<SimDuration> {
            let config = Mpeg2Config {
                frames: 8,
                engine,
                ..Mpeg2Config::default()
            };
            let mut system = mpeg2_system(&config).elaborate().unwrap();
            system.run().unwrap();
            mpeg2_latencies(&system.trace())
        }
        assert_eq!(
            latencies(EngineKind::ProcedureCall),
            latencies(EngineKind::DedicatedThread)
        );
    }

    #[test]
    fn ab_stress_engines_agree_within_overhead_jitter() {
        // When activations collide with RTOS overhead windows the two
        // implementation strategies elect at slightly different instants
        // (approach B's awakened task runs the scheduler at the wake
        // instant, Figure 5; approach A's RTOS thread elects after the
        // scheduling delay). Completion times must still agree to within
        // a few overhead windows.
        fn end(engine: EngineKind) -> SimTime {
            let mut system = ab_stress_system(engine, 4, 10).elaborate().unwrap();
            system.run().unwrap();
            system.now()
        }
        let b = end(EngineKind::ProcedureCall).as_ps() as f64;
        let a = end(EngineKind::DedicatedThread).as_ps() as f64;
        assert!((a - b).abs() / b < 0.05, "a={a} b={b}");
    }

    #[test]
    fn quickstart_background_finishes_after_all_interrupts() {
        let mut system = quickstart_system().elaborate().unwrap();
        system.run().unwrap();
        // 600 us of background + 4x20 us of handler + overheads: the run
        // must end after the last timer pulse at 600 us.
        assert!(system.now() > SimTime::ZERO + us(600));
        let stats = system.processor_stats("CPU0").unwrap();
        assert!(stats.preemptions >= 1, "{stats:?}");
    }

    #[test]
    fn policy_sweep_meets_task0_deadline_under_default_rtos() {
        let mut system = policy_sweep_system().elaborate().unwrap();
        system.run().unwrap();
        let report = system.verify_constraints();
        assert!(report.all_satisfied(), "{report}");
    }

    #[test]
    fn smp_partitioned_keeps_tasks_on_their_cores() {
        let mut system = smp_partitioned_system(2).elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        // First-fit places {t0, t1} on core 0 and {t2, t3} on core 1;
        // pinning must hold for every dispatch of the run.
        for (name, core) in [("t0", 0), ("t1", 0), ("t2", 1), ("t3", 1)] {
            let actor = trace.actor_by_name(name).unwrap();
            let cores: Vec<usize> = trace
                .records_for(actor)
                .filter_map(|r| match r.data {
                    rtsim_trace::TraceData::Core(c) => Some(c),
                    _ => None,
                })
                .collect();
            assert!(!cores.is_empty(), "{name} never dispatched");
            assert!(
                cores.iter().all(|&c| c == core),
                "{name} escaped core {core}: {cores:?}"
            );
        }
        // A partitioned system never migrates: no migration overhead
        // may be charged anywhere in the trace.
        assert!(!trace.records().iter().any(|r| matches!(
            r.data,
            rtsim_trace::TraceData::Overhead {
                kind: rtsim_trace::OverheadKind::Migration,
                ..
            }
        )));
    }

    #[test]
    fn smp_global_migrates_and_charges_for_it() {
        let mut system = smp_global_system(2).elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        let migrations = trace
            .records()
            .iter()
            .filter(|r| {
                matches!(
                    r.data,
                    rtsim_trace::TraceData::Overhead {
                        kind: rtsim_trace::OverheadKind::Migration,
                        ..
                    }
                )
            })
            .count();
        assert!(migrations > 0, "global scheduling never migrated a task");
        // The pinned task must honour its affinity even under global
        // dispatch.
        let pinned = trace.actor_by_name("pinned").unwrap();
        assert!(trace.records_for(pinned).all(|r| match r.data {
            rtsim_trace::TraceData::Core(c) => c == 0,
            _ => true,
        }));
    }

    #[test]
    fn contended_runs_all_jobs() {
        let mut system = contended_system().elaborate().unwrap();
        system.run().unwrap();
        let trace = system.trace();
        let m = rtsim_trace::Measure::new(&trace);
        let urgent = trace.actor_by_name("urgent").unwrap();
        assert_eq!(m.response_times(urgent).len(), 20);
    }
}
