//! `rtsim-benchmark` — run one benchmark workload in this process.
//!
//! ```text
//! rtsim-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints diagnostics, every metric as `name value unit`, and as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans as JSONL next to the
//! executable. Exits 1 if any output was wrong (after printing
//! everything), 2 on a usage error.

use std::process::ExitCode;

use rtsim::campaign::json::Json;
use rtsim_benchmark::{run, spans, Metric, Window, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("rtsim-benchmark: {problem}");
    eprintln!(
        "usage: rtsim-benchmark --workload {{{}}} --seed N [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse::<u64>() {
                Ok(n) => seed = Some(n),
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };

    let report = match run(&workload, seed, Window::Seconds(seconds), traced) {
        Ok(report) => report,
        Err(e) => return usage(&e),
    };
    println!(
        "workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let checks = &report.checks;
    println!(
        "fail_share {} ({} of {} outputs wrong)",
        checks.fail_share(),
        checks.failed,
        checks.attempted
    );
    for message in &checks.messages {
        println!("FAIL {message}");
    }
    if traced {
        match write_spans(&workload, seed, &report.spans) {
            Ok(path) => println!("spans {} written to {path}", report.spans.len()),
            Err(e) => eprintln!("rtsim-benchmark: cannot write spans: {e}"),
        }
    }

    let shown: &[Metric] = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics = Json::obj(shown.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::from(checks.failed == 0)),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the spans as JSONL under `rtsim-benchmark-spans/` next to the
/// executable (inside the build directory) and returns the file's path.
fn write_spans(workload: &str, seed: u64, all: &[spans::Span]) -> std::io::Result<String> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join("rtsim-benchmark-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, spans::to_jsonl(all))?;
    Ok(path.display().to_string())
}
