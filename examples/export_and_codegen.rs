//! Exporting a simulated system: VCD waveforms, CSV trace, and the
//! FreeRTOS C skeletons the paper names as its software-generation goal.
//!
//! Builds the Figure 6 system, generates the implementation skeletons
//! *from the same model* that was validated by simulation, then runs the
//! simulation and dumps the trace in waveform-viewer (VCD) and
//! spreadsheet (CSV) form under `target/rtsim-export/`.
//!
//! Run with: `cargo run --example export_and_codegen`

use std::fs;
use std::path::Path;

use rtsim::scenarios::figure6_system;
use rtsim::{generate_freertos, write_csv, write_vcd, EngineKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = Path::new("target/rtsim-export");
    fs::create_dir_all(out_dir)?;

    // 1. Generate the software skeletons from the functional model (the
    //    paper: "to ease software generation for a final implementation
    //    using commercial RTOS").
    let model = figure6_system(EngineKind::ProcedureCall);
    let code = generate_freertos(&model);
    for (name, contents) in &code.files {
        fs::write(out_dir.join(name), contents)?;
    }
    println!("generated {} C files:", code.files.len());
    for name in code.files.keys() {
        println!("  {}", out_dir.join(name).display());
    }
    let processor_c = code.file("Processor.c").expect("skeleton");
    println!("\n--- Processor.c (excerpt) ---");
    for line in processor_c.lines().filter(|l| l.contains("xTaskCreate")) {
        println!("{line}");
    }

    // 2. Simulate the same model and export the trace.
    let mut system = model.elaborate()?;
    system.run()?;
    let trace = system.trace();

    let vcd_path = out_dir.join("figure6.vcd");
    write_vcd(&trace, fs::File::create(&vcd_path)?)?;
    let csv_path = out_dir.join("figure6.csv");
    write_csv(&trace, fs::File::create(&csv_path)?)?;

    println!("\nsimulated to {}; exported:", system.now());
    println!(
        "  {} ({} records)",
        vcd_path.display(),
        trace.records().len()
    );
    println!("  {}", csv_path.display());
    println!("\nopen the VCD in any waveform viewer: each task is a 3-bit");
    println!("state register (0 created, 1 ready, 2 running, 3 waiting,");
    println!("4 waiting-resource, 5 terminated).");
    Ok(())
}
