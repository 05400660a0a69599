//! Define a custom synthetic benchmark, characterize its trace, and
//! simulate it on the optimized architecture — the full user-facing
//! workload pipeline.
//!
//! ```text
//! cargo run --release -p gaas-experiments --example custom_workload
//! ```

use gaas_sim::{config::SimConfig, report, sim, Pid};
use gaas_trace::bench_model::{
    BenchmarkSpec, CodeModel, DataModel, FpClass, StallModel, StreamSpec, WorkingSetLevel,
};
use gaas_trace::gen::TraceGenerator;
use gaas_trace::stats::TraceStats;
use gaas_trace::Trace;

fn my_benchmark() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "mykernel",
        fp_class: FpClass::Single,
        instructions: 2_000_000,
        load_frac: 0.28,
        store_frac: 0.09,
        syscalls: 4,
        code: CodeModel {
            footprint_words: 4_096,
            n_funcs: 12,
            mean_block_words: 10,
            mean_loop_iters: 20.0,
            call_zipf_theta: 1.2,
        },
        data: DataModel {
            hot_frac: 0.85,
            hot_lines: 256,
            stack_weight: 0.15,
            levels: vec![
                WorkingSetLevel {
                    words: 2_048,
                    weight: 0.5,
                },
                WorkingSetLevel {
                    words: 32_768,
                    weight: 0.05,
                },
            ],
            streams: vec![StreamSpec {
                len_words: 65_536,
                weight: 0.2,
                repeat: 3,
            }],
            partial_store_frac: 0.05,
        },
        stalls: StallModel {
            branch_frac: 0.10,
            branch_stall_prob: 0.4,
            load_use_prob: 0.3,
            fp_frac: 0.08,
            fp_stall_cycles: 1.5,
        },
        seed: 0xC0FFEE,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = my_benchmark();

    // 1. Generate and characterize the trace (Table 1 style).
    let stats = TraceStats::from_events(TraceGenerator::new(&spec, Pid::new(0), 1.0));
    println!(
        "generated {} events: {} instr, {:.1}% loads, {:.1}% stores, {} syscalls, {} data pages",
        stats.references(),
        stats.instructions,
        stats.load_pct(),
        stats.store_pct(),
        stats.syscalls,
        stats.data_page_footprint()
    );

    // 2. Simulate the same stream on the optimized architecture; the
    //    generator is deterministic, so it replays what step 1 counted.
    let trace = TraceGenerator::new(&spec, Pid::new(0), 1.0);
    let result = sim::run(
        SimConfig::optimized(),
        vec![Box::new(trace) as Box<dyn Trace>],
    )?;
    println!("\n{}", report::summary(&result));
    println!("{}", report::cpi_stack(&result));
    Ok(())
}
