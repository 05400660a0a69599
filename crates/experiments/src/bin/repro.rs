//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale S] [--quick] [--jobs N] [--journal PATH] [--resume]
//!       [--telemetry DIR] [--list-cells] [--no-sync]
//! repro serve ...        delegate to the gaas-serve sweep daemon
//!
//! EXPERIMENT: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10
//!             sec5 sec8 perbench ablations budget threec warmup fig_cmp
//!             | all (default) | check (PASS/FAIL shape verification)
//!             | diffcheck (lockstep golden-model oracle smoke sweep)
//!             | telemetry (instrumented fig7 cell + trace/CPI-stack export)
//! --scale S      workload scale (default 0.01 = 1% of the 2.4G-ref suite)
//! --quick        shorthand for --scale 0.002
//! --jobs N       run sweep cells on N worker threads (default 1 = serial;
//!                tables are byte-identical at any job count)
//! --journal PATH journal every sweep cell to a checksummed, append-only
//!                checkpoint at PATH (fsync'd per record; one corrupt
//!                record only ever loses itself)
//! --resume       with --journal: skip cells already journaled (a killed
//!                run picks up where it left off, byte-identical tables)
//! --no-sync      skip the per-commit fsync of journal and telemetry
//!                artifacts (faster, but a power cut can lose the tail;
//!                a plain process crash still loses nothing)
//! --telemetry DIR  export telemetry artifacts (Chrome trace JSON, windowed
//!                CPI stacks, counter summary) to DIR; alone it implies the
//!                `telemetry` experiment
//! --list-cells   print the geometry-group assignment (functional
//!                fingerprint -> member cells) of the selected
//!                experiments' one campaign batch (default: all) without
//!                running anything
//! ```
//!
//! The selected experiments' cells run as **one** campaign batch
//! ([`plan::run`]), so a geometry shared across figures runs one
//! functional pass; stderr gets one `[campaign: …]` line for it, and
//! the tables print in selection order. `check`, `diffcheck` and
//! `telemetry` run in their place in the selection after it.

use std::collections::HashSet;
use std::time::Instant;

use gaas_experiments::plan::{self, EXPERIMENTS};
use gaas_experiments::{campaign, interrupt, pool, runner, telemetry, verify};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "serve") {
        delegate_serve(&args[1..]);
    }
    // Graceful SIGINT/SIGTERM: the handler raises one flag, the campaign
    // skips not-yet-started groups, and the main loop below winds down
    // with the journal flushed through its normal fsync'd appends — no
    // mid-append death, no reliance on salvage.
    interrupt::install();
    let mut scale = gaas_experiments::DEFAULT_SCALE;
    let mut selected: Vec<&str> = Vec::new();
    let mut journal: Option<String> = None;
    let mut resume = false;
    let mut telemetry_dir: Option<String> = None;
    let mut list_cells = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --scale"));
                scale = v.parse().unwrap_or_else(|_| usage("bad --scale value"));
                if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
                    usage("--scale must be in (0, 1]");
                }
            }
            "--quick" => scale = 0.002,
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --jobs"));
                let n: usize = v.parse().unwrap_or_else(|_| usage("bad --jobs value"));
                if n == 0 {
                    usage("--jobs must be >= 1");
                }
                pool::set_jobs(n);
            }
            "--journal" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --journal"));
                journal = Some(v.clone());
            }
            "--resume" => resume = true,
            "--telemetry" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("missing directory for --telemetry"));
                telemetry_dir = Some(v.clone());
            }
            "--list-cells" => list_cells = true,
            "--no-sync" => {
                gaas_experiments::durability::set_durable_sync(false);
            }
            "--help" | "-h" => usage(""),
            "all" => selected.extend(EXPERIMENTS.iter().map(|e| e.name)),
            name @ ("check" | "diffcheck" | "telemetry") => selected.push(name),
            name => match plan::find(name) {
                Some(e) => selected.push(e.name),
                None => usage(&format!("unknown experiment '{name}'")),
            },
        }
    }
    if selected.is_empty() {
        if telemetry_dir.is_some() && !list_cells {
            // `repro --telemetry DIR` alone runs the instrumented cell.
            selected.push("telemetry");
        } else {
            selected.extend(EXPERIMENTS.iter().map(|e| e.name));
        }
    }
    // Keep the first occurrence of each name.
    let mut seen = HashSet::new();
    selected.retain(|name| seen.insert(*name));
    let figures: Vec<&plan::Experiment> = selected
        .iter()
        .filter_map(|name| plan::find(name))
        .collect();
    if list_cells {
        print_cell_groups(&figures);
        return;
    }
    if resume && journal.is_none() {
        usage("--resume requires --journal");
    }
    if let Some(path) = &journal {
        if let Err(e) = campaign::activate(path, resume, campaign::CellOptions::default()) {
            eprintln!("error: cannot open journal {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "[campaign journaling to {path}{}]",
            if resume { ", resuming" } else { "" }
        );
    }

    println!("# GaAs two-level cache design study — reproduction run");
    println!("# workload scale {scale} (1.0 = the paper's ~2.4G references)\n");
    if pool::jobs() > 1 {
        eprintln!("[sweep cells on {} worker threads]", pool::jobs());
    }

    let t0 = Instant::now();
    let rendered = plan::run(&figures, scale).unwrap_or_else(|_| exit_interrupted(&journal));
    if !figures.is_empty() {
        let cells: usize = plan::batch(&figures).1.iter().sum();
        eprintln!(
            "[campaign: {cells} cells of {} experiments, {} functional passes, done in {:.1}s]",
            figures.len(),
            campaign::memo_stats().functional_runs,
            t0.elapsed().as_secs_f64()
        );
    }
    let mut rendered = rendered.into_iter();
    for name in selected {
        let t0 = Instant::now();
        match name {
            "check" => {
                let checks = verify::run(scale);
                println!("{}", verify::table(&checks));
                let pass = checks.iter().filter(|c| c.passed).count();
                println!("{pass}/{} claims reproduced", checks.len());
                if !verify::all_passed(&checks) {
                    finish_campaign();
                    std::process::exit(1);
                }
            }
            "diffcheck" => match runner::diffcheck_smoke(scale) {
                Ok(results) => {
                    println!("## Differential oracle smoke sweep — zero divergences");
                    for (label, accesses) in results {
                        println!("  {label:<16} {accesses:>12} accesses cross-checked");
                    }
                    println!();
                }
                Err((label, err)) => {
                    eprintln!("oracle failure in config '{label}':");
                    eprintln!("{err}");
                    finish_campaign();
                    std::process::exit(1);
                }
            },
            "telemetry" => {
                let dir = telemetry_dir.clone().unwrap_or_else(|| "telemetry".into());
                match telemetry::run(scale, std::path::Path::new(&dir)) {
                    Ok(run) => {
                        println!("## Telemetry export — fig7 cell, cpi {:.4}", run.cpi);
                        println!(
                            "  {} windows, {} spans ({} dropped)",
                            run.windows, run.spans, run.spans_dropped
                        );
                        for f in &run.files {
                            println!("  wrote {}", f.display());
                        }
                        println!();
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        finish_campaign();
                        std::process::exit(1);
                    }
                }
            }
            _ => {
                print!("{}", rendered.next().expect("one render per experiment"));
                continue;
            }
        }
        eprintln!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
        if interrupt::interrupted() {
            exit_interrupted(&journal);
        }
    }
    finish_campaign();
}

/// Winds down after SIGINT/SIGTERM: the journal is already flushed
/// through its normal fsync'd appends, so print the resume hint and exit
/// with the conventional death-by-SIGINT status (128 + 2).
fn exit_interrupted(journal: &Option<String>) -> ! {
    eprintln!("[interrupted: journal flushed; cells not yet started were skipped]");
    match journal {
        Some(path) => eprintln!("[resume with: repro ... --journal {path} --resume]"),
        None => {
            eprintln!("[no journal was active; re-run with --journal PATH --resume to checkpoint]")
        }
    }
    finish_campaign();
    std::process::exit(130);
}

/// `repro serve ...` delegates to the sibling `gaas-serve` binary (the
/// daemon lives in its own crate, which depends on this one — the
/// delegation avoids a dependency cycle while keeping one entry point).
fn delegate_serve(args: &[String]) -> ! {
    let serve = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            Some(
                exe.parent()?
                    .join(format!("gaas-serve{}", std::env::consts::EXE_SUFFIX)),
            )
        })
        .filter(|p| p.exists());
    let Some(serve) = serve else {
        eprintln!(
            "error: gaas-serve binary not found next to repro; build it with `cargo build --release -p gaas-serve`"
        );
        std::process::exit(2);
    };
    match std::process::Command::new(&serve).args(args).status() {
        Ok(status) => std::process::exit(status.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("error: cannot exec {}: {e}", serve.display());
            std::process::exit(2);
        }
    }
}

/// Prints the geometry-group assignment of the selected experiments'
/// one campaign batch: each group's functional fingerprint and member
/// cells (`experiment:index`), exactly as the memoized campaign would
/// batch them (`--list-cells`).
fn print_cell_groups(figures: &[&plan::Experiment]) {
    let (cfgs, counts) = plan::batch(figures);
    let labels: Vec<String> = figures
        .iter()
        .zip(counts)
        .flat_map(|(e, n)| (0..n).map(move |i| format!("{}:{i}", e.name)))
        .collect();
    let groups = campaign::group_preview(&cfgs);
    println!(
        "## {} cells of {} experiments in {} geometry groups (memoization {})",
        cfgs.len(),
        figures.len(),
        groups.len(),
        if campaign::memoize_enabled() {
            "on"
        } else {
            "off"
        }
    );
    for (g, (fp, members)) in groups.iter().enumerate() {
        let fp = match fp {
            Some(k) => format!("{k:016x}"),
            None => "  (unmemoizable)".into(),
        };
        let names: Vec<&str> = members.iter().map(|&i| labels[i].as_str()).collect();
        println!("  group {g:>2} {fp}  {}", names.join(" "));
    }
    println!();
}

fn finish_campaign() {
    if let Some(stats) = campaign::deactivate() {
        eprintln!("[campaign: {stats}]");
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [EXPERIMENT ...] [--scale S] [--quick] [--jobs N] [--journal PATH] [--resume]\n\
         \x20            [--telemetry DIR] [--list-cells] [--no-sync]\n\
         \x20      repro serve ...   (delegates to the gaas-serve sweep daemon)\n\
         experiments: {} | all | check | diffcheck | telemetry",
        EXPERIMENTS.map(|e| e.name).join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
