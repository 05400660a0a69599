//! Crash-resilient campaign tests: journaling, interruption, resume.
//!
//! The acceptance bar: interrupting a sweep mid-campaign and rerunning
//! with resume produces **byte-identical** final tables while
//! re-executing only the unfinished cells. The "kill" is simulated by
//! dropping a [`Campaign`] after a prefix of its cells — exactly the
//! on-disk state a real `kill -9` leaves behind, because the journal is
//! written atomically after every cell.

use gaas_experiments::campaign::{self, Campaign, CellOptions};
use gaas_experiments::{chaos, fig2, plan, tablefmt};
use gaas_sim::config::SimConfig;
use gaas_sim::WritePolicy;

const SCALE: f64 = 5e-5;

/// With `GAAS_CHAOS_SEED=N` in the environment, the whole suite runs
/// under the chaos shim with a recoverable-fault-only profile (transient
/// rename failures, well inside the durability layer's retry budget).
/// Every assertion below must hold unchanged — storage faults may cost
/// retries, never results. CI's `chaos-smoke` job sets the seed.
fn chaos_from_env() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if let Ok(seed) = std::env::var("GAAS_CHAOS_SEED") {
            let seed: u64 = seed.parse().expect("GAAS_CHAOS_SEED must be a u64");
            let mut cfg = chaos::ChaosConfig::quiet(seed);
            cfg.fail_rename_pct = 10;
            cfg.scope = Some(std::env::temp_dir());
            chaos::install(cfg);
            eprintln!("[campaign_resume: chaos shim active, seed {seed}]");
        }
    });
}

fn sweep_configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for policy in [WritePolicy::WriteBack, WritePolicy::WriteOnly] {
        for access in [2u32, 8] {
            let mut b = SimConfig::builder();
            b.policy(policy).l2_drain_access(access);
            cfgs.push(b.build().expect("valid"));
        }
    }
    cfgs
}

fn tmp_journal(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gaas-campaign-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("journal.json")
}

/// Render the sweep the way a figure table would: one line per cell.
fn render(results: &[(usize, Option<f64>)]) -> String {
    results
        .iter()
        .map(|(i, cpi)| format!("cell{i} {}\n", tablefmt::f3_opt(*cpi)))
        .collect()
}

#[test]
fn interrupted_campaign_resumes_byte_identical() {
    chaos_from_env();
    let journal = tmp_journal("interrupt");
    let _ = std::fs::remove_file(&journal);
    let cfgs = sweep_configs();

    // Reference: the full sweep, journaled start to finish.
    let mut full = Campaign::open(&journal, false, CellOptions::default()).expect("open");
    let reference: Vec<(usize, Option<f64>)> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| (i, full.cell(c, SCALE).ok().map(|r| r.cpi())))
        .collect();
    assert_eq!(full.stats().executed, cfgs.len() as u64);
    let reference_table = render(&reference);
    drop(full);
    std::fs::remove_file(&journal).expect("reset journal");

    // "Killed" run: two of four cells, then the process dies (drop).
    let mut partial = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    for c in &cfgs[..2] {
        assert!(partial.cell(c, SCALE).is_done());
    }
    drop(partial);
    assert!(journal.exists(), "journal must survive the crash");

    // Resumed run: all four cells again — two reloaded, two executed.
    let mut resumed = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    let rerun: Vec<(usize, Option<f64>)> = cfgs
        .iter()
        .enumerate()
        .map(|(i, c)| (i, resumed.cell(c, SCALE).ok().map(|r| r.cpi())))
        .collect();
    let stats = resumed.stats();
    assert_eq!(stats.reused, 2, "finished cells must not re-execute");
    assert_eq!(stats.executed, 2, "unfinished cells must execute");
    assert_eq!(
        render(&rerun),
        reference_table,
        "resumed tables must be byte-identical"
    );

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn journal_reload_is_lossless_across_reopen() {
    chaos_from_env();
    let journal = tmp_journal("reload");
    let _ = std::fs::remove_file(&journal);
    let cfg = SimConfig::baseline();

    let mut first = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    let fresh = first.cell(&cfg, SCALE).ok().expect("done");
    drop(first);

    let mut second = Campaign::open(&journal, true, CellOptions::default()).expect("open");
    let reloaded = second.cell(&cfg, SCALE).ok().expect("done");
    assert_eq!(second.stats().executed, 0);
    assert_eq!(reloaded.counters, fresh.counters);
    assert_eq!(reloaded.per_process, fresh.per_process);
    assert_eq!(reloaded.completed, fresh.completed);

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn global_campaign_routes_a_real_figure_sweep() {
    chaos_from_env();
    let journal = tmp_journal("global");
    let _ = std::fs::remove_file(&journal);

    // First pass executes and journals every fig2 cell.
    campaign::activate(&journal, true, CellOptions::default()).expect("activate");
    let first = plan::find("fig2").expect("listed").run(SCALE);
    let stats = campaign::deactivate().expect("was active");
    assert_eq!(stats.executed, fig2::LEVELS.len() as u64);
    assert_eq!(stats.failed, 0);

    // Second pass reuses all of them and renders the same bytes.
    campaign::activate(&journal, true, CellOptions::default()).expect("activate");
    let second = plan::find("fig2").expect("listed").run(SCALE);
    let stats = campaign::deactivate().expect("was active");
    assert_eq!(stats.executed, 0);
    assert_eq!(stats.reused, fig2::LEVELS.len() as u64);
    assert_eq!(first, second, "journal-fed tables must be byte-identical");

    let _ = std::fs::remove_file(&journal);
}
