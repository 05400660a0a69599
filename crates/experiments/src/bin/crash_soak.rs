//! `crash_soak` — seeded crash/corruption soak of the campaign
//! durability stack.
//!
//! ```text
//! crash_soak [SEED]    (default seed 1)
//! ```
//!
//! The soak drives a memoized mini-sweep through the full chaos gauntlet
//! ([`gaas_experiments::chaos`]): every journal I/O runs under a seeded
//! fault schedule — scheduled process "crashes" with torn dying writes,
//! bit flips, transient rename failures, short reads — plus hand-flipped
//! bytes written straight to media between sessions, and one cell whose
//! worker is deterministically poisoned (panics every attempt). After
//! every crash the next session resumes from whatever journal bytes
//! survived.
//!
//! PASS requires all of:
//!
//! * at least 20 injected crash/corruption events (one fixed seed gives
//!   one fixed schedule, so CI is deterministic);
//! * every session after a crash resumes instead of starting over;
//! * the final tables are **byte-identical** to an undisturbed reference
//!   run — storage faults may cost recomputation, never results;
//! * the poisoned cell ends quarantined in the journal with its reason;
//! * the in-memory trace-arena integrity audit
//!   ([`gaas_trace::arena::verify`]) is clean.

use std::path::Path;

use gaas_experiments::campaign::{self, CellOptions, CellResult};
use gaas_experiments::chaos::{self, ChaosConfig};
use gaas_sim::config::SimConfig;
use gaas_sim::{config_fingerprint, WritePolicy};
use gaas_trace::arena;
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;
const MIN_EVENTS: u64 = 20;
const MAX_SESSIONS: u64 = 300;

/// A 12-cell mini-sweep (write policy × L2 drain access time); cell 5 is
/// poisoned.
fn sweep_configs() -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for policy in [WritePolicy::WriteBack, WritePolicy::WriteOnly] {
        for access in [2u32, 4, 6, 8, 10, 12] {
            let mut b = SimConfig::builder();
            b.policy(policy).l2_drain_access(access);
            cfgs.push(b.build().expect("valid"));
        }
    }
    cfgs
}

/// Renders the sweep the way a figure table would: CPI per completed
/// cell, a gap for failures. Error *text* is deliberately excluded — a
/// reused quarantined cell reports a "quarantined:" prefix that a fresh
/// failure lacks, and the byte-identity contract is about results.
fn render(results: &[CellResult]) -> String {
    results
        .iter()
        .enumerate()
        .map(|(i, r)| match r {
            CellResult::Done(res) => format!("cell{i:02} {:.6}\n", res.cpi()),
            CellResult::Failed { .. } => format!("cell{i:02} FAILED\n"),
        })
        .collect()
}

/// Flips one seeded bit of one journal byte, bypassing the chaos shim on
/// purpose: this is the harness corrupting media behind the process's
/// back, not the process writing. Newline bytes are left alone so damage
/// stays within one record (the acceptance criterion the dedicated
/// robustness tests pin down).
fn corrupt_one_byte(path: &Path, rng: &mut SmallRng) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else {
        return false;
    };
    let Some(start) = bytes.iter().position(|&b| b == b'\n').map(|p| p + 1) else {
        return false;
    };
    if bytes.len() <= start + 1 {
        return false;
    }
    for _ in 0..64 {
        let i = rng.gen_range(start..bytes.len());
        let flipped = bytes[i] ^ (1u8 << rng.gen_range(0u32..8));
        if bytes[i] != b'\n' && flipped != b'\n' {
            bytes[i] = flipped;
            return std::fs::write(path, bytes).is_ok();
        }
    }
    false
}

/// Silences the expected poison panics (they fire on every poisoned-cell
/// attempt and would bury the soak log); everything else keeps the
/// default panic report.
fn quiet_poison_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if !msg.contains(chaos::POISON_PANIC) {
            default_hook(info);
        }
    }));
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("SEED must be a u64"))
        .unwrap_or(1);
    quiet_poison_panics();

    let dir = std::env::temp_dir().join(format!("gaas-crash-soak-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let chaos_dir = dir.join("chaos");
    std::fs::create_dir_all(&chaos_dir).expect("soak dir");

    let cfgs = sweep_configs();
    chaos::set_poison(vec![config_fingerprint(&cfgs[5])]);

    // Reference: poison active (the same cell must fail identically),
    // but no storage faults — chaos is not installed yet.
    println!(
        "crash_soak: seed {seed} — reference sweep ({} cells)",
        cfgs.len()
    );
    let ref_journal = dir.join("reference.journal");
    campaign::activate(&ref_journal, false, CellOptions::default()).expect("reference campaign");
    let reference_table = render(&campaign::run_cells(&cfgs, SCALE));
    let ref_stats = campaign::deactivate().expect("campaign was active");
    assert_eq!(
        ref_stats.quarantined, 1,
        "the poisoned cell must quarantine in the reference run"
    );

    // Chaos sessions: each one is a simulated process lifetime that ends
    // in a scheduled crash (or survives), resuming from the journal left
    // by its predecessors.
    let journal = chaos_dir.join("soak.journal");
    chaos::install(ChaosConfig {
        seed,
        fail_rename_pct: 15,
        fail_fsync_pct: 5,
        bit_flip_pct: 8,
        short_read_pct: 5,
        defer_append_pct: 0,
        crash_after_ops: None,
        scope: Some(chaos_dir.clone()),
    });
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut corruptions = 0u64;
    let mut sessions = 0u64;
    let mut resumed_sessions = 0u64;
    loop {
        sessions += 1;
        assert!(
            sessions <= MAX_SESSIONS,
            "soak did not converge in {MAX_SESSIONS} sessions"
        );
        // Half the sessions find one freshly flipped byte on media.
        if rng.gen_bool(0.5) && corrupt_one_byte(&journal, &mut rng) {
            corruptions += 1;
        }
        let budget = rng.gen_range(3u64..9);
        chaos::clear_crash(Some(budget));
        match campaign::activate(&journal, true, CellOptions::default()) {
            Ok(()) => {
                let _ = campaign::run_cells(&cfgs, SCALE);
                if let Some(stats) = campaign::deactivate() {
                    if stats.reused > 0 {
                        resumed_sessions += 1;
                    }
                }
            }
            // The scheduled crash landed on the journal read at open.
            Err(e) => eprintln!("crash_soak: session {sessions}: open failed: {e}"),
        }
        let events = chaos::faults().total() + corruptions;
        println!(
            "crash_soak: session {sessions}: crash budget {budget} ops, \
             {events} cumulative events"
        );
        if events >= MIN_EVENTS && !chaos::crashed() {
            break;
        }
    }
    let counts = chaos::uninstall();

    // Final clean pass: salvage the survived journal, re-run whatever
    // was lost, and compare byte-for-byte with the reference.
    campaign::activate(&journal, true, CellOptions::default()).expect("final open");
    let final_table = render(&campaign::run_cells(&cfgs, SCALE));
    let final_stats = campaign::deactivate().expect("campaign was active");
    assert_eq!(
        final_table, reference_table,
        "storage faults may cost recomputation, never results"
    );

    let insp = campaign::inspect_journal(&journal).expect("inspect journal");
    let quarantined: Vec<(String, String)> = insp
        .quarantined()
        .into_iter()
        .map(|(k, r)| (k.to_string(), r.to_string()))
        .collect();
    assert!(
        !quarantined.is_empty(),
        "the poisoned cell must be journaled as quarantined"
    );
    assert_eq!(insp.dropped, 0, "the final journal must be clean");
    assert!(
        insp.records.len() >= cfgs.len(),
        "every cell must be journaled"
    );

    let audit = arena::verify();
    assert!(
        audit.clean(),
        "trace-arena integrity audit failed: {:?}",
        audit.corrupt
    );

    let events = counts.total() + corruptions;
    assert!(events >= MIN_EVENTS, "only {events} events injected");
    assert!(counts.crashes >= 1, "no crash was ever delivered");
    assert!(
        resumed_sessions >= 1,
        "no session ever resumed from the journal"
    );

    println!("\ncrash_soak: PASS (seed {seed})");
    println!(
        "  {sessions} sessions, {} resumed; {events} injected events (>= {MIN_EVENTS}): \
         {} crashes, {} torn writes, {} bit flips, {} failed renames, \
         {} short reads, {corruptions} hand-flipped bytes",
        resumed_sessions,
        counts.crashes,
        counts.torn_writes,
        counts.bit_flips,
        counts.failed_renames,
        counts.short_reads
    );
    for (key, reason) in &quarantined {
        println!("  quarantined {key}: {reason}");
    }
    println!(
        "  arena audit clean ({} streams); final tables byte-identical to the \
         undisturbed reference ({} salvage drops absorbed on the way)",
        audit.checked, final_stats.salvaged_drops
    );

    let _ = std::fs::remove_dir_all(&dir);
}
