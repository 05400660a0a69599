//! Property test: quarantine eligibility follows the config fingerprint.
//!
//! A cell that exhausts its retry budget on the retryable failure class
//! is journaled as *quarantined* and keyed by
//! [`campaign::cell_key`] — the full config fingerprint plus the scale.
//! Two properties must hold across resumes, for any sweep shape and any
//! victim cell:
//!
//! 1. **Unchanged config → stays skipped.** Resuming with identical
//!    configs never re-executes the quarantined cell, even when the
//!    underlying fault has cleared — quarantine is a decision on record,
//!    not a hope. The reused result carries the `quarantined:` reason
//!    prefix.
//! 2. **Changed fingerprint → re-eligible.** Any config change (here: a
//!    different L2 drain access time) produces a new cell key, so the
//!    old quarantine record no longer matches and the cell runs fresh —
//!    a fixed configuration must never be haunted by its predecessor's
//!    record.
//!
//! Each seed randomizes the sweep shape, the poisoned victim, and the
//! mutation, so the properties are checked over varied geometry rather
//! than one hand-picked case.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gaas_experiments::campaign::{self, Campaign, CellOptions, CellResult};
use gaas_experiments::{chaos, durability};
use gaas_sim::config::SimConfig;
use gaas_sim::{config_fingerprint, WritePolicy};
use gaas_trace::rng::SmallRng;

const SCALE: f64 = 5e-5;

/// A scale whose cells run for far longer than the 1 ms budget and the
/// 40 ms sweep deadline the harness tests give them.
const SLOW_SCALE: f64 = 4e-3;

/// The poison list and the sweep deadline are process-global, and every
/// isolated attempt reads the deadline: the tests here take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Silences the expected poison panics (one per poisoned-cell attempt);
/// everything else keeps the default report.
fn quiet_poison_panics() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
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
    });
}

fn cfg(policy: WritePolicy, drain_access: u32) -> SimConfig {
    let mut b = SimConfig::builder();
    b.policy(policy).l2_drain_access(drain_access);
    b.build().expect("valid config")
}

fn opts() -> CellOptions {
    CellOptions {
        attempts: 2,
        ..CellOptions::default()
    }
}

fn journal_path(seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gaas-quarantine-resume-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("journal.json")
}

/// One full property check under one seed. The poison list and the
/// journal are per-iteration, so iterations are independent.
fn check_seed(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // A 4–8 cell sweep over write policy × drain access, all distinct.
    let policies = [WritePolicy::WriteBack, WritePolicy::WriteOnly];
    let n_access = rng.gen_range(2usize..5);
    let accesses: Vec<u32> = (0..n_access).map(|i| 2 + 2 * i as u32).collect();
    let cfgs: Vec<SimConfig> = policies
        .iter()
        .flat_map(|&p| accesses.iter().map(move |&a| cfg(p, a)))
        .collect();
    let victim = rng.gen_range(0usize..cfgs.len());
    let journal = journal_path(seed);
    chaos::set_poison(vec![config_fingerprint(&cfgs[victim])]);

    // Run 1: the poisoned victim exhausts its retry budget and is
    // quarantined; every other cell completes.
    let mut c = Campaign::open(&journal, false, opts()).expect("open fresh");
    for (i, cfg) in cfgs.iter().enumerate() {
        match c.cell(cfg, SCALE) {
            CellResult::Done(_) => assert_ne!(i, victim, "seed {seed}: victim completed"),
            CellResult::Failed { error, attempts } => {
                assert_eq!(i, victim, "seed {seed}: wrong cell failed: {error}");
                assert_eq!(attempts, 2, "seed {seed}: retry budget not exhausted");
            }
        }
    }
    assert_eq!(c.stats().quarantined, 1, "seed {seed}");
    drop(c);

    // The fault clears — the victim would now succeed if re-run.
    chaos::set_poison(Vec::new());

    // Run 2 (property 1): unchanged configs resume entirely from the
    // journal; the victim stays skipped with its quarantine reason.
    let mut c = Campaign::open(&journal, true, opts()).expect("open resume");
    for (i, cfg) in cfgs.iter().enumerate() {
        match c.cell(cfg, SCALE) {
            CellResult::Done(_) => assert_ne!(i, victim, "seed {seed}"),
            CellResult::Failed { error, .. } => {
                assert_eq!(i, victim, "seed {seed}: wrong cell failed: {error}");
                assert!(
                    error.starts_with("quarantined:"),
                    "seed {seed}: reused result must carry the quarantine reason: {error}"
                );
            }
        }
    }
    let stats = c.stats();
    assert_eq!(
        stats.reused,
        cfgs.len() as u64,
        "seed {seed}: every cell must come from the journal"
    );
    assert_eq!(stats.executed, 0, "seed {seed}: nothing may re-execute");
    assert_eq!(stats.quarantined, 1, "seed {seed}");
    drop(c);

    // Run 3 (property 2): change the victim's fingerprint (a drain
    // access no other cell uses) — the old quarantine record no longer
    // matches, so the cell is re-eligible and completes.
    let mut mutated = cfgs.clone();
    let fresh_access = 20 + 2 * rng.gen_range(0u32..8);
    let policy = mutated[victim].policy;
    mutated[victim] = cfg(policy, fresh_access);
    assert_ne!(
        config_fingerprint(&mutated[victim]),
        config_fingerprint(&cfgs[victim]),
        "seed {seed}: the mutation must change the fingerprint"
    );
    let mut c = Campaign::open(&journal, true, opts()).expect("open mutated resume");
    for (i, cfg) in mutated.iter().enumerate() {
        let res = c.cell(cfg, SCALE);
        if i == victim {
            assert!(
                matches!(res, CellResult::Done(_)),
                "seed {seed}: a changed config must be re-eligible, got {res:?}"
            );
        }
    }
    let stats = c.stats();
    assert_eq!(
        stats.executed, 1,
        "seed {seed}: exactly the mutated cell runs"
    );
    assert_eq!(stats.reused, cfgs.len() as u64 - 1, "seed {seed}");
}

#[test]
fn quarantine_eligibility_follows_the_config_fingerprint() {
    let _serial = serial();
    quiet_poison_panics();
    durability::set_durable_sync(false);
    // The poison list is process-global state, so the seeds run in one
    // test body rather than racing across parallel tests.
    for seed in [1u64, 7, 42, 0x2026_0808] {
        check_seed(seed);
    }
    chaos::set_poison(Vec::new());
}

#[test]
fn a_cell_past_its_timeout_is_retried_then_quarantined() {
    let _serial = serial();
    durability::set_durable_sync(false);
    let journal = journal_path(0x7173);
    let opts = CellOptions {
        timeout: Duration::from_millis(1),
        attempts: 2,
    };
    let mut c = Campaign::open(&journal, false, opts).expect("open fresh");
    match c.cell(&cfg(WritePolicy::WriteBack, 4), SLOW_SCALE) {
        CellResult::Failed { error, attempts } => {
            assert_eq!(attempts, 2, "a timeout is retried up to the budget");
            assert!(error.contains("wall-clock budget"), "{error}");
            assert!(
                error.contains("1 ms") && !error.contains("0s"),
                "a sub-second budget keeps its milliseconds: {error}"
            );
        }
        CellResult::Done(_) => panic!("a 1 ms budget cannot finish the cell"),
    }
    assert_eq!(c.stats().quarantined, 1);
    drop(c);
    let insp = campaign::inspect_journal(&journal).expect("inspect journal");
    let quarantined = insp.quarantined();
    assert_eq!(quarantined.len(), 1, "{:?}", insp.records);
    assert!(
        quarantined[0].1.contains("wall-clock budget") && !quarantined[0].1.contains("0s"),
        "{quarantined:?}"
    );
}

#[test]
fn a_deadline_inside_a_group_skips_every_member_unjournaled() {
    let _serial = serial();
    durability::set_durable_sync(false);
    let journal = journal_path(0xdead);
    // Two access times of one geometry: one group, one functional pass.
    let cfgs: Vec<SimConfig> = [2u32, 4]
        .iter()
        .map(|&t| {
            let mut b = SimConfig::builder();
            b.l2_access(t);
            b.build().expect("valid config")
        })
        .collect();
    assert_eq!(campaign::group_preview(&cfgs).len(), 1, "one group");

    campaign::activate(&journal, false, CellOptions::default()).expect("activate");
    campaign::set_sweep_deadline(Some(Instant::now() + Duration::from_millis(40)));
    let results = campaign::run_cells(&cfgs, SLOW_SCALE);
    campaign::set_sweep_deadline(None);
    let stats = campaign::deactivate().expect("campaign was active");

    for res in &results {
        match res {
            CellResult::Failed { error, .. } => {
                assert_eq!(error, campaign::DEADLINE_SKIP, "not a per-member failure")
            }
            CellResult::Done(_) => panic!("the group cannot finish inside 40 ms"),
        }
    }
    assert_eq!(stats.executed, 0, "{stats:?}");
    assert!(
        !journal.exists(),
        "a deadline skip is transient: nothing is journaled"
    );
}
