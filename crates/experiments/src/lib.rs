//! # gaas-experiments
//!
//! Experiment harness for the reproduction of *"Implementing a Cache for a
//! High-Performance GaAs Microprocessor"* (Olukotun, Mudge, Brown — ISCA
//! 1991). One module per table/figure of the paper's evaluation. A sweep
//! module exposes its campaign `cells()` (scale-free configurations) and
//! a `render(scale, results)` that prints, from the cells' results, the
//! rows/series the paper reports; `table1`, `budget`, `threec` and
//! `warmup` have no cells and compute inside their `render`.
//! [`plan::EXPERIMENTS`] lists every experiment once:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark workload characterization |
//! | [`fig2`] | Fig. 2 — multiprogramming level sweep |
//! | [`fig3`] | Fig. 3 — context-switch interval sweep |
//! | [`fig4`] | Fig. 4 — base-architecture CPI stack |
//! | [`fig5`] | Fig. 5 — write policy × effective L2 access time |
//! | [`fig6`] | Fig. 6 + Table 2 — L2 size × organization |
//! | [`fig78`] | Figs. 7/8 — L2-I and L2-D speed–size surfaces |
//! | [`fig9`] | Fig. 9 — fast on-MCM L2-I and 8 W fetch |
//! | [`fig10`] | Fig. 10 — concurrency mechanisms |
//! | [`sec5`] | §5 — L1 size/associativity vs. cycle stretch |
//! | [`sec8`] | §8 — L1 fetch-size grid |
//! | [`perbench`] | per-benchmark behaviour inside the MP mix |
//! | [`ablations`] | design-constant ablations (WB depth, L2 line, page colors, TLB penalty) |
//! | [`budget`] | MCM substrate budgets for the Fig. 1 / Fig. 11 populations |
//! | [`threec`] | 3C decomposition of L2 misses (why splitting works) |
//! | [`warmup`] | warm-up transient (windowed miss ratios), the \[BKW90\] point |
//! | [`fig_cmp`] | CMP frontier — the Fig. 6 L2 organizations with 1-8 cores sharing the L2 |
//! | [`verify`] | PASS/FAIL shape verification of every headline claim |
//!
//! The `repro` binary drives them through [`plan::run`], which runs the
//! selected experiments' cells as one campaign and renders each:
//!
//! ```text
//! cargo run --release -p gaas-experiments --bin repro -- all
//! cargo run --release -p gaas-experiments --bin repro -- fig5 fig6 --scale 0.02
//! ```

pub mod ablations;
pub mod budget;
pub mod campaign;
pub mod chaos;
pub mod durability;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig78;
pub mod fig9;
pub mod fig_cmp;
pub mod frames;
pub mod interrupt;
pub mod json;
pub mod perbench;
pub mod plan;
pub mod pool;
pub mod profile_cache;
pub mod runner;
pub mod sec5;
pub mod sec8;
pub mod table1;
pub mod tablefmt;
pub mod telemetry;
pub mod threec;
pub mod verify;
pub mod warmup;

pub use campaign::{
    group_preview, inspect_journal, memo_stats, memoize_enabled, reset_memo_stats, set_memo_trace,
    set_memoize, take_memo_trace, CampaignStats, CellOptions, CellResult, JournalInspection,
    MemoStats, MemoTraceEntry, RecordStatus,
};
pub use runner::{
    run_standard, run_standard_cells, run_standard_many, run_standard_raw, DEFAULT_SCALE,
};
pub use tablefmt::Table;
