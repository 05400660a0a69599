//! Fig. 9 — the gains from the asymmetric physically split L2 and the
//! 8-word L1 fetch size.
//!
//! Three columns: (1) the §6 design point — base architecture with the
//! write-only policy; (2) plus the §7 physically split L2 (32 KW two-cycle
//! L2-I from the fast 1 K × 32 SRAMs on the MCM, 256 KW six-cycle L2-D off
//! the MCM); (3) plus 8 W L1 lines/fetch (§8). The paper reports a 34 %
//! memory-CPI improvement from the split fast L2-I and a further 0.026 CPI
//! from the larger fetch. A fourth, cautionary row swaps the L2-I and L2-D
//! speeds to show the partitioning matters (the paper: +21 % CPI).

use gaas_cache::WritePolicy;
use gaas_sim::config::{L2Config, L2Side, SimConfig};

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, Table};

fn write_only_base() -> SimConfig {
    let mut b = SimConfig::builder();
    b.policy(WritePolicy::WriteOnly);
    b.build().expect("valid")
}

fn split_fast() -> SimConfig {
    let mut b = write_only_base().to_builder();
    b.l2(L2Config::split_fast_i());
    b.build().expect("valid")
}

fn split_fast_8w() -> SimConfig {
    let mut b = split_fast().to_builder();
    b.l1_line(8);
    b.build().expect("valid")
}

fn swapped() -> SimConfig {
    // Exchange the sizes and access times of L2-I and L2-D.
    let mut b = write_only_base().to_builder();
    b.l2(L2Config::Split {
        i: L2Side {
            size_words: 262_144,
            assoc: 1,
            line_words: 32,
            access_cycles: 6,
        },
        d: L2Side {
            size_words: 32_768,
            assoc: 1,
            line_words: 32,
            access_cycles: 2,
        },
    });
    b.build().expect("valid")
}

/// The four design points: column label and configuration.
fn points() -> [(&'static str, SimConfig); 4] {
    [
        ("base + write-only", write_only_base()),
        ("+ split 32KW/2cyc L2-I, 256KW/6cyc L2-D", split_fast()),
        ("+ 8W L1 fetch/line", split_fast_8w()),
        ("(swapped L2-I/L2-D speeds)", swapped()),
    ]
}

/// The walk's cells, one per design point.
pub fn cells() -> Vec<SimConfig> {
    points().into_iter().map(|(_, cfg)| cfg).collect()
}

/// Renders the Fig. 9 columns from the cells' results (in [`cells`]
/// order); a failed design point is omitted.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let mut t = Table::new(
        "Fig. 9 — fast on-MCM L2-I and 8W fetch",
        &["design point", "CPI", "memory CPI", "mem. gain vs col 1"],
    );
    let mut base_mem = None;
    for (label, r) in completed(points().map(|(label, _)| label), results) {
        let b = r.breakdown();
        let base = *base_mem.get_or_insert(b.memory_cpi());
        let gain = 100.0 * (base - b.memory_cpi()) / base;
        t.push_row(vec![
            label.to_string(),
            f3(b.total()),
            f4(b.memory_cpi()),
            format!("{gain:+.1}%"),
        ]);
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid_and_distinct() {
        assert_eq!(write_only_base().policy, WritePolicy::WriteOnly);
        assert!(split_fast().l2.is_split());
        assert_eq!(split_fast().l2.i_side().access_cycles, 2);
        assert_eq!(split_fast_8w().l1i.line_words, 8);
        assert_eq!(swapped().l2.d_side().size_words, 32_768);
    }

    #[test]
    fn walk_runs() {
        let results = crate::runner::run_standard_cells(&cells(), 3e-4);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(CellResult::is_done));
        assert!(render(3e-4, &results).contains("split"));
    }
}
