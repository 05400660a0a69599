//! §5 — primary cache size and associativity under MCM constraints.
//!
//! The paper argues (without a figure) that 4 KW direct-mapped primary
//! caches are the best *implementable* choice: larger or associative
//! caches lower the miss ratio but stretch the system cycle (more SRAM
//! chips, more interconnect and loading, virtual tags or off-MMU tags in
//! series). This experiment makes the argument quantitative: it combines
//! the simulator's miss-ratio side (CPI at constant cycle) with the
//! `gaas-mcm` access-time model (cycle stretch), reporting *effective*
//! relative time per instruction `CPI × cycle-stretch`.

use gaas_mcm::{cycle_stretch, l1_access, TagPlacement};
use gaas_sim::config::{L1Config, SimConfig};

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, Table};

/// L1 sizes swept (words, both caches).
pub const SIZES: [u64; 4] = [2_048, 4_096, 8_192, 16_384];

/// Tag placement the §2/§5 design rules force for a given L1 organization:
/// physical tags fit on the MMU only for a direct-mapped cache no larger
/// than the 4 KW page; a bigger I-cache needs virtual tags on the MCM; an
/// associative cache pushes tags off the MMU in series.
pub fn implied_tags(size_words: u64, assoc: u32) -> TagPlacement {
    if assoc > 1 {
        TagPlacement::SerializedOffMmu
    } else if size_words > 4_096 {
        TagPlacement::VirtualOnMcm
    } else {
        TagPlacement::OnMmu
    }
}

/// The sweep's `(size, associativity)` points, size-major.
fn points() -> impl Iterator<Item = (u64, u32)> {
    SIZES
        .iter()
        .flat_map(|&size| [1u32, 2].into_iter().map(move |assoc| (size, assoc)))
}

/// The size × associativity sweep's cells (both L1 caches alike).
pub fn cells() -> Vec<SimConfig> {
    points()
        .map(|(size, assoc)| {
            let l1 = L1Config {
                size_words: size,
                line_words: 4,
                assoc,
            };
            let mut b = SimConfig::builder();
            b.l1i(l1);
            b.l1d(l1);
            b.build().expect("valid")
        })
        .collect()
}

/// The system cycle stretch factor (≥ 1) the technology model gives an
/// L1 organization with its [`implied_tags`].
pub(crate) fn stretch(size_words: u64, assoc: u32) -> f64 {
    cycle_stretch(&l1_access(size_words, implied_tags(size_words, assoc)))
}

/// Renders the §5 table from the cells' results (in [`cells`] order):
/// CPI at the unchanged 4 ns cycle, the L1 access time and cycle stretch
/// of the technology model, and the effective relative time per
/// instruction, CPI × stretch. A failed cell is omitted.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let mut t = Table::new(
        "Sec. 5 — L1 size/associativity vs. implementable cycle time",
        &[
            "size (KW)",
            "assoc",
            "tags",
            "CPI",
            "access (ns)",
            "stretch",
            "CPI x stretch",
        ],
    );
    for ((size, assoc), r) in completed(points(), results) {
        let tags = implied_tags(size, assoc);
        let access = l1_access(size, tags);
        let stretch = cycle_stretch(&access);
        t.push_row(vec![
            (size / 1024).to_string(),
            assoc.to_string(),
            format!("{tags:?}"),
            f3(r.cpi()),
            format!("{:.2}", access.total_ns()),
            format!("{stretch:.3}"),
            f3(r.cpi() * stretch),
        ]);
    }
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_rules_match_paper() {
        assert_eq!(implied_tags(4_096, 1), TagPlacement::OnMmu);
        assert_eq!(implied_tags(8_192, 1), TagPlacement::VirtualOnMcm);
        assert_eq!(implied_tags(4_096, 2), TagPlacement::SerializedOffMmu);
    }

    #[test]
    fn four_kw_direct_mapped_has_no_stretch() {
        let access = l1_access(4_096, implied_tags(4_096, 1));
        assert_eq!(cycle_stretch(&access), 1.0);
    }
}
