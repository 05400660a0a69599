//! Fig. 6 and Table 2 — secondary-cache size and organization.
//!
//! Four organizations — unified/split × direct-mapped/2-way — across total
//! sizes 16 KW to 1024 KW. Associativity costs one extra access cycle
//! (6 → 7); a split cache gives each of instructions and data half the
//! capacity, interleaved by the high-order index bit, at no access-time
//! cost. Expected shape: splitting hurts small caches (capacity), helps
//! large direct-mapped caches (conflict isolation between the I and D
//! streams); 2-way associativity lowers miss ratios everywhere and delays
//! the split benefit to the largest sizes.

use gaas_sim::config::{L2Config, L2Side, SimConfig};
use gaas_sim::SimResult;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, f4, grid};

/// Total L2 sizes swept (words).
pub const SIZES: [u64; 7] = [16_384, 32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576];

/// The four organizations of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Org {
    /// Unified direct-mapped (6-cycle access).
    Unified1,
    /// Unified 2-way (7-cycle access).
    Unified2,
    /// Split direct-mapped (6-cycle access).
    Split1,
    /// Split 2-way (7-cycle access).
    Split2,
}

impl Org {
    /// All four organizations in the figure's order.
    pub fn all() -> [Org; 4] {
        [Org::Unified1, Org::Unified2, Org::Split1, Org::Split2]
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Org::Unified1 => "unified 1-way",
            Org::Unified2 => "unified 2-way",
            Org::Split1 => "split 1-way",
            Org::Split2 => "split 2-way",
        }
    }

    /// Builds the L2 configuration for a total size.
    pub fn l2(self, total_words: u64) -> L2Config {
        match self {
            Org::Unified1 => L2Config::Unified(L2Side {
                size_words: total_words,
                assoc: 1,
                line_words: 32,
                access_cycles: 6,
            }),
            Org::Unified2 => L2Config::Unified(L2Side {
                size_words: total_words,
                assoc: 2,
                line_words: 32,
                access_cycles: 7,
            }),
            Org::Split1 => L2Config::split_even(total_words, 1, 6),
            Org::Split2 => L2Config::split_even(total_words, 2, 7),
        }
    }
}

/// The sweep's `(size, organization)` points, size-major.
fn points() -> impl Iterator<Item = (u64, Org)> {
    SIZES
        .iter()
        .flat_map(|&size| Org::all().into_iter().map(move |org| (size, org)))
}

/// The 7 × 4 sweep's cells, size-major.
pub fn cells() -> Vec<SimConfig> {
    points()
        .map(|(size, org)| {
            let mut b = SimConfig::builder();
            b.l2(org.l2(size));
            b.build().expect("valid")
        })
        .collect()
}

/// Renders Fig. 6 (CPI) and Table 2 (L2 miss ratios) from the cells'
/// results (in [`cells`] order): one row per size, one column per
/// organization, a failed cell as a gap.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let done: Vec<_> = completed(points(), results).collect();
    let table = |title: &str, value: fn(&SimResult) -> String| {
        grid(
            title,
            "size (KW)",
            SIZES.map(|s| ((s / 1024).to_string(), s)),
            &Org::all().map(|o| (o.label().to_string(), o)),
            |size, org| {
                done.iter()
                    .find(|(point, _)| *point == (size, org))
                    .map(|(_, r)| value(r))
            },
        )
    };
    format!(
        "{}\n{}\n",
        table("Fig. 6 — CPI of L2 sizes and organizations", |r| f3(
            r.cpi()
        )),
        table(
            "Table 2 — L2 miss ratios for the sizes and organizations of Fig. 6",
            |r| f4(r.counters.l2_miss_ratio())
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn org_builders_are_consistent() {
        for org in Org::all() {
            let l2 = org.l2(262_144);
            match org {
                Org::Unified1 | Org::Unified2 => assert!(!l2.is_split()),
                Org::Split1 | Org::Split2 => {
                    assert!(l2.is_split());
                    assert_eq!(l2.i_side().size_words, 131_072);
                }
            }
            assert!(!org.label().is_empty());
        }
        assert_eq!(Org::Unified2.l2(65_536).i_side().assoc, 2);
        assert_eq!(Org::Split2.l2(65_536).d_side().access_cycles, 7);
    }
}
