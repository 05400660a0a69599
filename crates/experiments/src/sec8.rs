//! §8 — primary cache fetch/line size.
//!
//! With the latency and transfer rates between L2 and L1 fixed by the
//! split-L2 design (§7), the L1 fetch size (= line size) is swept for both
//! caches. The paper finds 8 words optimal for both L1-I and L1-D: larger
//! lines exploit spatial locality per miss, but 16 W fetches hold the
//! refill path too long and displace too much. A side benefit at 8 W: the
//! L1 tag store on the MMU shrinks from 40 Kb to 20 Kb.

use gaas_cache::WritePolicy;
use gaas_sim::config::{L1Config, L2Config, SimConfig};

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f3, grid};

/// Fetch/line sizes swept (words).
pub const FETCH_SIZES: [u32; 3] = [4, 8, 16];

/// Approximate MMU tag storage for the two 4 KW L1 caches at a given line
/// size (the paper: 40 Kb total at 4 W lines, halved to 20 Kb at 8 W).
pub fn tag_kbits(i_fetch: u32, d_fetch: u32) -> u32 {
    let per = |line: u32| 20 * 4 / line.max(1);
    per(i_fetch) + per(d_fetch)
}

/// The grid's `(I fetch, D fetch)` points, I-major.
fn points() -> impl Iterator<Item = (u32, u32)> {
    FETCH_SIZES
        .iter()
        .flat_map(|&i| FETCH_SIZES.iter().map(move |&d| (i, d)))
}

/// The 3 × 3 fetch-size grid's cells on the §7 design point
/// (write-only, split fast L2-I).
pub fn cells() -> Vec<SimConfig> {
    points()
        .map(|(i_fetch, d_fetch)| {
            let mut b = SimConfig::builder();
            b.policy(WritePolicy::WriteOnly)
                .l2(L2Config::split_fast_i())
                .l1i(L1Config {
                    size_words: 4096,
                    line_words: i_fetch,
                    assoc: 1,
                })
                .l1d(L1Config {
                    size_words: 4096,
                    line_words: d_fetch,
                    assoc: 1,
                });
            b.build().expect("valid")
        })
        .collect()
}

/// Renders the fetch-size grid (rows: L1-I fetch; columns: L1-D fetch)
/// from the cells' results (in [`cells`] order); a failed cell renders
/// as a gap.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let done: Vec<_> = completed(points(), results).collect();
    let t = grid(
        "Sec. 8 — CPI vs. L1 fetch/line size (split fast L2-I, write-only)",
        "I fetch \\ D fetch",
        FETCH_SIZES.map(|i| (format!("{i}W"), i)),
        &FETCH_SIZES.map(|d| (format!("{d}W"), d)),
        |i_fetch, d_fetch| {
            done.iter()
                .find(|(point, _)| *point == (i_fetch, d_fetch))
                .map(|(_, r)| f3(r.cpi()))
        },
    );
    format!("{t}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_storage_halves_with_line_doubling() {
        // Paper: 40 Kb of L1 tags at 4 W lines, 20 Kb at 8 W.
        assert_eq!(tag_kbits(4, 4), 40);
        assert_eq!(tag_kbits(8, 8), 20);
        assert!(tag_kbits(8, 8) < tag_kbits(4, 4));
    }

    #[test]
    fn grid_is_complete() {
        let results = crate::runner::run_standard_cells(&cells(), 3e-4);
        assert_eq!(results.len(), 9);
        assert!(results.iter().all(CellResult::is_done));
        let grid_rows = render(3e-4, &results)
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert_eq!(grid_rows, 3);
    }
}
