//! Figs. 7 and 8 — the L2-I and L2-D speed–size tradeoffs.
//!
//! With a split L2, the instruction and data sides are varied
//! independently from the base architecture (the other side held at the
//! base 256 KW, 6 cycles): sizes 8 KW–512 KW by access times 1–9 cycles.
//! The y-axis is that side's contribution to CPI (for the data side the
//! effect of writes is ignored, as in the paper, by reporting only the
//! read-path components). Expected shapes: both surfaces improve with size
//! and degrade with access time; the L2-I curves flatten beyond ≈ 64 KW
//! while L2-D keeps improving to 512 KW — the optimum data cache is roughly
//! 8× the optimum instruction cache, motivating the paper's asymmetric
//! physically split L2.

use gaas_sim::config::{L2Config, L2Side, SimConfig};
use gaas_sim::SimResult;

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::tablefmt::{f4, grid, Table};

/// Side sizes swept (words).
pub const SIZES: [u64; 7] = [8_192, 16_384, 32_768, 65_536, 131_072, 262_144, 524_288];

/// Access times swept (cycles).
pub const ACCESS_TIMES: [u32; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 9];

/// Which side of the split L2 is being swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Fig. 7: the instruction side.
    Instruction,
    /// Fig. 8: the data side.
    Data,
}

fn base_side() -> L2Side {
    L2Side {
        size_words: 262_144,
        assoc: 1,
        line_words: 32,
        access_cycles: 6,
    }
}

/// The configuration of one (size, access) cell of a surface: the varied
/// side at `size_words`/`access`, the other side held at the base
/// 256 KW / 6 cycles. Public so the telemetry pipeline can name exactly
/// the cells this sweep runs.
pub fn cell_config(side: Side, size_words: u64, access: u32) -> SimConfig {
    let varied = L2Side {
        size_words,
        assoc: 1,
        line_words: 32,
        access_cycles: access,
    };
    let l2 = match side {
        Side::Instruction => L2Config::Split {
            i: varied,
            d: base_side(),
        },
        Side::Data => L2Config::Split {
            i: base_side(),
            d: varied,
        },
    };
    let mut b = SimConfig::builder();
    b.l2(l2);
    b.build().expect("valid")
}

/// A surface's cells: every size in [`SIZES`] × access time in
/// [`ACCESS_TIMES`], size-major (63 cells).
pub fn cells(side: Side) -> Vec<SimConfig> {
    SIZES
        .iter()
        .flat_map(|&size| {
            ACCESS_TIMES
                .iter()
                .map(move |&access| cell_config(side, size, access))
        })
        .collect()
}

/// The swept side of a surface cell's L2.
pub(crate) fn swept(side: Side, cfg: &SimConfig) -> L2Side {
    match side {
        Side::Instruction => cfg.l2.i_side(),
        Side::Data => cfg.l2.d_side(),
    }
}

/// The swept side's CPI contribution to a result: for the data side
/// only the read path, since the paper ignores the effect of writes.
pub(crate) fn side_cpi(side: Side, r: &SimResult) -> f64 {
    let bd = r.breakdown();
    match side {
        Side::Instruction => bd.instruction_side_cpi(),
        Side::Data => bd.data_read_side_cpi(),
    }
}

/// The surface over the completed cells among `cfgs` (any subset of
/// [`cells`], results in the same order): one row per size, one column
/// per access time, both read from the cells' swept side.
fn surface(side: Side, cfgs: &[SimConfig], results: &[CellResult]) -> Table {
    let title = match side {
        Side::Instruction => "Fig. 7 — L2-I speed–size tradeoff (CPI contribution)",
        Side::Data => "Fig. 8 — L2-D speed–size tradeoff, writes ignored (CPI contribution)",
    };
    let done: Vec<(L2Side, f64)> = completed(cfgs, results)
        .map(|(cfg, r)| (swept(side, cfg), side_cpi(side, r)))
        .collect();
    let axis = |key: fn(&L2Side) -> u64| {
        let mut v: Vec<u64> = done.iter().map(|(s, _)| key(s)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let times: Vec<(String, u64)> = axis(|s| s.access_cycles.into())
        .into_iter()
        .map(|t| (format!("T={t}"), t))
        .collect();
    grid(
        title,
        "size (KW)",
        axis(|s| s.size_words)
            .into_iter()
            .map(|s| ((s / 1024).to_string(), s)),
        &times,
        |size, access| {
            done.iter()
                .find(|(s, _)| s.size_words == size && u64::from(s.access_cycles) == access)
                .map(|(_, cpi)| f4(*cpi))
        },
    )
}

/// Renders a full surface from its cells' results (in [`cells`] order);
/// a failed cell renders as a gap.
pub fn render(side: Side, _scale: f64, results: &[CellResult]) -> String {
    format!("{}\n", surface(side, &cells(side), results))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_grid_runs_and_renders() {
        let cfgs: Vec<SimConfig> = cells(Side::Instruction)
            .into_iter()
            .filter(|c| {
                let s = swept(Side::Instruction, c);
                [16_384, 262_144].contains(&s.size_words) && [2, 6].contains(&s.access_cycles)
            })
            .collect();
        let results = crate::runner::run_standard_cells(&cfgs, 3e-4);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(CellResult::is_done));
        assert_eq!(surface(Side::Instruction, &cfgs, &results).n_rows(), 2);
    }

    #[test]
    fn config_for_places_varied_side() {
        let c = cell_config(Side::Data, 65_536, 3);
        assert_eq!(c.l2.d_side().size_words, 65_536);
        assert_eq!(c.l2.d_side().access_cycles, 3);
        assert_eq!(c.l2.i_side().size_words, 262_144);
        let c = cell_config(Side::Instruction, 8_192, 1);
        assert_eq!(c.l2.i_side().access_cycles, 1);
    }
}
