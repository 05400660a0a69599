//! Ablations of design choices the paper fixes without sweeping.
//!
//! DESIGN.md calls out three constants the base architecture adopts from
//! engineering judgment rather than from a reported sweep; these ablations
//! supply the missing evidence:
//!
//! * **write-buffer depth** — the paper uses 4 × 4 W (write-back) and
//!   8 × 1 W (write-through); how sensitive is each policy to depth?
//! * **L2 line size** — fixed at 32 W by the R6020 transfer unit; what do
//!   16 W or 8 W lines cost?
//! * **page colors** — the paper relies on page coloring \[TDF90\]; what
//!   happens as the color count shrinks toward an uncolored allocator?
//! * **TLB miss penalty** — the paper charges none (lookup in parallel);
//!   what would misses cost if they were charged?

use gaas_cache::WritePolicy;
use gaas_sim::config::{L2Config, L2Side, SimConfig, WriteBufferConfig};

use crate::campaign::CellResult;
use crate::plan::completed;
use crate::runner::run_standard_cells;
use crate::tablefmt::{f3, f4, Table};

/// One ablation point: a labeled config and its headline metrics.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which ablation family this row belongs to.
    pub family: &'static str,
    /// Point label within the family.
    pub label: String,
    /// Total CPI.
    pub cpi: f64,
    /// Memory CPI.
    pub memory_cpi: f64,
    /// L2 miss ratio.
    pub l2_miss: f64,
}

/// One ablation point: family, label within the family, and config.
type Point = (&'static str, String, SimConfig);

/// Every family's points, in table order.
fn points() -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for policy in [WritePolicy::WriteBack, WritePolicy::WriteOnly] {
        for depth in [1usize, 2, 4, 8, 16] {
            let mut b = SimConfig::builder();
            b.policy(policy).write_buffer(WriteBufferConfig {
                depth,
                width_words: if policy.is_write_through() { 1 } else { 4 },
            });
            let label = format!("{} depth {depth}", policy.label());
            points.push(("wb-depth", label, b.build().expect("valid")));
        }
    }
    for line in [8u32, 16, 32] {
        let mut b = SimConfig::builder();
        b.l2(L2Config::Unified(L2Side {
            size_words: 262_144,
            assoc: 1,
            line_words: line,
            access_cycles: 6,
        }));
        points.push((
            "l2-line",
            format!("{line}W lines"),
            b.build().expect("valid"),
        ));
    }
    // 256 colors (the default) down to a single color (an allocator that
    // ignores cache geometry).
    for colors in [256u64, 64, 16, 4, 1] {
        let mut cfg = SimConfig::baseline();
        cfg.page_colors = colors;
        points.push(("page-colors", format!("{colors} colors"), cfg));
    }
    for p in [0u32, 10, 30, 100] {
        let mut b = SimConfig::builder();
        b.tlb_miss_penalty(p);
        points.push((
            "tlb-penalty",
            format!("{p} cycles"),
            b.build().expect("valid"),
        ));
    }
    points
}

/// Every ablation family's cells, in table order.
pub fn cells() -> Vec<SimConfig> {
    points().into_iter().map(|(_, _, cfg)| cfg).collect()
}

/// The rows of the completed cells among `points` (results in the same
/// order).
fn rows(points: Vec<Point>, results: &[CellResult]) -> Vec<Row> {
    completed(points, results)
        .map(|((family, label, _), r)| Row {
            family,
            label,
            cpi: r.cpi(),
            memory_cpi: r.breakdown().memory_cpi(),
            l2_miss: r.counters.l2_miss_ratio(),
        })
        .collect()
}

/// Runs one family (`wb-depth`, `l2-line`, `page-colors` or
/// `tlb-penalty`) as its own batch.
pub fn family(name: &str, scale: f64) -> Vec<Row> {
    let points: Vec<Point> = points().into_iter().filter(|p| p.0 == name).collect();
    let cfgs: Vec<SimConfig> = points.iter().map(|(_, _, cfg)| cfg.clone()).collect();
    rows(points, &run_standard_cells(&cfgs, scale))
}

/// Renders all ablation rows grouped by family.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Ablations — design constants the paper fixes",
        &["family", "point", "CPI", "memory CPI", "L2 miss"],
    );
    for r in rows {
        t.push_row(vec![
            r.family.to_string(),
            r.label.clone(),
            f3(r.cpi),
            f4(r.memory_cpi),
            f4(r.l2_miss),
        ]);
    }
    t
}

/// Renders every ablation family from the cells' results.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    format!("{}\n", table(&rows(points(), results)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: f64 = 3e-4;

    #[test]
    fn deeper_write_buffers_never_hurt() {
        let rows = family("wb-depth", S);
        for pair in rows.windows(2) {
            if pair[0].family == pair[1].family
                && pair[0].label.split(' ').next() == pair[1].label.split(' ').next()
            {
                assert!(
                    pair[1].cpi <= pair[0].cpi + 0.02,
                    "{} -> {}: {} -> {}",
                    pair[0].label,
                    pair[1].label,
                    pair[0].cpi,
                    pair[1].cpi
                );
            }
        }
    }

    #[test]
    fn page_coloring_matters() {
        let rows = family("page-colors", S);
        let full = &rows[0]; // 256 colors
        let none = rows.last().expect("nonempty"); // 1 color
                                                   // Removing coloring must not *improve* the machine; typically it
                                                   // degrades L2 conflict behaviour.
        assert!(
            none.cpi + 1e-9 >= full.cpi * 0.98,
            "{} vs {}",
            none.cpi,
            full.cpi
        );
    }

    #[test]
    fn tlb_penalty_monotone() {
        let rows = family("tlb-penalty", S);
        for pair in rows.windows(2) {
            assert!(pair[1].cpi >= pair[0].cpi - 1e-9);
        }
    }

    #[test]
    fn table_renders_all_families() {
        let s = crate::plan::find("ablations").expect("listed").run(S);
        for fam in ["wb-depth", "l2-line", "page-colors", "tlb-penalty"] {
            assert!(s.contains(fam));
        }
    }
}
