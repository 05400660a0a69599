//! Three-C decomposition of L2 misses: *why* splitting helps (§7).
//!
//! The paper argues splitting a large direct-mapped L2 works because the
//! instruction and data streams "never share address space, but in a
//! direct-mapped cache they can interfere with one another because of
//! mapping conflicts". This experiment measures that directly: the L1 miss
//! stream of the standard workload is fed both to a unified direct-mapped
//! L2 and to a split pair of half-size caches, and every miss is classified
//! compulsory / capacity / conflict against same-capacity fully-associative
//! shadows. If the paper is right, splitting should specifically remove
//! *conflict* misses at large sizes.

use gaas_cache::{CacheArray, CacheGeometry, PageMapper, ThreeCClassifier, ThreeCCounts};
use gaas_trace::{AccessKind, PhysAddr, Trace};

use crate::campaign::CellResult;
use crate::tablefmt::{f4, Table};

/// Total L2 sizes analyzed (words).
pub const SIZES: [u64; 3] = [65_536, 262_144, 1_048_576];

/// Classification results for one total size.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Total L2 size in words.
    pub size_words: u64,
    /// Unified direct-mapped classification.
    pub unified: ThreeCCounts,
    /// Split (two half-size) classification, I and D merged.
    pub split: ThreeCCounts,
}

fn merge(a: ThreeCCounts, b: ThreeCCounts) -> ThreeCCounts {
    ThreeCCounts {
        hits: a.hits + b.hits,
        compulsory: a.compulsory + b.compulsory,
        capacity: a.capacity + b.capacity,
        conflict: a.conflict + b.conflict,
    }
}

/// Replays the workload's L1 miss stream into unified and split L2
/// classifiers (functional analysis; no timing).
pub fn run(scale: f64) -> Vec<Row> {
    let l1_geom = CacheGeometry::new(4096, 4, 1).expect("valid");
    let mut rows = Vec::new();
    for &size in &SIZES {
        let l2_geom = CacheGeometry::new(size, 32, 1).expect("valid");
        let half_geom = CacheGeometry::new(size / 2, 32, 1).expect("valid");

        let mut l1i = CacheArray::new(l1_geom);
        let mut l1d = CacheArray::new(l1_geom);
        let mut mapper = PageMapper::new(256);
        let mut unified = ThreeCClassifier::new(l2_geom);
        let mut split_i = ThreeCClassifier::new(half_geom);
        let mut split_d = ThreeCClassifier::new(half_geom);

        // Interleave the ten traces round-robin in coarse chunks to mimic
        // the multiprogram mix without timing.
        let mut traces = gaas_sim::workload::standard(scale);
        let mut live: Vec<&mut Box<dyn Trace>> = traces.iter_mut().collect();
        let chunk = 50_000;
        while !live.is_empty() {
            live.retain_mut(|t| {
                let mut delivered = false;
                for ev in t.by_ref().take(chunk) {
                    delivered = true;
                    let paddr: PhysAddr = mapper.translate(ev.addr);
                    let (l1, is_ifetch) = match ev.kind {
                        AccessKind::IFetch => (&mut l1i, true),
                        AccessKind::Load | AccessKind::Store => (&mut l1d, false),
                    };
                    if l1.touch(paddr).is_none() {
                        l1.fill(paddr);
                        unified.access(paddr);
                        if is_ifetch {
                            split_i.access(paddr);
                        } else {
                            split_d.access(paddr);
                        }
                    }
                }
                delivered
            });
        }

        rows.push(Row {
            size_words: size,
            unified: unified.counts(),
            split: merge(split_i.counts(), split_d.counts()),
        });
    }
    rows
}

/// Renders the 3C comparison.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Three-C decomposition of L2 misses: unified vs split direct-mapped",
        &[
            "size (KW)",
            "org",
            "miss ratio",
            "compulsory",
            "capacity",
            "conflict",
            "conflict share",
        ],
    );
    for r in rows {
        for (org, c) in [("unified", r.unified), ("split", r.split)] {
            t.push_row(vec![
                (r.size_words / 1024).to_string(),
                org.to_string(),
                f4(c.miss_ratio()),
                c.compulsory.to_string(),
                c.capacity.to_string(),
                c.conflict.to_string(),
                f4(c.conflict_share()),
            ]);
        }
    }
    t
}

/// Renders the 3C comparison (a functional analysis; it has no cells).
pub fn render(scale: f64, _results: &[CellResult]) -> String {
    format!("{}\n", table(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_removes_conflicts_at_the_large_size() {
        let rows = run(4e-4);
        assert_eq!(rows.len(), SIZES.len());
        let large = rows.last().expect("nonempty");
        // §7's mechanism: at 1 MW the split cache has fewer conflict misses
        // than the unified one.
        assert!(
            large.split.conflict <= large.unified.conflict,
            "split {} vs unified {} conflicts",
            large.split.conflict,
            large.unified.conflict
        );
    }

    #[test]
    fn table_renders_both_orgs() {
        let rows = run(2e-4);
        let t = table(&rows);
        assert_eq!(t.n_rows(), 2 * SIZES.len());
        assert!(t.to_string().contains("unified"));
    }
}
