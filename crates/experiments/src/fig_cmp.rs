//! `fig_cmp` — the CMP frontier: the paper's L2-organization question
//! re-asked with 1/2/4/8 cores sharing the L2.
//!
//! The source study picks an L2 organization for *one* GaAs CPU. This
//! figure family re-runs the Fig. 6 contenders — unified/split ×
//! direct-mapped/2-way, at the paper's preferred 256 KW total — as the
//! shared L2 of a small chip multiprocessor with private per-core L1s
//! kept coherent by a MESI invalidation protocol.
//!
//! Three grids over cores × organization:
//!
//! * **CPI** — does the single-CPU winner survive sharing-induced
//!   invalidation and snoop-bus time?
//! * **coherence CPI** — cycles per instruction charged to coherence
//!   (bus waits, invalidations, cache-to-cache transfers); zero in the
//!   1-core anchor column by construction.
//! * **invalidations per 1000 instructions** — protocol traffic
//!   intensity, the quantity the directory filter keeps proportional to
//!   *sharing* rather than core count.
//!
//! The 1-core row runs on the validated single-CPU engine (byte-identity
//! is test-enforced), so every multi-core delta is attributable to
//! sharing, not engine drift.

use gaas_sim::config::SimConfig;
use gaas_sim::{CmpConfig, Counters};

use crate::campaign::CellResult;
use crate::fig6::Org;
use crate::plan::completed;
use crate::tablefmt::{f3, grid};

/// Core counts swept (1 = the paper's machine, the anchor column).
pub const CORES: [u32; 4] = [1, 2, 4, 8];

/// Total L2 size for every cell: the paper's preferred 256 KW point.
pub const L2_TOTAL_WORDS: u64 = 262_144;

/// Sharing intensity of the multi-core cells: a moderate 10 % of data
/// references into a 16 KW shared footprint whose per-core affinity
/// windows rotate every 256 shared references. Cores consume shared
/// references at different rates, so rotations desynchronize and the
/// hot windows genuinely overlap while both cores run — enough live
/// cross-core traffic to separate the organizations without drowning
/// the cache behavior the paper studies.
pub fn sharing() -> CmpConfig {
    CmpConfig {
        shared_frac: 0.10,
        shared_words: 16_384,
        migration_interval: 256,
        ..CmpConfig::default()
    }
}

/// The sweep's `(organization, cores)` points, organization-major.
fn points() -> impl Iterator<Item = (Org, u32)> {
    Org::all()
        .into_iter()
        .flat_map(|org| CORES.iter().map(move |&n| (org, n)))
}

/// The 4 × 4 sweep's cells (organizations × core counts),
/// organization-major. Every multi-core cell carries [`sharing`]'s
/// workload knobs; single-core cells get `shared_frac = 0` so they stay
/// on the validated single-CPU engine — the anchor column.
pub fn cells() -> Vec<SimConfig> {
    points()
        .map(|(org, cores)| {
            let mut b = SimConfig::builder();
            b.l2(org.l2(L2_TOTAL_WORDS));
            let mut cfg = b.build().expect("valid");
            cfg.cmp = CmpConfig {
                cores,
                shared_frac: if cores > 1 {
                    sharing().shared_frac
                } else {
                    0.0
                },
                ..sharing()
            };
            cfg
        })
        .collect()
}

/// Renders the CPI, coherence-CPI and invalidation-traffic grids from
/// the cells' results (in [`cells`] order): one row per core count, one
/// column per organization, a failed cell as a gap.
pub fn render(_scale: f64, results: &[CellResult]) -> String {
    let done: Vec<_> = completed(points(), results).collect();
    let table = |title: &str, per_instr: fn(&Counters) -> f64| {
        let t = grid(
            title,
            "cores",
            CORES.map(|n| (n.to_string(), n)),
            &Org::all().map(|o| (o.label().to_string(), o)),
            |cores, org| {
                done.iter()
                    .find(|(point, _)| *point == (org, cores))
                    .map(|(_, r)| {
                        let c = &r.counters;
                        f3(per_instr(c) / c.instructions.max(1) as f64)
                    })
            },
        );
        format!("{t}\n")
    };
    [
        table(
            "fig_cmp — CPI of the Fig. 6 L2 organizations, 1-8 cores sharing the L2",
            |c| c.total_cycles() as f64,
        ),
        table(
            "fig_cmp — coherence CPI component (bus wait + invalidation + C2C time)",
            |c| c.coherence_stall_cycles as f64,
        ),
        table("fig_cmp — invalidations per 1000 instructions", |c| {
            c.invalidations as f64 * 1000.0
        }),
    ]
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_standard_many;

    #[test]
    fn sweep_configs_cross_orgs_and_cores() {
        let cfgs = cells();
        assert_eq!(cfgs.len(), 16);
        for ((org, cores), cfg) in points().zip(&cfgs) {
            assert_eq!(cfg.l2, org.l2(L2_TOTAL_WORDS));
            assert_eq!(cfg.cmp.cores, cores);
        }
        // The anchor cells stay on the single-CPU engine.
        assert!(cfgs
            .iter()
            .filter(|c| c.cmp.cores == 1)
            .all(|c| !c.cmp.enabled()));
        // Every multi-core cell carries the sharing knobs.
        assert!(cfgs
            .iter()
            .filter(|c| c.cmp.cores > 1)
            .all(|c| c.cmp.enabled() && c.cmp.shared_frac == sharing().shared_frac));
        assert!(cfgs.iter().all(|c| c.validate().is_ok()));
    }

    #[test]
    fn small_sweep_produces_the_expected_shape() {
        let results = run_standard_many(&cells(), 5e-5);
        assert_eq!(results.len(), 16, "all cells complete");
        let mut sharing_pays = false;
        for ((org, cores), r) in points().zip(&results) {
            assert!(r.cpi() > 1.0, "{}x{cores}: CPI sane", org.label());
            let coherence = r.counters.coherence_stall_cycles;
            if cores == 1 {
                assert_eq!(coherence, 0, "anchor column has no coherence time");
            }
            sharing_pays |= cores > 1 && coherence > 0;
        }
        // At least one genuinely sharing configuration pays coherence time.
        assert!(sharing_pays, "multi-core cells must exercise the protocol");
    }
}
