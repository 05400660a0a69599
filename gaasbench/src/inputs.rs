//! Seeded inputs: every workload's traces and configurations are a pure
//! function of `--seed`, and seed 0 is the exact `repro` input.

use gaas_experiments::fig6::Org;
use gaas_experiments::fig_cmp;
use gaas_sim::config::{L2Config, L2Side, SimConfig};
use gaas_sim::{CmpConfig, WritePolicy};
use gaas_trace::bench_model::{suite, BenchmarkSpec};
use gaas_trace::rng::SmallRng;

/// Mask XORed into every Table-1 spec seed: murmur3's 64-bit finalizer,
/// a bijection with `mix(0) == 0`, so seed 0 keeps the suite unchanged
/// and distinct seeds give distinct traces.
pub fn seed_mask(seed: u64) -> u64 {
    let mut k = seed;
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The Table-1 suite with every spec seed XORed by [`seed_mask`].
pub fn kernel_specs(seed: u64) -> Vec<BenchmarkSpec> {
    let mask = seed_mask(seed);
    suite()
        .into_iter()
        .map(|mut s| {
            s.seed ^= mask;
            s
        })
        .collect()
}

/// The `cmp` machine: 4 cores with `fig_cmp`'s sharing knobs over a
/// 256 KW L2. Seed 0 is the split direct-mapped L2 with migration every
/// 256 shared references; other seeds draw the organization and the
/// migration interval.
pub fn cmp_config(seed: u64) -> SimConfig {
    let (org, migration_interval) = if seed == 0 {
        (Org::Split1, 256)
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        let org = Org::all()[rng.gen_range(0..4usize)];
        (org, [128, 256, 512][rng.gen_range(0..3usize)])
    };
    let mut b = SimConfig::builder();
    b.l2(org.l2(fig_cmp::L2_TOTAL_WORDS));
    b.cmp(CmpConfig {
        cores: 4,
        migration_interval,
        ..fig_cmp::sharing()
    });
    b.build().expect("the CMP benchmark configuration is valid")
}

/// One functional group of the `sweep` workload: a cache geometry and
/// write policy whose timing variants share one functional pass.
#[derive(Debug, Clone, Copy)]
pub struct SweepGroup {
    policy: WritePolicy,
    l2_words: u64,
    split: bool,
    assoc: u32,
}

/// The four `sweep` groups: write-back split 64 KW, write-back unified
/// 256 KW 2-way, write-only split 128 KW and subblock split 256 KW. The
/// last two are write-through and load the write buffer.
pub const SWEEP_GROUPS: [SweepGroup; 4] = [
    SweepGroup {
        policy: WritePolicy::WriteBack,
        l2_words: 65_536,
        split: true,
        assoc: 1,
    },
    SweepGroup {
        policy: WritePolicy::WriteBack,
        l2_words: 262_144,
        split: false,
        assoc: 2,
    },
    SweepGroup {
        policy: WritePolicy::WriteOnly,
        l2_words: 131_072,
        split: true,
        assoc: 1,
    },
    SweepGroup {
        policy: WritePolicy::Subblock,
        l2_words: 262_144,
        split: true,
        assoc: 1,
    },
];

impl SweepGroup {
    /// This group's configuration with an L2-D access time of
    /// `d_access` cycles (the L2-I side keeps 6).
    fn config(self, d_access: u32) -> SimConfig {
        let side = |words, access_cycles| L2Side {
            size_words: words,
            assoc: self.assoc,
            line_words: 32,
            access_cycles,
        };
        let mut b = SimConfig::builder();
        b.policy(self.policy);
        b.l2(if self.split {
            L2Config::Split {
                i: side(self.l2_words / 2, 6),
                d: side(self.l2_words / 2, d_access),
            }
        } else {
            L2Config::Unified(side(self.l2_words, d_access))
        });
        b.build().expect("sweep cells are valid configurations")
    }
}

/// The `sweep` cells, group-major: 4 groups × 4 L2-D access times. Seed 0
/// sweeps {2, 4, 6, 8} cycles; other seeds draw 4 distinct times from
/// 2..=10.
pub fn sweep_cells(seed: u64) -> Vec<SimConfig> {
    let times = if seed == 0 {
        vec![2, 4, 6, 8]
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pool: Vec<u32> = (2..=10).collect();
        let mut picked: Vec<u32> = (0..4)
            .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
            .collect();
        picked.sort_unstable();
        picked
    };
    SWEEP_GROUPS
        .iter()
        .flat_map(|g| times.iter().map(move |&t| g.config(t)))
        .collect()
}

/// Groups in the `serve` pool: write policy × L2 size × split × assoc.
pub const SERVE_POOL: usize = 40;

/// One served cell as it goes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServeCell {
    /// Index into the 40-group pool.
    pub group: usize,
    /// L2 access time in cycles.
    pub access: u32,
}

impl ServeCell {
    /// The cell as a sweep-spec JSON object.
    pub fn json(self) -> String {
        let policy = ["write_back", "write_only"][self.group / 20];
        let l2_size = [32_768u64, 65_536, 131_072, 262_144, 524_288][self.group / 4 % 5];
        let split = self.group / 2 % 2 == 1;
        let assoc = self.group % 2 + 1;
        format!(
            "{{\"policy\":\"{policy}\",\"l2_size\":{l2_size},\"l2_split\":{split},\
             \"l2_assoc\":{assoc},\"l2_access\":{}}}",
            self.access
        )
    }
}

/// A geometry outside the pool, for the warm-up job that ends set-up.
pub const WARMUP_CELL: &str = r#"{"policy":"subblock","l2_size":16384,"l2_access":3}"#;

/// The first `n` `serve` jobs of a seed. Each job asks for 2 distinct
/// groups × 2 distinct L2 access times from {2, 4, 6, 8}: 4 cells.
///
/// Group popularity is an assumption, not a measurement: there is no
/// request log of this service to fit. The pool is ranked by one fixed
/// shuffle and each group drawn with weight rank^-1, the plain form of
/// Zipf's law (web-proxy studies fit exponents a little below 1; Breslau
/// et al., INFOCOM 1999). Against the daemon's 64 MB profile cache this
/// misses about one lookup in six (hit rate 0.84 at seed 0), so about
/// three jobs in ten run a functional pass: p95 job latency is set by
/// misses and evictions, while the median job mostly prices from the
/// cache.
///
/// The group sequence is one fixed draw, the same for every seed, so
/// which lookups hit, miss and evict is a property of the traffic model
/// rather than of the seed: drawn afresh per seed, the timed jobs' miss
/// count varies by 10-13 % (one standard deviation, in an LRU model of
/// this pool and cache), and job latency with it. The seed draws
/// each job's access times, which the daemon prices from the group's
/// profile, so every seed asks for its own cells.
pub fn serve_jobs(seed: u64, n: usize) -> Vec<[ServeCell; 4]> {
    let mut groups = SmallRng::seed_from_u64(0x5e7e_0fa5);
    let mut ranking: Vec<usize> = (0..SERVE_POOL).collect();
    for i in (1..ranking.len()).rev() {
        ranking.swap(i, groups.gen_range(0..=i));
    }
    let weights: Vec<f64> = (1..=SERVE_POOL).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut zipf = || {
        let mut x = groups.gen::<f64>() * total;
        for (rank, w) in weights.iter().enumerate() {
            if x < *w {
                return ranking[rank];
            }
            x -= w;
        }
        ranking[SERVE_POOL - 1]
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let g1 = zipf();
            let g2 = loop {
                let g = zipf();
                if g != g1 {
                    break g;
                }
            };
            let a1 = [2, 4, 6, 8][rng.gen_range(0..4usize)];
            let a2 = loop {
                let a = [2, 4, 6, 8][rng.gen_range(0..4usize)];
                if a != a1 {
                    break a;
                }
            };
            let cell = |group, access| ServeCell { group, access };
            [cell(g1, a1), cell(g1, a2), cell(g2, a1), cell(g2, a2)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_leaves_the_suite_unchanged() {
        assert_eq!(seed_mask(0), 0);
        assert_eq!(kernel_specs(0), suite());
        let other = kernel_specs(1);
        assert!(other.iter().zip(suite()).all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn seed_zero_inputs_are_the_documented_defaults() {
        let cmp = cmp_config(0);
        assert_eq!(cmp.cmp.cores, 4);
        assert_eq!(cmp.cmp.migration_interval, 256);
        assert_eq!(cmp.l2, Org::Split1.l2(fig_cmp::L2_TOTAL_WORDS));
        let cells = sweep_cells(0);
        assert_eq!(cells.len(), 16);
        let d: Vec<u32> = cells[..4]
            .iter()
            .map(|c| c.l2.d_side().access_cycles)
            .collect();
        assert_eq!(d, [2, 4, 6, 8]);
    }

    #[test]
    fn sweep_groups_share_one_functional_pass_each() {
        for seed in [0, 1, 2] {
            let groups = gaas_experiments::campaign::group_preview(&sweep_cells(seed));
            assert_eq!(groups.len(), 4, "seed {seed}");
            assert!(groups
                .iter()
                .all(|(key, idx)| key.is_some() && idx.len() == 4));
        }
    }

    #[test]
    fn serve_jobs_are_seeded_valid_and_skewed() {
        let jobs = serve_jobs(3, 400);
        assert_eq!(jobs, serve_jobs(3, 400));
        let other = serve_jobs(4, 400);
        assert_ne!(jobs, other, "seeds draw their own access times");
        let groups = |js: &[[ServeCell; 4]]| -> Vec<usize> {
            js.iter().flat_map(|j| j.map(|c| c.group)).collect()
        };
        assert_eq!(groups(&jobs), groups(&other), "one group sequence");
        let mut count = [0usize; SERVE_POOL];
        for job in &jobs {
            assert_ne!(job[0].group, job[2].group);
            assert_ne!(job[0].access, job[1].access);
            for cell in job {
                count[cell.group] += 1;
                let spec = format!("{{\"scale\":0.001,\"cells\":[{}]}}", cell.json());
                gaas_serve::spec::parse(&spec).expect("pool cells are valid");
            }
        }
        let max = *count.iter().max().expect("pool is nonempty");
        let min = *count.iter().min().expect("pool is nonempty");
        assert!(max > 8 * min.max(1), "skewed draw: max {max}, min {min}");
        let distinct: std::collections::HashSet<String> = (0..SERVE_POOL)
            .map(|g| {
                ServeCell {
                    group: g,
                    access: 2,
                }
                .json()
            })
            .collect();
        assert_eq!(distinct.len(), SERVE_POOL);
    }
}
