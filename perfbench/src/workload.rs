//! The benchmark's workloads: how each input is generated from a seed and
//! which pinned configuration the program runs it under.
//!
//! A workload fixes its generating tree and per-partition models, drawn
//! once from its default seed exactly as `exa_simgen::workloads::partitioned`
//! draws them. The benchmark seed draws the alignment from that tree and
//! those models, so seeds vary the data, not the problem's shape.

use exa_bio::partition::PartitionScheme;
use exa_comm::ReduceChoice;
use exa_phylo::engine::{GradientChoice, KernelChoice, RepeatsChoice, ThreadCount, ThreadsChoice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::Tree;
use exa_search::{BranchMode, SearchConfig, StartingTree};
use exa_simgen::SimModel;
use examl_core::{RunConfig, Scheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ranks per run. Each rank computes on one thread, so a run uses two cores.
pub const RANKS: usize = 2;

/// Alignments drawn per run. Averaging over them keeps a run's figures
/// from hanging on one draw of the data.
pub const DATASETS: usize = 3;

/// The alignment seed of dataset `k` of a run with benchmark seed `seed`.
/// Dataset 0 uses `seed` itself.
pub fn dataset_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

/// The program's own seed (parsimony randomization), the CLI default. The
/// benchmark seed only drives the data generator.
pub const PROGRAM_SEED: u64 = 42;

/// One named workload.
pub struct Spec {
    pub name: &'static str,
    /// Seed the workload was sized and described with.
    pub default_seed: u64,
    /// A seed kept out of tuning, for re-checking later claims.
    pub held_out_seed: u64,
    n_taxa: usize,
    n_partitions: usize,
    chunk_len: usize,
    config: fn() -> RunConfig,
    /// Commit a checkpoint every this many iterations, when set.
    pub checkpoint_every: Option<usize>,
}

/// The generated input: what the program receives, plus the tree the data
/// was simulated on (for the accuracy check).
pub struct Inputs {
    pub phylip: String,
    pub partitions: String,
    pub taxa: Vec<String>,
    pub true_tree: Tree,
}

impl Spec {
    /// The alignment drawn with `seed` from the workload's fixed tree and
    /// models. With `seed == default_seed` this is
    /// `workloads::partitioned(n_taxa, n_partitions, chunk_len, default_seed)`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let tree =
            exa_simgen::random_tree_with_lengths(self.n_taxa, 1, 0.01, 0.5, self.default_seed);
        let scheme = PartitionScheme::uniform_chunks(self.n_partitions, self.chunk_len);
        let mut rng = StdRng::seed_from_u64(self.default_seed.wrapping_add(2));
        let models: Vec<SimModel> = (0..self.n_partitions)
            .map(|_| SimModel::random(&mut rng))
            .collect();
        let alignment = exa_simgen::simulate(&tree, &scheme, &models, seed);
        Inputs {
            phylip: exa_bio::phylip::write_phylip(&alignment),
            partitions: exa_bio::partition::write_partition_file(&scheme),
            taxa: alignment.taxa().to_vec(),
            true_tree: tree,
        }
    }

    /// The pinned run configuration (checkpoint directory not yet set).
    pub fn config(&self) -> RunConfig {
        (self.config)()
    }
}

/// Every setting the result depends on is set explicitly, so neither the
/// library defaults (a random starting tree) nor `EXAML_*` variables can
/// change the program under test.
pub fn pinned(scheme: Scheme, model: RateModelKind, strategy: exa_sched::Strategy) -> RunConfig {
    RunConfig::new(RANKS)
        .scheme(scheme)
        .rate_model(model)
        .branch_mode(BranchMode::Joint)
        .strategy(strategy)
        .seed(PROGRAM_SEED)
        .starting_tree(StartingTree::Parsimony)
        .kernel(KernelChoice::Auto)
        .site_repeats(RepeatsChoice::Auto)
        .reduce(ReduceChoice::Fast)
        .threads(ThreadsChoice::Count(ThreadCount::new(1)))
        .gradient(GradientChoice::Auto)
        .batch(true)
}

/// The workloads. Why each was chosen, and which layers it loads, is
/// recorded in `README.md` and in `BENCHMARK.json`.
pub static SPECS: [Spec; 3] = [
    Spec {
        name: "gamma64",
        default_seed: 7,
        held_out_seed: 1007,
        n_taxa: 64,
        n_partitions: 4,
        chunk_len: 150,
        config: || {
            // The CLI's default search, capped at 2 iterations.
            pinned(
                Scheme::Decentralized,
                RateModelKind::Gamma,
                exa_sched::Strategy::Cyclic,
            )
            .search(SearchConfig {
                max_iterations: 2,
                ..SearchConfig::default()
            })
        },
        checkpoint_every: None,
    },
    Spec {
        name: "parts1000",
        default_seed: 3,
        held_out_seed: 1003,
        n_taxa: 8,
        n_partitions: 1000,
        chunk_len: 10,
        config: || {
            // The figure-4 search configuration.
            pinned(
                Scheme::Decentralized,
                RateModelKind::Gamma,
                exa_sched::Strategy::MonolithicLpt,
            )
            .search(SearchConfig {
                max_iterations: 1,
                epsilon: 0.05,
                spr_radius: 3,
                smoothing_passes: 1,
                optimize_model: true,
                model_tol: 1e-2,
            })
        },
        checkpoint_every: None,
    },
    Spec {
        name: "forkjoin_psr",
        default_seed: 1,
        held_out_seed: 1001,
        n_taxa: 32,
        n_partitions: 10,
        chunk_len: 150,
        config: || {
            // The Table-I search configuration, capped at 1 iteration.
            pinned(
                Scheme::ForkJoin,
                RateModelKind::Psr,
                exa_sched::Strategy::Cyclic,
            )
            .search(SearchConfig {
                max_iterations: 1,
                epsilon: 0.05,
                ..SearchConfig::default()
            })
        },
        checkpoint_every: Some(1),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_simgen_workload() {
        for spec in &SPECS {
            let w = exa_simgen::workloads::partitioned(
                spec.n_taxa,
                spec.n_partitions,
                spec.chunk_len,
                spec.default_seed,
            );
            let inputs = spec.inputs(spec.default_seed);
            assert_eq!(inputs.phylip, exa_bio::phylip::write_phylip(&w.alignment));
            assert_eq!(
                exa_phylo::tree::bipartitions::rf_distance(&inputs.true_tree, &w.true_tree),
                0
            );
            assert_ne!(inputs.phylip, spec.inputs(spec.held_out_seed).phylip);
        }
    }
}
