//! Search-quality gate: every other test pins bitwise invariance or
//! derivative identity, which a change that makes every run uniformly
//! *worse* still passes. Here pinned-seed searches on a small simgen
//! workload, under both parallelization schemes, must reach
//!
//! * a final lnL of at least the recorded reference minus 1e-6·|ref|, and
//! * a Robinson–Foulds distance to the generating tree of at most the
//!   recorded reference.
//!
//! References live in `results/search_quality.json` and change only with a
//! CHANGES.md note explaining the change in tree quality. To re-record them
//! after such a change:
//!
//! ```text
//! SEARCH_QUALITY_RECORD=1 cargo test -p examl-integration-tests --test search_quality
//! ```

use exa_phylo::tree::bipartitions::rf_distance;
use exa_search::{SearchConfig, StartingTree};
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const TAXA: usize = 16;
const PARTITIONS: usize = 2;
const CHUNK: usize = 200;
const DATA_SEED: u64 = 17;
const RANKS: usize = 2;
const PROGRAM_SEEDS: [u64; 2] = [1, 2];
/// Relative lnL slack below the reference.
const LNL_REL_TOL: f64 = 1e-6;

#[derive(Debug, Serialize, Deserialize)]
struct Case {
    name: String,
    lnl: f64,
    rf: usize,
}

#[derive(Debug, Serialize, Deserialize)]
struct References {
    workload: String,
    cases: Vec<Case>,
}

fn references_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../results/search_quality.json")
}

fn run_cases() -> Vec<Case> {
    let w = workloads::partitioned(TAXA, PARTITIONS, CHUNK, DATA_SEED);
    let mut cases = Vec::new();
    for (label, scheme) in [
        ("decentralized", Scheme::Decentralized),
        ("forkjoin", Scheme::ForkJoin),
    ] {
        for seed in PROGRAM_SEEDS {
            let out = RunConfig::new(RANKS)
                .scheme(scheme)
                .seed(seed)
                .starting_tree(StartingTree::Parsimony)
                .search(SearchConfig::fast())
                .run(&w.compressed)
                .unwrap();
            cases.push(Case {
                name: format!("{label}-seed{seed}"),
                lnl: out.result.lnl,
                rf: rf_distance(&out.state.tree, &w.true_tree),
            });
        }
    }
    cases
}

#[test]
fn search_reaches_recorded_tree_quality() {
    let cases = run_cases();
    let path = references_path();
    if std::env::var_os("SEARCH_QUALITY_RECORD").is_some() {
        let refs = References {
            workload: format!(
                "workloads::partitioned({TAXA}, {PARTITIONS}, {CHUNK}, {DATA_SEED}), \
                 {RANKS} ranks, parsimony start, SearchConfig::fast()"
            ),
            cases,
        };
        std::fs::write(&path, serde_json::to_string_pretty(&refs).unwrap()).unwrap();
        return;
    }
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let refs: References = serde_json::from_str(&text).unwrap();
    assert_eq!(
        refs.cases.len(),
        cases.len(),
        "reference cases do not match the runs"
    );
    for (got, want) in cases.iter().zip(&refs.cases) {
        assert_eq!(got.name, want.name, "reference cases out of order");
        let floor = want.lnl - LNL_REL_TOL * want.lnl.abs();
        assert!(
            got.lnl >= floor,
            "{}: final lnL {} below the reference {} (floor {floor})",
            got.name,
            got.lnl,
            want.lnl
        );
        assert!(
            got.rf <= want.rf,
            "{}: RF distance to the true tree {} above the reference {}",
            got.name,
            got.rf,
            want.rf
        );
    }
}
