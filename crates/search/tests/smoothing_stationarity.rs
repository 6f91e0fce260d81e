//! Stationarity of branch smoothing: repeated Gauss–Seidel passes never
//! lower the likelihood, and once a pass stops gaining, every branch-length
//! slot sits at a stationary point of lnL (|dlnL/dt| ≤ 1e-3, from the
//! analytic per-edge derivatives) or at `BL_MIN` / `BL_MAX`. Run under both
//! branch modes on a pinned simgen workload.

use exa_phylo::engine::{Engine, PartitionSlice};
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{Tree, BL_MAX, BL_MIN};
use exa_search::branch::smooth_all;
use exa_search::evaluator::{BranchMode, Evaluator, SequentialEvaluator};
use exa_simgen::workloads;

/// Passes allowed before the sequence counts as not converging.
const MAX_PASSES: usize = 60;
/// A pass gaining less than this ends the sequence. Gauss–Seidel converges
/// linearly across edges, and the lnL a pass still gains shrinks like
/// `max (dlnL/dt)² / |d²lnL/dt²|`: with curvatures of a few thousand on
/// short per-partition branches, a pass gaining 1e-8 can leave |dlnL/dt| ≈ 3e-3,
/// so the stop sits two decades lower (lnL round-off is ~1e-12 here).
const GAIN_TOL: f64 = 1e-10;
/// Largest |dlnL/dt| accepted at an interior length.
const D1_TOL: f64 = 1e-3;

fn evaluator(mode: BranchMode) -> SequentialEvaluator {
    let w = workloads::partitioned(16, 2, 150, 13);
    let slices: Vec<PartitionSlice> = w
        .compressed
        .partitions
        .iter()
        .enumerate()
        .map(|(i, p)| PartitionSlice::from_compressed(i, p))
        .collect();
    let n_parts = slices.len();
    let engine = Engine::new(16, slices, RateModelKind::Gamma, 1.0);
    let blens = match mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => n_parts,
    };
    SequentialEvaluator::new(Tree::random(16, blens, 3), engine, n_parts, mode)
}

fn assert_smoothing_reaches_stationarity(mode: BranchMode) {
    let mut e = evaluator(mode);
    let mut lnl = e.evaluate(0);
    let mut passes = 0;
    loop {
        smooth_all(&mut e, 1);
        passes += 1;
        let next = e.evaluate(0);
        assert!(
            next >= lnl - 1e-9,
            "{mode:?}: pass {passes} lowered lnL {lnl} -> {next}"
        );
        let gain = next - lnl;
        lnl = next;
        if gain < GAIN_TOL {
            break;
        }
        assert!(
            passes < MAX_PASSES,
            "{mode:?}: still gaining {gain} after {MAX_PASSES} passes"
        );
    }

    let arity = match mode {
        BranchMode::Joint => 1,
        BranchMode::PerPartition => e.n_partitions(),
    };
    for edge in 0..e.tree().n_edges() {
        let t: Vec<f64> = (0..arity).map(|p| e.tree().edge(edge).length(p)).collect();
        e.prepare_derivatives(edge);
        let (d1, _) = e.derivatives(&t);
        for (p, (&tp, &g)) in t.iter().zip(&d1).enumerate() {
            let at_bound = tp <= BL_MIN || tp >= BL_MAX;
            assert!(
                g.abs() <= D1_TOL || at_bound,
                "{mode:?}: edge {edge} slot {p} has dlnL/dt = {g} at t = {tp} \
                 after {passes} passes"
            );
        }
    }
}

#[test]
fn joint_smoothing_reaches_a_stationary_point() {
    assert_smoothing_reaches_stationarity(BranchMode::Joint);
}

#[test]
fn per_partition_smoothing_reaches_a_stationary_point() {
    assert_smoothing_reaches_stationarity(BranchMode::PerPartition);
}
