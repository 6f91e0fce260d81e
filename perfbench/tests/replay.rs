//! The benchmark's own checks: the traced replay is the same program as
//! `RunConfig::run`, and the timing decorator hides nothing from it.

use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, Tree};
use exa_search::evaluator::{BranchMode, Evaluator, FullGradient, GlobalState};
use exa_search::SearchConfig;
use examl_core::Scheme;
use examl_perfbench::replay;
use examl_perfbench::spans::SpanLog;
use examl_perfbench::timed::Timed;
use examl_perfbench::{layers, workload};
use std::time::Instant;

/// Run an 8-taxon workload through `RunConfig::run` and through the
/// decorated replay; both must end on the same bits and the same tree.
fn replay_matches_run(scheme: Scheme, model: RateModelKind, checkpoint: bool) -> replay::Replay {
    let w = exa_simgen::workloads::partitioned(8, 3, 120, 5);
    let phylip = exa_bio::phylip::write_phylip(&w.alignment);
    let partitions = exa_bio::partition::write_partition_file(&w.scheme);
    let tag = format!("{scheme:?}-{model:?}");
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(&tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg =
        workload::pinned(scheme, model, exa_sched::Strategy::Cyclic).search(SearchConfig::fast());
    if checkpoint {
        cfg = cfg.checkpoint(dir.join("run"), 1);
    }
    let out = cfg
        .run(&replay::load(&phylip, &partitions))
        .expect("run succeeds");
    let rep = replay::replay(
        &phylip,
        &partitions,
        &cfg,
        &out,
        checkpoint.then(|| dir.join("replay")).as_deref(),
    );
    assert_eq!(
        rep.result.lnl.to_bits(),
        out.result.lnl.to_bits(),
        "{tag}: replay lnL bits"
    );
    assert_eq!(rep.result.iterations, out.result.iterations, "{tag}");
    assert_eq!(rep.result.spr_moves, out.result.spr_moves, "{tag}");
    assert_eq!(
        exa_phylo::tree::bipartitions::rf_distance(&rep.state.tree, &out.state.tree),
        0,
        "{tag}: replay tree"
    );
    assert_eq!(rep.work.clv_updates, out.work.clv_updates, "{tag}");
    assert_eq!(rep.mem_bytes, out.mem_bytes, "{tag}");
    assert!(
        rep.spans.iter().any(|s| s.name == "evaluator.evaluate"),
        "{tag}: decorator spans recorded"
    );
    if checkpoint {
        assert!(rep.checkpoints >= 1, "{tag}: checkpoints replayed");
        assert!(rep.checkpoint_bytes > 0, "{tag}");
    }
    std::fs::remove_dir_all(&dir).ok();
    rep
}

#[test]
fn decentralized_replay_reproduces_the_run() {
    replay_matches_run(Scheme::Decentralized, RateModelKind::Gamma, false);
}

#[test]
fn forkjoin_replay_reproduces_the_run() {
    replay_matches_run(Scheme::ForkJoin, RateModelKind::Psr, true);
}

/// The per-layer table reports exactly the metrics `BENCHMARK.json` names.
#[test]
fn per_layer_metrics_match_the_benchmark_definition() {
    let rep = replay_matches_run(Scheme::Decentralized, RateModelKind::Psr, false);
    let untraced = layers::Untraced {
        wall_s: rep.wall_s,
        cpu_s: rep.wall_s,
        reference_s: 0.1,
    };
    let reported: Vec<String> = layers::per_layer(&rep, &rep.comm, &untraced)
        .into_iter()
        .map(|m| m.name)
        .collect();
    let def = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let per_layer = &def[def.find("\"per_layer\"").expect("per_layer section")..];
    let declared: Vec<&str> = per_layer
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name"))
        .collect();
    assert_eq!(reported, declared);
}

/// An evaluator that logs each method called on it.
struct Probe {
    tree: Tree,
    lnl: Vec<f64>,
    calls: Vec<&'static str>,
}

impl Evaluator for Probe {
    fn n_taxa(&self) -> usize {
        self.tree.n_taxa()
    }
    fn n_partitions(&self) -> usize {
        self.lnl.len()
    }
    fn branch_mode(&self) -> BranchMode {
        BranchMode::Joint
    }
    fn rate_kind(&self) -> RateModelKind {
        RateModelKind::Gamma
    }
    fn tree(&self) -> &Tree {
        &self.tree
    }
    fn tree_mut(&mut self) -> &mut Tree {
        self.calls.push("tree_mut");
        &mut self.tree
    }
    fn evaluate(&mut self, _edge: EdgeId) -> f64 {
        self.calls.push("evaluate");
        -1.0
    }
    fn evaluate_partitioned(&mut self, _edge: EdgeId) -> f64 {
        self.calls.push("evaluate_partitioned");
        -2.0
    }
    fn last_per_partition(&self) -> &[f64] {
        &self.lnl
    }
    fn prepare_derivatives(&mut self, _edge: EdgeId) {
        self.calls.push("prepare_derivatives");
    }
    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        self.calls.push("derivatives");
        (lengths.to_vec(), lengths.to_vec())
    }
    fn full_gradient(&mut self) -> FullGradient {
        self.calls.push("full_gradient");
        FullGradient {
            d1: Vec::new(),
            d2: Vec::new(),
            collectives: 7,
            swept: true,
        }
    }
    fn alphas(&self) -> Vec<f64> {
        vec![0.5]
    }
    fn set_alphas(&mut self, _alphas: &[f64]) {
        self.calls.push("set_alphas");
    }
    fn gtr_rate(&self, rate_index: usize) -> Vec<f64> {
        vec![rate_index as f64]
    }
    fn set_gtr_rate(&mut self, _rate_index: usize, _values: &[f64]) {
        self.calls.push("set_gtr_rate");
    }
    fn optimize_site_rates(&mut self) {
        self.calls.push("optimize_site_rates");
    }
    fn snapshot(&self) -> GlobalState {
        GlobalState {
            tree: self.tree.clone(),
            alphas: vec![0.25],
            gtr_rates: Vec::new(),
        }
    }
    fn restore(&mut self, _state: &GlobalState) {
        self.calls.push("restore");
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn backend_fingerprint(&self) -> u64 {
        0xfeed
    }
    fn state_fingerprint(&self) -> exa_obs::StateFingerprint {
        exa_obs::StateFingerprint {
            components: [1, 2, 3, 4, 5],
        }
    }
}

#[test]
fn decorator_forwards_every_evaluator_method() {
    let probe = Probe {
        tree: Tree::random(6, 1, 3),
        lnl: vec![-3.0, -4.0],
        calls: Vec::new(),
    };
    let log = SpanLog::new(Instant::now(), 0);
    let mut t = Timed::new(probe, log.clone());
    let e: &mut dyn Evaluator = &mut t;

    assert_eq!(e.n_taxa(), 6);
    assert_eq!(e.n_partitions(), 2);
    assert_eq!(e.branch_mode(), BranchMode::Joint);
    assert_eq!(e.rate_kind(), RateModelKind::Gamma);
    assert_eq!(e.tree().n_taxa(), 6);
    e.tree_mut();
    assert_eq!(e.evaluate(0), -1.0);
    assert_eq!(e.evaluate_partitioned(0), -2.0);
    assert_eq!(e.last_per_partition(), &[-3.0, -4.0]);
    e.prepare_derivatives(1);
    assert_eq!(e.derivatives(&[0.5]), (vec![0.5], vec![0.5]));
    let g = e.full_gradient();
    assert!(
        g.swept && g.collectives == 7,
        "not the default per-edge route"
    );
    assert_eq!(e.alphas(), vec![0.5]);
    e.set_alphas(&[1.0]);
    assert_eq!(e.gtr_rate(3), vec![3.0]);
    e.set_gtr_rate(0, &[1.0]);
    e.optimize_site_rates();
    assert_eq!(e.snapshot().alphas, vec![0.25]);
    let state = e.snapshot();
    e.restore(&state);
    assert_eq!(e.backend_fingerprint(), 0xfeed);
    assert_eq!(e.state_fingerprint().components, [1, 2, 3, 4, 5]);
    assert!(
        e.as_any_mut().downcast_mut::<Probe>().is_some(),
        "as_any_mut reaches the wrapped evaluator"
    );

    let probe = t.into_inner();
    assert_eq!(
        probe.calls,
        [
            "tree_mut",
            "evaluate",
            "evaluate_partitioned",
            "prepare_derivatives",
            "derivatives",
            "full_gradient",
            "set_alphas",
            "set_gtr_rate",
            "optimize_site_rates",
            "restore",
        ]
    );
    // One span per forwarded call that does likelihood work.
    let names: Vec<&str> = log.take().iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "evaluator.evaluate",
            "evaluator.evaluate_partitioned",
            "evaluator.prepare_derivatives",
            "evaluator.derivatives",
            "evaluator.full_gradient",
            "evaluator.set_alphas",
            "evaluator.set_gtr_rate",
            "evaluator.optimize_site_rates",
            "evaluator.restore",
        ]
    );
}
