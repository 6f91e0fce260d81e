//! A timing decorator for the search's `Evaluator` seam: it forwards every
//! method to the scheme's evaluator and records a span around each call
//! that does likelihood work or communicates.

use crate::spans::SpanLog;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::tree::{EdgeId, Tree};
use exa_search::evaluator::{BranchMode, Evaluator, FullGradient, GlobalState};

/// Span names, one per timed `Evaluator` method.
pub const EVALUATE: &str = "evaluator.evaluate";
pub const EVALUATE_PARTITIONED: &str = "evaluator.evaluate_partitioned";
pub const PREPARE_DERIVATIVES: &str = "evaluator.prepare_derivatives";
pub const DERIVATIVES: &str = "evaluator.derivatives";
pub const FULL_GRADIENT: &str = "evaluator.full_gradient";
pub const SET_ALPHAS: &str = "evaluator.set_alphas";
pub const SET_GTR_RATE: &str = "evaluator.set_gtr_rate";
pub const SITE_RATES: &str = "evaluator.optimize_site_rates";
pub const RESTORE: &str = "evaluator.restore";

pub struct Timed<E> {
    inner: E,
    log: SpanLog,
}

impl<E> Timed<E> {
    pub fn new(inner: E, log: SpanLog) -> Timed<E> {
        Timed { inner, log }
    }

    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Evaluator> Evaluator for Timed<E> {
    fn n_taxa(&self) -> usize {
        self.inner.n_taxa()
    }
    fn n_partitions(&self) -> usize {
        self.inner.n_partitions()
    }
    fn branch_mode(&self) -> BranchMode {
        self.inner.branch_mode()
    }
    fn rate_kind(&self) -> RateModelKind {
        self.inner.rate_kind()
    }
    fn tree(&self) -> &Tree {
        self.inner.tree()
    }
    fn tree_mut(&mut self) -> &mut Tree {
        self.inner.tree_mut()
    }
    fn evaluate(&mut self, edge: EdgeId) -> f64 {
        let inner = &mut self.inner;
        self.log.time(EVALUATE, || inner.evaluate(edge))
    }
    fn evaluate_partitioned(&mut self, edge: EdgeId) -> f64 {
        let inner = &mut self.inner;
        self.log
            .time(EVALUATE_PARTITIONED, || inner.evaluate_partitioned(edge))
    }
    fn last_per_partition(&self) -> &[f64] {
        self.inner.last_per_partition()
    }
    fn prepare_derivatives(&mut self, edge: EdgeId) {
        let inner = &mut self.inner;
        self.log
            .time(PREPARE_DERIVATIVES, || inner.prepare_derivatives(edge))
    }
    fn derivatives(&mut self, lengths: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let inner = &mut self.inner;
        self.log.time(DERIVATIVES, || inner.derivatives(lengths))
    }
    fn full_gradient(&mut self) -> FullGradient {
        let inner = &mut self.inner;
        self.log.time(FULL_GRADIENT, || inner.full_gradient())
    }
    fn alphas(&self) -> Vec<f64> {
        self.inner.alphas()
    }
    fn set_alphas(&mut self, alphas: &[f64]) {
        let inner = &mut self.inner;
        self.log.time(SET_ALPHAS, || inner.set_alphas(alphas))
    }
    fn gtr_rate(&self, rate_index: usize) -> Vec<f64> {
        self.inner.gtr_rate(rate_index)
    }
    fn set_gtr_rate(&mut self, rate_index: usize, values: &[f64]) {
        let inner = &mut self.inner;
        self.log
            .time(SET_GTR_RATE, || inner.set_gtr_rate(rate_index, values))
    }
    fn optimize_site_rates(&mut self) {
        let inner = &mut self.inner;
        self.log.time(SITE_RATES, || inner.optimize_site_rates())
    }
    fn snapshot(&self) -> GlobalState {
        self.inner.snapshot()
    }
    fn restore(&mut self, state: &GlobalState) {
        let inner = &mut self.inner;
        self.log.time(RESTORE, || inner.restore(state))
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
    fn backend_fingerprint(&self) -> u64 {
        self.inner.backend_fingerprint()
    }
    fn state_fingerprint(&self) -> exa_obs::StateFingerprint {
        self.inner.state_fingerprint()
    }
}
