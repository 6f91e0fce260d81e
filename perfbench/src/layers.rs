//! The per-layer table, built from a traced replay. Every metric is
//! reported on every workload; a layer idle on a workload reads zero.

use crate::replay::Replay;
use crate::spans::{self, Totals};
use crate::timed;
use exa_comm::{CommCategory, CommStats};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn category_name(c: CommCategory) -> &'static str {
    match c {
        CommCategory::BranchLength => "branch_length",
        CommCategory::SiteLikelihoods => "site_likelihoods",
        CommCategory::ModelParams => "model_params",
        CommCategory::TraversalDescriptor => "traversal_descriptor",
        CommCategory::Control => "control",
    }
}

/// What the untraced jobs measured, reported beside the traced figures.
pub struct Untraced {
    /// Wall-clock time of dataset 0's median job; the base of the tracing
    /// overhead.
    pub wall_s: f64,
    /// CPU time as measured, before scaling to the reference core.
    pub cpu_s: f64,
    /// Median CPU time of one reference-kernel run.
    pub reference_s: f64,
}

/// Per-layer metrics of rank 0 (the master under fork-join). Counts of
/// communication come from the untraced run's `comm`; kernel work is summed
/// over ranks.
pub fn per_layer(replay: &Replay, comm: &CommStats, untraced: &Untraced) -> Vec<Metric> {
    let t = spans::totals(&replay.spans, 0);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let secs = |name: &str| get(name).total_ns as f64 * 1e-9;
    let ms = |name: &str| get(name).total_ns as f64 * 1e-6;
    let mut out = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value,
        })
    };

    let calls = |name: &str| get(name).calls as f64;
    put("evaluator.evaluate_calls", "count", calls(timed::EVALUATE));
    put("evaluator.evaluate_s", "s", secs(timed::EVALUATE));
    put(
        "evaluator.evaluate_partitioned_calls",
        "count",
        calls(timed::EVALUATE_PARTITIONED),
    );
    put(
        "evaluator.evaluate_partitioned_s",
        "s",
        secs(timed::EVALUATE_PARTITIONED),
    );
    put(
        "evaluator.derivative_calls",
        "count",
        calls(timed::DERIVATIVES),
    );
    put(
        "evaluator.derivative_s",
        "s",
        secs(timed::PREPARE_DERIVATIVES) + secs(timed::DERIVATIVES),
    );
    put(
        "evaluator.gradient_calls",
        "count",
        calls(timed::FULL_GRADIENT),
    );
    put("evaluator.gradient_s", "s", secs(timed::FULL_GRADIENT));
    put(
        "evaluator.site_rates_calls",
        "count",
        calls(timed::SITE_RATES),
    );
    put("evaluator.site_rates_s", "s", secs(timed::SITE_RATES));

    let w = &replay.work;
    put("phylo.clv_updates", "count", w.clv_updates as f64);
    put("phylo.clv_saved", "count", w.clv_saved as f64);
    put("phylo.repeat_ratio", "ratio", w.repeat_ratio());
    put("phylo.eval_patterns", "count", w.eval_patterns as f64);
    put("phylo.deriv_patterns", "count", w.deriv_patterns as f64);
    put("phylo.dispatches", "count", w.dispatches as f64);
    put("phylo.kernel_s", "s", w.kernel_ns as f64 * 1e-9);
    let entries = w.total();
    put(
        "phylo.ns_per_entry",
        "ns",
        if entries == 0 {
            0.0
        } else {
            w.kernel_ns as f64 / entries as f64
        },
    );

    put("search.spr_s", "s", secs("search.spr_round"));
    put("search.smooth_s", "s", secs("search.smooth"));
    put("search.model_opt_s", "s", secs("search.model_opt_round"));
    put("search.spr_moves", "count", replay.result.spr_moves as f64);
    put(
        "search.iterations",
        "count",
        replay.result.iterations as f64,
    );
    put("search.start_tree_s", "s", secs("search.start_tree"));

    put("comm.collectives", "count", comm.total_regions() as f64);
    put("comm.bytes", "B", comm.total_bytes() as f64);
    for c in CommCategory::ALL {
        put(
            &format!("comm.bytes.{}", category_name(c)),
            "B",
            comm.get(c).bytes as f64,
        );
    }
    put("comm.wait_s", "s", secs("comm.wait"));
    put(
        "comm.straggler_frac",
        "frac",
        replay
            .trace
            .critical_path()
            .map_or(0.0, |cp| cp.summary().straggler_frac()),
    );

    put("sched.distribute_ms", "ms", ms("sched.distribute"));
    put("sched.build_engine_ms", "ms", ms("sched.build_engine"));
    put("sched.batches", "count", replay.batches as f64);
    put(
        "sched.imbalance",
        "ratio",
        exa_obs::imbalance_ratio(&replay.trace.kernel_profile().rank_totals()),
    );

    put("bio.parse_ms", "ms", ms("bio.parse"));
    put("bio.compress_ms", "ms", ms("bio.compress"));
    put("bio.patterns", "count", replay.n_patterns as f64);

    put("core.checkpoints", "count", replay.checkpoints as f64);
    put("core.checkpoint_write_ms", "ms", ms("core.checkpoint"));
    put("core.checkpoint_bytes", "B", replay.checkpoint_bytes as f64);

    put("obs.wall_s", "s", untraced.wall_s);
    put("obs.cpu_measured_s", "s", untraced.cpu_s);
    put("obs.reference_ms", "ms", untraced.reference_s * 1e3);
    put(
        "obs.trace_overhead",
        "ratio",
        replay.wall_s / untraced.wall_s - 1.0,
    );
    out
}

/// The self-time table of one rank, widest self time first.
pub fn self_time_table(replay: &Replay, rank: usize) -> String {
    let t: BTreeMap<&str, Totals> = spans::totals(&replay.spans, rank);
    let mut rows: Vec<_> = t.into_iter().collect();
    rows.sort_by_key(|(_, v)| std::cmp::Reverse(v.self_ns));
    let mut s = format!(
        "{:<34} {:>9} {:>10} {:>10}\n",
        format!("span (rank {rank})"),
        "calls",
        "total_s",
        "self_s"
    );
    for (name, v) in rows {
        s.push_str(&format!(
            "{:<34} {:>9} {:>10.4} {:>10.4}\n",
            name,
            v.calls,
            v.total_ns as f64 * 1e-9,
            v.self_ns as f64 * 1e-9
        ));
    }
    s
}
