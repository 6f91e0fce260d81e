//! End-to-end tests of the `exa-obs` tracing subsystem.
//!
//! Three properties are checked over real inference runs:
//!
//! 1. **Trace parity** — de-centralized ranks replicate the search, so the
//!    timestamp-free event sequences of all ranks are bit-identical, and two
//!    runs with the same seed produce identical traces (§III-B's lock-step
//!    guarantee, observed rather than assumed).
//! 2. **Scheme comparison** — the fork-join scheme needs strictly more
//!    parallel regions (descriptor/parameter broadcasts on top of the
//!    reductions) than the de-centralized scheme on the same problem; the
//!    paper's §III-B argues ≥2× fewer regions for de-centralized.
//! 3. **Aggregation consistency** — the comm stats reconstructed from the
//!    trace match the communicator's own accounting, and kernel/search
//!    regions appear with sane counts.

use exa_obs::{RegionKind, RunTrace};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_core::{RunConfig, Scheme};

fn small_workload(seed: u64) -> workloads::Workload {
    workloads::partitioned(8, 2, 120, seed)
}

fn fast_search() -> SearchConfig {
    SearchConfig {
        max_iterations: 2,
        ..SearchConfig::fast()
    }
}

fn traced_decentralized(
    w: &workloads::Workload,
    n_ranks: usize,
    seed: u64,
) -> (RunTrace, exa_comm::CommStats) {
    let out = RunConfig::new(n_ranks)
        .search(fast_search())
        .seed(seed)
        .collect_trace(true)
        .run(&w.compressed)
        .unwrap();
    (out.trace.unwrap(), out.comm_stats)
}

fn traced_forkjoin(w: &workloads::Workload, n_ranks: usize, seed: u64) -> RunTrace {
    let out = RunConfig::new(n_ranks)
        .scheme(Scheme::ForkJoin)
        .search(fast_search())
        .seed(seed)
        .collect_trace(true)
        .run(&w.compressed)
        .unwrap();
    out.trace.unwrap()
}

#[test]
fn decentralized_ranks_emit_identical_event_sequences() {
    let w = small_workload(11);
    let (trace, _) = traced_decentralized(&w, 3, 42);
    assert_eq!(trace.n_ranks(), 3);
    let reference = trace.signatures(0);
    assert!(!reference.is_empty());
    for rank in 1..trace.n_ranks() {
        assert_eq!(
            trace.signatures(rank),
            reference,
            "rank {rank} diverged from rank 0"
        );
    }
}

#[test]
fn same_seed_reruns_are_bit_identical() {
    let w = small_workload(13);
    let (a, _) = traced_decentralized(&w, 2, 7);
    let (b, _) = traced_decentralized(&w, 2, 7);
    for rank in 0..2 {
        assert_eq!(
            a.signatures(rank),
            b.signatures(rank),
            "rerun diverged on rank {rank}"
        );
    }
}

#[test]
fn forkjoin_needs_at_least_twice_the_parallel_regions() {
    let w = small_workload(17);
    let seed = 42;
    let (dec, _) = traced_decentralized(&w, 3, seed);
    let fj = traced_forkjoin(&w, 3, seed);
    let dec_regions = dec.aggregate().comm.total_regions();
    let fj_regions = fj.aggregate().comm.total_regions();
    assert!(
        fj_regions >= 2 * dec_regions,
        "fork-join should need ≥2× the collectives of de-centralized \
         (§III-B): fork-join {fj_regions}, de-centralized {dec_regions}"
    );
}

#[test]
fn trace_comm_stats_match_communicator_accounting() {
    use exa_comm::{CommCategory, OpKind};
    let w = small_workload(19);
    let (trace, stats) = traced_decentralized(&w, 2, 5);
    let metrics = trace.aggregate();
    assert_eq!(metrics.unmatched_regions, 0);
    // The trace holds observed collectives only; the communicator's stats
    // additionally account the modeled initial-distribution scatter. Their
    // difference must be exactly that one Control-category scatter.
    let modeled = stats.diff(&metrics.comm);
    assert_eq!(modeled.total_regions(), 1);
    assert_eq!(modeled.ops_of_kind(OpKind::Scatter), 1);
    assert_eq!(
        modeled.get(CommCategory::Control).bytes,
        modeled.total_bytes()
    );
    for cat in CommCategory::ALL {
        if cat != CommCategory::Control {
            assert_eq!(
                metrics.comm.get(cat),
                stats.get(cat),
                "category {cat:?} diverges"
            );
        }
    }
    // Every observed collective is mirrored on every rank.
    assert_eq!(metrics.collective_events, 2 * metrics.comm.total_regions());
}

#[test]
fn kernel_and_search_regions_have_sane_counts() {
    let w = small_workload(23);
    let (trace, _) = traced_decentralized(&w, 2, 9);
    let m = trace.aggregate();
    let newview = m.region(RegionKind::Newview).count;
    let evaluate = m.region(RegionKind::Evaluate).count;
    let deriv = m.region(RegionKind::CoreDerivative).count;
    let nr = m.region(RegionKind::NrIteration).count;
    let spr = m.region(RegionKind::SprRound).count;
    let model_opt = m.region(RegionKind::ModelOptRound).count;
    assert!(
        newview > 0 && evaluate > 0 && deriv > 0,
        "{newview} {evaluate} {deriv}"
    );
    // Every Newton iteration — SPR candidate scoring and per-edge branch
    // smoothing alike — wraps exactly one derivative kernel call, and no
    // derivative kernel runs outside one.
    assert!(nr > 0, "nr iterations: {nr}");
    assert_eq!(deriv, nr, "derivative regions vs NR iterations");
    // Two ranks ran ≤ 2 search iterations each: one SPR round and one
    // model-optimization round per iteration, plus the initial conditioning
    // model round.
    assert!((2..=2 * 2).contains(&spr), "spr rounds: {spr}");
    assert!(model_opt >= spr, "model rounds: {model_opt} vs spr {spr}");
    assert!(m.marks >= 2, "iteration-boundary marks: {}", m.marks);
    // Wait time is attributed to every collective.
    assert_eq!(
        m.region(RegionKind::CollectiveWait).count,
        m.collective_events,
    );
}

#[test]
fn trace_collection_is_opt_in() {
    // The external-recorder shims are gone (their migration window is
    // over); `RunConfig::collect_trace` is now the only tracing switch, and
    // a run without it must not return a trace.
    let w = small_workload(29);
    let out = RunConfig::new(2)
        .search(fast_search())
        .seed(29)
        .run(&w.compressed)
        .unwrap();
    assert!(out.trace.is_none(), "untraced run must not carry a trace");
}

#[test]
fn chrome_trace_export_roundtrips_via_json() {
    let w = small_workload(31);
    let (trace, _) = traced_decentralized(&w, 2, 3);
    let value = exa_obs::chrome_trace(&trace);
    let text = serde_json::to_string(&value).unwrap();
    let back: serde::Value = serde_json::from_str(&text).unwrap();
    let events = serde::field(back.as_map("trace").unwrap(), "traceEvents")
        .as_array("traceEvents")
        .unwrap();
    // All events + one thread-name metadata record per rank.
    assert_eq!(events.len(), trace.total_events() + trace.n_ranks());
}
